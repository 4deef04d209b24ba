"""Per-layer metrics: reduce the spans of a traced run, and replay the kernel.

Self time of a span is its duration minus the durations of its child spans
(calls are nested and single threaded, so children never overlap).
"""

from __future__ import annotations

import statistics
import time

import workloads

# Replayed micro-timings use every REPLAY_STRIDE-th iterate of a quad-det run.
REPLAY_STRIDE = 10
REPLAY_PASSES = 15


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


class _Spans:
    """Durations, self times and name lookups over a traced run's spans."""

    def __init__(self, spans):
        self.children, self.by_name = {}, {}
        for span in spans:
            self.children.setdefault(span[1], []).append(span)
            self.by_name.setdefault(span[2], []).append(span)

    @staticmethod
    def duration(span):
        return span[4] - span[3]

    def self_time(self, span):
        return self.duration(span) - sum(self.duration(c)
                                         for c in self.children.get(span[0], ()))

    def named(self, name):
        return self.by_name.get(name, [])

    def total(self, name):
        return sum(self.duration(s) for s in self.named(name))

    def total_self(self, name):
        return sum(self.self_time(s) for s in self.named(name))


def from_spans(tracer):
    index = _Spans(tracer.spans)
    duration, self_time, named, total = (index.duration, index.self_time,
                                         index.named, index.total)

    def per_iter_us(name):
        iters = sum(s[5]["iters"] for s in named(name))
        return index.total_self(name) / iters * 1e6 if iters else 0.0

    gradients = named("problems.gradient")
    stochastic = named("problems.stochastic_gradient")
    values = named("problems.value")
    solver_runs = named("solver.run")
    solver_iters = sum(s[5]["iters"] for s in solver_runs)

    # gradient calls made inside estimate_constants carry a digest of x
    estimate_points = [s[5]["x"] for s in gradients if "x" in s[5]]
    cell_finals = [s[5]["final_x"] for s in solver_runs if s[5]["cell"]]

    (cli_main,) = named("cli.main")
    (experiment,) = named("harness.run_experiment")
    glue = self_time(cli_main) + self_time(experiment)

    parses = named("libsvm.parse_libsvm_file")
    arrays = named("libsvm.to_arrays")
    reports = named("harness.report_to_json")
    return {
        "libsvm.parse_s": _median([duration(s) for s in parses]),
        "libsvm.nnz": parses[-1][5]["nnz"] if parses else 0,
        "libsvm.to_arrays_s": _median([duration(s) for s in arrays]),
        "libsvm.features_mb_computed": arrays[-1][5]["bytes"] / 1e6 if arrays else 0.0,
        "problems.gradient_calls": len(gradients),
        "problems.gradient_ms": _median([duration(s) for s in gradients], 1e3),
        "problems.gradient_s": total("problems.gradient"),
        "problems.gradient_mb_computed":
            gradients[-1][5]["bytes"] / 1e6 if gradients else 0.0,
        "problems.stochastic_gradient_calls": len(stochastic),
        "problems.stochastic_gradient_us": _median([duration(s) for s in stochastic], 1e6),
        "problems.samples_touched": sum(s[5]["rows"] for s in gradients + stochastic + values),
        "problems.value_calls": len(values),
        "problems.value_ms": _median([duration(s) for s in values], 1e3),
        "harness.estimate_s": total("harness.estimate_constants"),
        "harness.estimate_useful_ratio":
            len(set(estimate_points)) / len(estimate_points) if estimate_points else 0.0,
        "harness.useful_cell_ratio":
            len(set(cell_finals)) / len(cell_finals) if cell_finals else 0.0,
        "harness.report_json_s": total("harness.report_to_json"),
        "harness.report_mb": sum(s[5]["bytes"] for s in reports) / 1e6,
        "solver.iters": solver_iters,
        "solver.kernel_us_per_iter": per_iter_us("solver.run"),
        "geometry.interior_checks_per_iter":
            tracer.counts["geometry.require_interior_in_run"] / solver_iters
            if solver_iters else 0.0,
        "baselines.psgm_us_per_iter": per_iter_us("baselines.run_psgm"),
        "baselines.proj_ipm_us_per_iter": per_iter_us("baselines.run_simplified"),
        "cli.overhead_s": duration(cli_main) - total("harness.run_experiment")
                          - total("harness.report_to_json") - total("cli.write"),
        "trace.coverage": 1.0 - glue / duration(cli_main),
    }


def shares(tracer):
    """Where the traced bench call spends its time: each layer's share of
    the ``cli.main`` span.  The solver and baseline shares are self time
    (oracle calls excluded); the kernel share includes the bootstrap's
    iterations, which also count in the estimate share."""
    index = _Spans(tracer.spans)
    total, total_self = index.total, index.total_self
    bench = total("cli.main")
    return {"solver.run self (sipm kernel)": total_self("solver.run") / bench,
            "baselines self": (total_self("baselines.run_psgm")
                               + total_self("baselines.run_simplified")) / bench,
            "problems.gradient": total("problems.gradient") / bench,
            "problems.stochastic_gradient":
                total("problems.stochastic_gradient") / bench,
            "problems.value": total("problems.value") / bench,
            "harness.estimate_constants": total("harness.estimate_constants") / bench,
            "harness.report_to_json": total("harness.report_to_json") / bench}


def _capture_quad_iterates(seed, tiny):
    """A quad-det sipm run set up as `sipm bench` sets it up, observed through
    the public ``run(..., observer=...)`` hook."""
    import sipm

    workload = workloads.get("quad-det", tiny=tiny)
    objective = workloads.build_objective(workload, seed, None)
    bounds = sipm.Bounds.cube(objective.n, -1.0, 1.0)
    x1 = sipm.initial_point(objective.n, seed)
    est = sipm.estimate_constants(objective, x1, bounds)
    mu1 = sipm.mu1_init(objective.gradient(x1), x1, bounds)
    delta = sipm.range_gap(bounds, 100.0)
    theta0 = sipm.theta0_init(x1, bounds, est.kappa_inf_bar, 0.0, mu1, delta)
    maxiter = workload.maxiter
    config = sipm.SolverConfig(
        mode="deterministic", bounds=bounds,
        schedule=sipm.build_staircase(mu1, maxiter, theta0=theta0),
        buffers=sipm.BufferSequences(mode="practical", maxiter=maxiter),
        constants=sipm.Constants(ell_f=est.ell_f_bar, kappa_inf=est.kappa_inf_bar),
        maxiter=maxiter)
    captured = []

    def keep(info):
        if info["k"] % REPLAY_STRIDE == 1:
            captured.append(info)

    sipm.run(objective, config, x1, observer=keep)
    return objective, config, delta, captured


def replay_kernel(seed, tiny=False):
    """Per-call µs of the step kernel's pieces on fixed quad-det iterates."""
    import sipm

    objective, config, delta, captured = _capture_quad_iterates(seed, tiny)
    bounds, sched, buffers, constants = (config.bounds, config.schedule,
                                         config.buffers, config.constants)
    points = []
    for info in captured:
        k = info["k"]
        ctx = sipm.ScheduleContext(mu_k=info["mu_k"], theta_k=info["theta_k"],
                                   theta_prev=info["theta_prev"], t_alpha=sched.t_alpha,
                                   alpha_buff=buffers.alpha(k), gamma_buff=buffers.gamma(k))
        points.append((k, info, ctx, objective.gradient(info["x"])))

    def step_size_bundle():
        for k, info, ctx, _ in points:
            sipm.step_size_bundle(info["x"], info["q"], info["h_diag"], k, bounds, ctx,
                                  constants, delta)

    def ratio_test():
        for _, info, _, _ in points:
            sipm.ratio_test(info["x"], info["d"], info["bundle"].alpha_k, bounds,
                            info["theta_k"], info["bundle"].gamma_max)

    def barrier_gradient():
        for _, info, _, g in points:
            sipm.barrier_gradient(g, info["x"], bounds, info["mu_k"])

    def build_hk():
        for _, info, _, _ in points:
            sipm.build_hk(info["x"], bounds, info["mu_k"], constants.ell_f, "practical")

    def schedule_lookups():
        # the mu/theta/buffer lookups one solver iteration makes
        for k, _, _, _ in points:
            sched.mu(k), sched.theta(k), sched.theta(k - 1), sched.t_alpha
            buffers.alpha(k), buffers.gamma(k)

    def per_call_us(fn):
        fn()   # warm up
        times = []
        for _ in range(REPLAY_PASSES):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / len(points) * 1e6

    return {"stepsize.step_size_bundle_us": per_call_us(step_size_bundle),
            "stepsize.ratio_test_us": per_call_us(ratio_test),
            "geometry.barrier_gradient_us": per_call_us(barrier_gradient),
            "solver.build_hk_us": per_call_us(build_hk),
            "schedules.eval_us_per_iter": per_call_us(schedule_lookups)}
