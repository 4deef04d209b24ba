"""Spans and counts around the calls into each `sipm` layer.

The hooks are installed at run time from the benchmark's own files, so
`src/` carries no tracing code.  A hook replaces a public function in every
`sipm` module that holds it, because callers look functions up by the name
they imported (`harness` calls its own `run`, `estimate_constants`,
`run_psgm` and `run_simplified`).  Objective oracles are wrapped through a
proxy returned by the objective factories.

A span is (id, parent id, name, start, end, info).  Spans stay in memory and
are written out once, when the traced run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import time

MODULES = ("sipm", "sipm.cli", "sipm.harness", "sipm.solver", "sipm.baselines",
           "sipm.stepsize", "sipm.geometry", "sipm.schedules", "sipm.problems",
           "sipm.libsvm")

ORACLES = ("problems.gradient", "problems.stochastic_gradient", "problems.value")


def _digest(array):
    return hashlib.sha1(array.tobytes()).hexdigest()


def _nbytes(matrix):
    """Bytes of a dense array, or of the three arrays of a CSR matrix."""
    if hasattr(matrix, "indptr"):
        return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return matrix.nbytes


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"geometry.require_interior_in_run": 0}
        self.in_run = 0          # depth of solver.run spans
        self.in_estimate = 0     # depth of estimate_constants spans
        self._restore = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, info=None, enter=None, leave=None):
        """A function that records one span per call of ``fn``.

        ``info(args, kwargs, result)`` returns what the span keeps besides
        its times; ``enter``/``leave`` run at the span's boundaries.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            if enter is not None:
                enter()
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                if leave is not None:
                    leave()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, replacement):
        """Rebind ``original`` to ``replacement`` wherever a sipm module holds it."""
        found = False
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))
                    found = True
        if not found:
            raise LookupError(f"{original.__qualname__} is not bound in any sipm module")

    def _replace_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self):
        import sipm
        import sipm.cli
        from sipm import baselines, geometry, harness, libsvm, problems, solver

        def bound(fn):
            signature = inspect.signature(fn)
            return lambda args, kwargs: signature.bind(*args, **kwargs).arguments

        def enter_run():
            self.in_run += 1

        def leave_run():
            self.in_run -= 1

        def enter_estimate():
            self.in_estimate += 1

        def leave_estimate():
            self.in_estimate -= 1

        run_args = bound(solver.run)

        def run_info(args, kwargs, result):
            # bootstrap runs sit inside estimate_constants; cell runs do not
            return {"iters": run_args(args, kwargs)["config"].maxiter,
                    "cell": self.in_estimate == 0,
                    "final_x": _digest(result.final_x)}

        def iters_info(fn):
            arguments = bound(fn)
            return lambda args, kwargs, result: {"iters": arguments(args, kwargs)["maxiter"]}

        self._replace(sipm.cli.main, self.wrap("cli.main", sipm.cli.main))
        self._replace(sipm.cli._emit, self.wrap("cli.write", sipm.cli._emit))
        self._replace(harness.run_experiment,
                      self.wrap("harness.run_experiment", harness.run_experiment))
        self._replace(harness.estimate_constants,
                      self.wrap("harness.estimate_constants", harness.estimate_constants,
                                enter=enter_estimate, leave=leave_estimate))
        self._replace(harness.report_to_json,
                      self.wrap("harness.report_to_json", harness.report_to_json,
                                info=lambda a, k, text: {"bytes": len(text)}))
        self._replace(solver.run, self.wrap("solver.run", solver.run, info=run_info,
                                            enter=enter_run, leave=leave_run))
        self._replace(baselines.run_psgm,
                      self.wrap("baselines.run_psgm", baselines.run_psgm,
                                info=iters_info(baselines.run_psgm)))
        self._replace(baselines.run_simplified,
                      self.wrap("baselines.run_simplified", baselines.run_simplified,
                                info=iters_info(baselines.run_simplified)))
        self._replace(libsvm.parse_libsvm_file,
                      self.wrap("libsvm.parse_libsvm_file", libsvm.parse_libsvm_file,
                                info=lambda a, k, ds: {
                                    "nnz": sum(len(row) for row in ds.rows)}))
        self._replace_method(libsvm.SparseDataset, "to_arrays", self.wrap(
            "libsvm.to_arrays", libsvm.SparseDataset.to_arrays,
            info=lambda a, k, arrays: {"bytes": _nbytes(arrays[0])}))
        self._replace(problems.synthetic_classification,
                      self.wrap("problems.synthetic_classification",
                                problems.synthetic_classification))
        for factory in (problems.quadratic_objective, problems.logistic_objective,
                        problems.nn_objective):
            self._replace(factory, self._factory(factory))

        original = geometry.require_interior
        counts = self.counts

        def require_interior(x, bounds):
            if self.in_run:
                counts["geometry.require_interior_in_run"] += 1
            return original(x, bounds)

        self._replace(original, require_interior)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _factory(self, factory):
        build = self.wrap("problems.build", factory)

        def traced_factory(*args, **kwargs):
            return OracleProxy(build(*args, **kwargs), self)

        return traced_factory

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "info"],
                       "spans": self.spans, "counts": self.counts}, handle)


class OracleProxy:
    """An objective whose oracle calls are recorded as spans.

    Calls the objective makes on itself (for example a stochastic gradient
    built from the full one) go to the real object and are not counted
    twice.
    """

    def __init__(self, objective, tracer):
        self._objective = objective
        self.n = objective.n
        self.sample_count = objective.sample_count
        m = objective.sample_count
        data = getattr(objective, "features", None)
        if data is None:    # the quadratic reads its center and curvature
            data_bytes = objective.center.nbytes + objective.curvature.nbytes
        else:
            data_bytes = _nbytes(data)

        def full_info(args, kwargs, result):
            info = {"rows": m, "bytes": data_bytes}
            if tracer.in_estimate:
                info["x"] = _digest(args[0])
            return info

        self.gradient = tracer.wrap("problems.gradient", objective.gradient,
                                    info=full_info)
        self.value = tracer.wrap("problems.value", objective.value,
                                 info=lambda a, k, r: {"rows": m})
        self.stochastic_gradient = tracer.wrap(
            "problems.stochastic_gradient", objective.stochastic_gradient,
            info=lambda a, k, r: {"rows": len(a[1]) if len(a) > 1 else len(k["batch"])})

    def __getattr__(self, name):
        return getattr(self._objective, name)
