"""Deterministic solve of a box-constrained quadratic, with the full audit on.

The run estimates the problem constants with the placeholder bootstrap,
derives the barrier start and neighborhood margin from them, then follows
the budgeted staircase down to the 1e-8 barrier floor.
"""

import numpy as np

from sipm import (Bounds, BufferSequences, Constants, SolverConfig,
                  build_staircase, estimate_constants, initial_point, mu1_init,
                  quadratic_objective, range_gap, run, theta0_init)

center = np.array([0.3, -0.2, 0.5, 0.0, -0.45])
curvature = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
objective = quadratic_objective(center, curvature)
bounds = Bounds.cube(5, -1.0, 1.0)
x1 = initial_point(5, seed=0)

print("estimating constants with the 500-iteration bootstrap ...")
est = estimate_constants(objective, x1, bounds)
print("  ell_f_bar =", est.ell_f_bar, " kappa_inf_bar =", est.kappa_inf_bar)

delta = range_gap(bounds, 100.0)
mu1 = mu1_init(objective.gradient(x1), x1, bounds)
theta0 = theta0_init(x1, bounds, est.kappa_inf_bar, 0.0, mu1, delta)
maxiter = 2000
schedule = build_staircase(mu1, maxiter, theta0=theta0)
print(f"mu1={mu1:.5f} theta0={theta0:.5f} levels={len(schedule.levels)}")

config = SolverConfig(mode="deterministic", bounds=bounds, schedule=schedule,
                      buffers=BufferSequences(mode="practical", maxiter=maxiter),
                      constants=Constants(ell_f=est.ell_f_bar,
                                          kappa_inf=est.kappa_inf_bar),
                      maxiter=maxiter, audit_level="full_trace")
result = run(objective, config, x1)

print("\ntrace every 400 iterations:")
print("     k        mu_k     alpha_k   gamma_k      |q_k|")
for row in result.records[::400]:
    print(f"  {row['k']:4d}  {row['mu_k']:.3e}  {row['alpha_k']:.3e}"
          f"  {row['gamma_k']:.5f}  {row['q_norm']:.3e}")

print("\nfinal objective:", result.final_objective)
print("projected-gradient norm:", result.final_projected_grad_norm)
print("max distance to the analytic minimizer:",
      float(np.max(np.abs(result.final_x - center))))
print("stalled iterations:", result.stall_count)
print("KKT stationarity residual:", result.final_kkt.stationarity_residual)
