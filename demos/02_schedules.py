"""Parameter sequences: exponent regions, power laws, and the staircase."""

import numpy as np

from sipm import (Bounds, BufferSequences, ExponentTriple, PowerSchedule,
                  build_staircase, min_mu1_threshold, mu1_init,
                  theta0_init, validate_exponents)

print("== exponent-region gate ==")
for triple, setting in [((-1.0, -1.0, 0.0), "deterministic"),
                        ((-1.0, -1.0, 0.0), "stochastic"),
                        ((-0.75, -0.75, -0.25), "stochastic"),
                        ((-0.5, -0.5, -0.25), "stochastic")]:
    verdict = validate_exponents(ExponentTriple(*triple), setting)
    print(f"  {triple} [{setting:13s}] ->", "ok" if not verdict else verdict)

print("\n== power-law schedule (note the shifted theta index) ==")
sched = PowerSchedule(mu1=1.0, theta0=0.2,
                      exponents=ExponentTriple(-0.75, -0.75, -0.25))
for k in (1, 4, 16, 256):
    print(f"  k={k:4d}  mu_k={sched.mu(k):.6f}  theta_k={sched.theta(k):.6f}")

print("\n== staircase schedule for a budget of 100 iterations ==")
stair = build_staircase(1.0, 100, theta0=0.2)
print("  levels:", stair.levels)
print("  repetition length:", stair.repetition_length)
print("  mu at k=1, 50, 100:", [stair.mu(k) for k in (1, 50, 100)])

print("\n== buffer sequences ==")
theory = BufferSequences(mode="theory", alpha_buff_base=2.0, gamma_buff_base=1.5,
                         t_mu=-0.75)
practical = BufferSequences(mode="practical", maxiter=100)
for k in (1, 10, 100):
    print(f"  k={k:3d}  theory (a,g)=({theory.alpha(k):.4f}, {theory.gamma(k):.4f})"
          f"  practical (a,g)=({practical.alpha(k):.4f}, {practical.gamma(k):.4f})")

print("\n== initialization formulas ==")
bounds = Bounds.cube(4, -1.0, 1.0)
rng = np.random.default_rng(0)
x1 = rng.uniform(-0.01, 0.01, size=4)
g1 = rng.normal(size=4)
mu1 = mu1_init(g1, x1, bounds)
theta0 = theta0_init(x1, bounds, kappa_inf=0.5, sigma_inf=0.2, mu1=mu1, delta=2.0)
print("  mu1 =", mu1)
print("  theta0 =", theta0)
print("  minimal admissible mu1 for that theta0:",
      min_mu1_threshold(theta0, 0.5, 0.2, 2.0))
