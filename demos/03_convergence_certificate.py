# Certified convergence for the single-male family.
#
# With males M = {1} and females F = {2, ..., m}, the functional
# phi(x) = x1 * (x2 + ... + xm) contracts at least quadratically:
# phi(next) <= phi(now)^2, hence phi at step n is at most (1/4)^(2^n),
# and every coordinate except x0 is at most 2*phi of the previous step.
# convergence_report checks all three facts stepwise on a real orbit.

import numpy as np

from qsodyn import (
    SimplexPoint,
    SingleMaleCoefficients,
    build_single_male,
    convergence_report,
    find_fixed_points,
)

rng = np.random.default_rng(12)
m = 5
table = rng.standard_exponential((m - 1, m + 1))
table /= table.sum(axis=1, keepdims=True)
P = build_single_male(SingleMaleCoefficients(table))

draw = rng.standard_exponential(m + 1)
x0 = SimplexPoint(draw / draw.sum())

report = convergence_report(P, x0, n_max=12, tol=1e-9)
print(f"mode: {report.mode} (the bound is proved for this shape)")
print(f"{'step':>4} {'phi':>13} {'bound':>13} {'phi<=bound':>11} {'contraction':>12} {'coords<=2phi':>13}")
phis = report.trajectory.lyapunov_values
for n in range(len(report.trajectory)):
    contraction = "-" if n == 0 else str(bool(report.squared_contraction_ok[n - 1]))
    coord = "-" if n == 0 else str(bool(report.coordinate_bound_ok[n - 1]))
    print(f"{n:>4} {phis[n]:>13.4e} {report.bounds[n]:>13.4e} {str(bool(report.bound_ok[n])):>11} {contraction:>12} {coord:>13}")
print(f"all coordinates except x0 below {report.tol:g} from step {report.first_below}")
print()

# The attracting vertex is also the ONLY fixed point: a seeded multistart
# search (iterate, then polish repelling candidates) finds a single cluster.
fp = find_fixed_points(P, starts=100, seed=0)
print("fixed-point clusters found:")
for cand in fp.candidates:
    print(f"  {np.round(cand.point, 12)}  residual {cand.residual:.1e}")
