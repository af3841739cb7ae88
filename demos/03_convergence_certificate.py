# Certified convergence for every two-sex operator.
#
# For any female set F and male set M, the functional
# phi_F(x) = (total female mass) * (total male mass) contracts at least
# quadratically: phi_F(next) <= phi_F(now)^2, hence phi_F at step n is at
# most (1/4)^(2^n), and every coordinate except x0 is at most 2*phi_F of
# the previous step.  With M = {1} this is the source paper's functional
# x1 * (x2 + ... + xm).  convergence_report checks all three facts
# stepwise on a real orbit.

import numpy as np

from qsodyn import (
    SimplexPoint,
    build_single_male,
    convergence_report,
    find_fixed_points,
    sample_random_f_qso,
)

rng = np.random.default_rng(12)
m = 5
table = rng.standard_exponential((m - 1, m + 1))
table /= table.sum(axis=1, keepdims=True)
P = build_single_male(table)

draw = rng.standard_exponential(m + 1)
x0 = SimplexPoint(draw / draw.sum())

report = convergence_report(P, x0, n_max=12, tol=1e-9)
print(f"single male, F={{2..{m}}}: {report.mode} (phi = x1 * (x2 + ... + x{m}))")
print(f"{'step':>4} {'phi':>13} {'bound':>13} {'phi<=bound':>11} {'contraction':>12} {'coords<=2phi':>13}")
phis = report.trajectory.lyapunov_values
for n in range(len(report.trajectory)):
    contraction = "-" if n == 0 else str(bool(report.squared_contraction_ok[n - 1]))
    coord = "-" if n == 0 else str(bool(report.coordinate_bound_ok[n - 1]))
    print(f"{n:>4} {phis[n]:>13.4e} {report.bounds[n]:>13.4e} {str(bool(report.bound_ok[n])):>11} {contraction:>12} {coord:>13}")
print(f"all coordinates except x0 below {report.tol:g} from step {report.first_below}")
print()

# A mixed partition: females {2, 4}, males {1, 3, 5}.  The same three
# checks hold, with phi_F = (x2 + x4) * (x1 + x3 + x5).
mixed = convergence_report(sample_random_f_qso(m, {2, 4}, seed=3), x0, n_max=12)
flags = (mixed.bound_ok.all(), mixed.squared_contraction_ok.all(), mixed.coordinate_bound_ok.all())
print(f"mixed partition, F={{2,4}}: {mixed.mode}; bound, contraction, coordinate bound hold: {all(flags)}")
print()

# The attracting vertex is also the ONLY fixed point, for every two-sex
# operator (proof in the README); a seeded multistart search (iterate, then
# polish repelling candidates) agrees: it finds a single cluster.
fp = find_fixed_points(P, starts=100, seed=0)
print("fixed-point clusters found:")
for cand in fp.candidates:
    print(f"  {np.round(cand.point, 12)}  residual {cand.residual:.1e}")
