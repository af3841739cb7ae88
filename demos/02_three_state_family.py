# Dynamics of the three-state two-sex family.
#
# Every trajectory of this family crashes into the vertex (1, 0, 0): the
# functional phi(x) = x1*x2 obeys the exact scalar recurrence
# phi -> 4bc*phi^2, so the decay is doubly exponential.  The only other
# algebraic solution of V(x) = x lies outside the simplex for every
# admissible (a, b, c).

import numpy as np

from qsodyn import (
    SimplexPoint,
    build_fqso_m2,
    fixed_points_m2,
    lyapunov,
    lyapunov_closed_form,
    trajectory,
)

a, b, c = 0.0, 0.5, 0.5
P = build_fqso_m2(a, b, c)
x0 = SimplexPoint(np.array([0.0, 0.5, 0.5]))

traj = trajectory(P, x0, max_steps=12, tol=1e-9, reference=SimplexPoint.vertex(3))
print(f"trajectory from {x0.coords} under (a,b,c)=({a},{b},{c}):")
print(f"{'step':>4} {'x0':>12} {'x1':>12} {'x2':>12} {'phi':>12} {'closed form':>12}")
phi0 = lyapunov(x0)
for step, x in enumerate(traj.coords):
    closed = lyapunov_closed_form(b, c, phi0, step)
    print(f"{step:>4} {x[0]:>12.6g} {x[1]:>12.6g} {x[2]:>12.6g} {traj.lyapunov_values[step]:>12.6g} {closed:>12.6g}")
print(f"stop reason: {traj.stop_reason} after {len(traj) - 1} steps")
print()

# The iterated functional and the closed form agree to machine accuracy;
# both square the previous value (times 4bc) at every step.

# Fixed points: the vertex always, plus one algebraic candidate that is
# never admissible.  With b = c = 1/2 it is (-1, 1, 1): a negative
# coordinate, so not a probability vector.
for abc in [(0.0, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0)]:
    report = fixed_points_m2(*abc)
    print(f"(a,b,c) = ({abc[0]:.3g}, {abc[1]:.3g}, {abc[2]:.3g})")
    for cand in report.candidates:
        status = "in simplex" if cand.in_simplex else "rejected (off simplex)"
        print(f"  candidate {np.round(cand.point, 6)}  residual {cand.residual:.1e}  {status}")
    print(f"  unique fixed point on the simplex: {report.unique_in_simplex.coords}")
