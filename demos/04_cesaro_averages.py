# Cesaro (ergodic) averages: (1/n) * sum of the first n trajectory points.
#
# When trajectories converge, the running averages converge to the same
# limit, so the single-male family satisfies the ergodic property.  The
# classical Volterra counterexample shows the contrast: its orbit cycles
# near the boundary instead of settling, and the averages drift.

import numpy as np

from qsodyn import (
    SimplexPoint,
    build_single_male,
    cesaro_running,
    preset,
    trajectory,
)

rng = np.random.default_rng(3)
table = rng.standard_exponential((3, 5))
table /= table.sum(axis=1, keepdims=True)
P = build_single_male(table)
draw = rng.standard_exponential(5)
x0 = SimplexPoint(draw / draw.sum())

print("single-male family (m=4): running averages approach the vertex (1,0,0,0,0)")
for n, avg in cesaro_running(P, x0, [1, 10, 100, 1000, 2000]):
    print(f"  n={n:>5}  avg={np.round(avg, 6)}  max dist to vertex={np.abs(avg - np.eye(5)[0]).max():.2e}")
print()

# Contrast: the Volterra rock-paper-scissors preset.  Its exact orbit
# spirals out from the barycenter toward a boundary cycle and has no
# limit.  (In float64 the coordinates eventually underflow and the orbit
# collapses onto a vertex after a few hundred steps; the early window
# below shows the true cycling regime.)
P_rps = preset("ganikhodzhaev_v0")
start = SimplexPoint(np.array([1 / 3 + 2e-4, 1 / 3 - 1e-4, 1 / 3 - 1e-4]))
traj = trajectory(P_rps, start, max_steps=120, tol=1e-9, reference=SimplexPoint.uniform(3))
print("Volterra RPS preset: orbit leaves the barycenter and cycles")
for n in (0, 20, 40, 60, 80, 100, 120):
    x = traj.coords[n]
    print(f"  step {n:>3}  x={np.round(x, 6)}  leading state {int(np.argmax(x))}")
print(f"  never within 1e-9 of the barycenter: {traj.stop_reason == 'max_steps'}")

print()
print("running averages of the RPS orbit keep drifting (no settling):")
for n, avg in cesaro_running(P_rps, start, [10, 30, 60, 90, 120]):
    print(f"  n={n:>4}  avg={np.round(avg, 4)}")
