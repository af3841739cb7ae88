# Randomized convergence scanning across two-sex operators.
#
# Every two-sex operator sends every orbit to the absorbing vertex: the
# functional phi_F = x_F * x_M squares at least at each step, for any
# female set F (the source paper proves the single-male case M = {1}).
# The scanner samples random operators and starts and checks that theorem.

from qsodyn import conjecture_scan

# Single female, single male (m = 2).
report = conjecture_scan(m=2, trials=200, iterations=30, tol=1e-8, seed=11, females={2})
print(f"m=2, F={{2}} (single male):      converged {report.converged}/{report.trials}")

# Males {1}, females {2..5}.
report = conjecture_scan(m=5, trials=200, iterations=30, tol=1e-8, seed=12, females={2, 3, 4, 5})
print(f"m=5, F={{2..5}} (single male):   converged {report.converged}/{report.trials}")

# A genuinely mixed partition, certified by the same functional.
report = conjecture_scan(m=4, trials=500, iterations=50, tol=1e-8, seed=13, females={2, 3})
print(f"m=4, F={{2,3}} (mixed partition): converged {report.converged}/{report.trials}")
print(f"  worst trial: seed={report.worst_case.seed} final_dist={report.worst_case.final_dist:.2e}")
print(f"  {report.note}")

# Sweep every partition of m=4 round-robin.
report = conjecture_scan(m=4, trials=280, iterations=50, tol=1e-8, seed=14, females="all")
print(f"m=4, all partitions:            converged {report.converged}/{report.trials}")

# Determinism: the same seed reproduces every trial bit for bit, and each
# trial depends only on (seed, trial index), so runs can be sliced or
# parallelized without changing the outcome.
again = conjecture_scan(m=4, trials=280, iterations=50, tol=1e-8, seed=14, females="all")
print(f"same seed, same report: {[r.final_dist for r in report.results] == [r.final_dist for r in again.results]}")
