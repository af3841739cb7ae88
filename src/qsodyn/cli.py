"""Command-line interface: validate, trajectory, fixed-points, ergodic,
conjecture, presets, replay.

Exit codes are a stable contract: 0 success, 1 domain failure (invalid
matrix, off-simplex start, failed replay), 2 usage or parse error.  All
randomness flows from explicit ``--seed`` flags with a fixed default of
0, so every run is reproducible; CSV floats use the shortest
round-tripping representation so replays reload exact values.
"""

import argparse
import csv
import functools
import math
import sys

import numpy as np

from . import analysis, dynamics
from .core import QsoError, SimplexPoint, _uniform_simplex, require_valid
from .documents import DocumentError, expand, load_document
from .operators import PRESETS, apply_normalized

DEFAULT_SEED = 0
REPLAY_TOL = 1e-9
NEAR_ONE = 1e-9
#: ``validate`` lists at most this many female sets: every nonempty proper subset of 16 states.
MAX_LISTED_SETS = 2**16 - 2
#: ``trajectory`` formats and writes its CSV this many rows at a time.
WRITE_ROWS = 2**16


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_point(coords) -> str:
    return "(" + ", ".join(_fmt(v) for v in coords) + ")"


def _set_text(states) -> str:
    return "{" + ",".join(map(str, sorted(states))) + "}"


def _load_matrix(path, symmetrize: bool = False):
    doc = load_document(path)
    return doc, expand(doc, symmetrize=symmetrize)


def _coords(spec: str) -> SimplexPoint:  # explicit coordinates, e.g. '0.2,0.3,0.5'
    return SimplexPoint(np.array([float(part) for part in spec.split(",")], dtype=float))


def _parse_start(spec: str, n: int) -> SimplexPoint:
    if spec == "uniform":
        return SimplexPoint.uniform(n)
    if spec.startswith("random:"):
        return SimplexPoint(_uniform_simplex(int(spec.split(":", 1)[1]), n))
    return _coords(spec)


def _parse_females(text: str) -> frozenset[int]:
    parts = [part for part in text.replace(";", ",").split(",") if part]
    return frozenset(int(part) for part in parts)


def _females_cell(females) -> str:
    return ";".join(str(i) for i in sorted(females))


def _open_writer(path):
    handle = open(path, "w", newline="", encoding="utf-8")
    return handle, csv.writer(handle, lineterminator="\n")


# --- commands --------------------------------------------------------------


def cmd_validate(args) -> int:
    doc, P = _load_matrix(args.file, symmetrize=args.symmetrize)
    print(f"document: {args.file} (kind={doc.kind}, n={doc.n})")
    report = P.stochasticity
    if not report.ok:
        print(f"stochasticity: FAILED ({len(report.violations)} violation(s))")
        for v in report.violations:
            where = f"({v.i},{v.j})" if v.k is None else f"({v.i},{v.j},{v.k})"
            print(f"  - {v.kind} at {where}, residual {v.residual:.3e}")
        return 1
    print("stochasticity: OK")

    gap = abs(P.p[:, :, 0] - 1.0)
    for i, j in zip(*np.nonzero((gap > 0.0) & (gap < NEAR_ONE))):
        if i <= j:
            print(
                f"warning: first-row entry at ({i},{j}) is within {NEAR_ONE:g} of 1 "
                f"but not exactly 1; it counts toward N1~"
            )

    cls = P.classification
    print(
        f"classification: volterra={'yes' if cls.is_volterra else 'no'}, "
        f"strictly_non_volterra={'yes' if cls.is_strictly_non_volterra else 'no'}"
    )
    sets = cls.f_qso_sets
    if sets.total > MAX_LISTED_SETS:
        sides = ", ".join(f"{_set_text(a)}/{_set_text(b)}" for a, b in sets.components)
        print(f"f-qso female sets: {sets.total}, not listed; pair-graph components (side/side): {sides}")
    elif sets:
        print(f"f-qso female sets: {', '.join(map(_set_text, sets))}")
    else:
        print("f-qso female sets: none")

    count = analysis.count_first_row(P)
    print(f"first row: N1={count.n1}, N1~={count.n1_tilde}, total pairs={count.total_pairs}")
    if count.females is not None:
        print(
            f"two-sex bounds (F={_set_text(count.females)}): N1 >= {count.n1_lower_bound} "
            f"({'ok' if count.n1 >= count.n1_lower_bound else 'VIOLATED'}), "
            f"N1~ <= {count.n1_tilde_upper_bound} "
            f"({'ok' if count.n1_tilde <= count.n1_tilde_upper_bound else 'VIOLATED'}), "
            f"N1 > N1~ ({'ok' if count.n1 > count.n1_tilde else 'VIOLATED'})"
        )
    return 0


def _resolve_reference(spec: str, P) -> SimplexPoint | None:
    if spec == "none":
        return None
    if spec == "vertex0":
        return SimplexPoint.vertex(P.n)
    if spec == "auto":
        return SimplexPoint.vertex(P.n) if P.female_sets else None
    return _coords(spec)


def _distinct_rows(X: np.ndarray) -> tuple[list[list[float]], list[int]]:
    """The distinct rows of ``X`` in order of first appearance, and each row's index among them.

    Rows match by their bytes, so -0.0 stays apart from 0.0 and a NaN matches the same NaN.
    """
    X = np.ascontiguousarray(X)
    keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel().tolist()
    index = {}
    inverse = [index.setdefault(key, len(index)) for key in keys]
    return np.frombuffer(b"".join(index), dtype=float).reshape(len(index), -1).tolist(), inverse


def _trajectory_lines(table: np.ndarray, n: int, bound: bool, dist: bool, first: int) -> str:
    """CSV lines of steps ``first``, ``first + 1``, ... from ``table``'s rows.

    A row holds the coords and phi, then the bound and the distance when
    the CSV has them (their cells are blank otherwise).  An orbit that has
    closed a cycle repeats its rows, so each distinct row is formatted
    once.  A NaN phi is a blank cell; no cell ever needs CSV quoting.
    """
    rows, inverse = _distinct_rows(table)
    texts = [
        ",".join(map(repr, row[:n]))
        + ("," if math.isnan(row[n]) else f",{row[n]!r}")
        + (f",{row[n + 1]!r}" if bound else ",")
        + (f",{row[-1]!r}" if dist else ",")
        for row in rows
    ]
    return "".join([f"{step},{texts[row]}\n" for step, row in enumerate(inverse, first)])


def cmd_trajectory(args) -> int:
    _, P = _load_matrix(args.file)
    x0 = _parse_start(args.start, P.n)
    reference = _resolve_reference(args.reference, P)
    traj = dynamics.trajectory(P, x0, max_steps=args.steps, tol=args.tol, reference=reference)

    bound, dist = traj.females is not None, traj.dist_to_limit is not None
    columns = [traj.coords, traj.lyapunov_values[:, None]]
    if bound:
        columns.append(np.array([dynamics.lyapunov_bound(step) for step in range(len(traj))])[:, None])
    if dist:
        columns.append(traj.dist_to_limit[:, None])
    table = np.hstack(columns)
    header = ["step"] + [f"x_{i}" for i in range(P.n)] + ["phi", "phi_bound", "dist_max"]
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for first in range(0, len(table), WRITE_ROWS):  # blocks bound the text held at once
            handle.write(_trajectory_lines(table[first : first + WRITE_ROWS], P.n, bound, dist, first))
    print(f"wrote {len(traj)} rows to {args.output}; stop reason: {traj.stop_reason}")
    return 0


def cmd_fixed_points(args) -> int:
    _, P = _load_matrix(args.file)
    report = dynamics.fixed_points(P, starts=args.starts, seed=args.seed)
    titles = {
        "two-sex": "two-sex operator: the vertex is the only fixed point in the simplex (proved):",
        "volterra": f"Volterra operator: exact fixed points, one bordered solve on each of {2**P.n - 1} faces:",
        "search": f"multistart search: starts={args.starts}, seed={args.seed}",
    }
    blocks = [(titles[report.method], report)]
    if report.method == "two-sex" and P.n == 3:
        a, b, c = (float(P.p[1, 2, k]) for k in range(3))
        title = f"algebraic candidates of the three-state family (a={_fmt(a)}, b={_fmt(b)}, c={_fmt(c)}):"
        blocks.append((title, dynamics.fixed_points_m2(a, b, c)))
    for title, block in blocks:
        print(title)
        if not block.candidates:  # only the search can come back empty
            print("  no candidates found (legal outcome; residual threshold 1e-10)")
        for cand in block.candidates:
            flag = "in simplex" if cand.in_simplex else "REJECTED: not in simplex"
            print(f"  {_fmt_point(cand.point)} residual={cand.residual:.3e} [{flag}]")
        for face in block.degenerate_faces:
            print(f"  face {_set_text(face)}: degenerate, not solved to one isolated point")
    if report.method == "search":
        found = sum(cand.in_simplex for cand in report.candidates)
        print(f"{found} in-simplex fixed point(s) found; a search does not prove the list complete")
    elif report.unique_in_simplex is not None:
        print(f"unique in-simplex fixed point: {_fmt_point(report.unique_in_simplex.coords)}")
    return 0


def _log_schedule(n: int) -> list[int]:
    out = []
    value = 1
    while value < n:
        out.append(value)
        value *= 2
    out.append(n)
    return out


def cmd_ergodic(args) -> int:
    _, P = _load_matrix(args.file)
    x0 = _parse_start(args.start, P.n)
    schedule = _log_schedule(args.n)
    rows = dynamics.cesaro_running(P, x0, schedule)
    handle, writer = _open_writer(args.output)
    with handle:
        writer.writerow(["n"] + [f"avg_{i}" for i in range(P.n)])
        for count, avg in rows:
            writer.writerow([str(count)] + [_fmt(v) for v in avg])
    print(f"wrote {len(rows)} rows to {args.output} (running averages up to n={args.n})")
    return 0


def cmd_conjecture(args) -> int:
    females = args.policy or _parse_females(args.f)  # the parser passes exactly one of the two
    report = analysis.conjecture_scan(
        m=args.m,
        trials=args.trials,
        iterations=args.iterations,
        tol=args.tol,
        seed=args.seed,
        females=females,
    )
    f_txt = "-" if args.policy else _set_text(females)
    print(
        f"scan: m={args.m} policy={args.policy or 'fixed'} F={f_txt} trials={args.trials} "
        f"iterations={args.iterations} tol={args.tol:g} seed={args.seed}"
    )
    print(f"converged: {report.converged}/{report.trials}  max final distance: {report.max_final_distance:.3e}")
    worst = report.worst_case
    print(
        f"worst trial: #{worst.trial} seed={worst.seed} F={_females_cell(worst.females)} "
        f"steps={worst.steps} final_dist={worst.final_dist:.3e}"
    )
    print(f"note: {report.note}")

    if args.csv:
        handle, writer = _open_writer(args.csv)
        with handle:
            writer.writerow(["trial", "seed", "F", "steps", "final_dist", "converged"])
            for r in report.results:
                writer.writerow(
                    [
                        str(r.trial),
                        str(r.seed),
                        _females_cell(r.females),
                        str(r.steps),
                        _fmt(r.final_dist),
                        "1" if r.converged else "0",
                    ]
                )
        print(f"wrote {len(report.results)} trial rows to {args.csv}")
    return 0


def cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        _, description = PRESETS[name]
        print(f"{name}: {description}")
    return 0


# --- replay ----------------------------------------------------------------


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """The data rows as columns; every row, the header included, must have ``width`` cells."""
    if set(map(len, rows)) != {width}:
        line, row = next((line, row) for line, row in enumerate(rows, start=1) if len(row) != width)
        raise DocumentError(f"CSV line {line} has {len(row)} cells, expected {width}")
    return list(zip(*rows[1:]))


def _numbers(cells, dtype=float) -> np.ndarray:
    """Parse CSV cells into finite numbers."""
    try:
        values = np.fromiter(map(dtype, cells), dtype=dtype, count=len(cells))
    except (ValueError, OverflowError) as exc:
        raise DocumentError(f"non-numeric CSV cell: {exc}") from None
    if not np.isfinite(values).all():
        raise DocumentError("non-finite number in CSV")
    return values


def _blank_or_filled(cells, name: str, filled: bool) -> np.ndarray | None:
    """A column that must be ``filled`` with finite numbers on every row (returned), or else blank on every row."""
    if filled and all(cells):
        return _numbers(cells)
    if not filled and not any(cells):
        return None
    raise DocumentError(f"the {name} column must be {'filled' if filled else 'blank'} on every row")


def _replay_trajectory(rows: list[list[str]], args) -> int:
    if args.operator is None:
        raise DocumentError("replaying a trajectory CSV requires --operator")
    _, P = _load_matrix(args.operator)
    require_valid(P)
    n = P.n
    if rows[0][1 : 1 + n] != [f"x_{i}" for i in range(n)]:
        raise DocumentError("CSV columns do not match the operator's state count")
    columns = _columns(rows, n + 4)
    if _numbers(columns[0], dtype=int).tolist() != list(range(len(rows) - 1)):
        raise DocumentError("trajectory CSV steps must read 0, 1, 2, ...")
    X = np.column_stack([_numbers(col) for col in columns[1 : 1 + n]])
    females = P.female_sets.first
    phi = _blank_or_filled(columns[1 + n], "phi", n >= 3)
    bound = _blank_or_filled(columns[2 + n], "phi_bound", females is not None)
    dist = _blank_or_filled(columns[3 + n], "dist_max", any(columns[3 + n]))
    if dist is not None and (dist < 0.0).any():  # only checked: the CSV does not record the reference
        raise DocumentError("dist_max cells must not be negative")

    deviations = [np.abs(apply_normalized(P, X[:-1]) - X[1:]).ravel()]
    if phi is not None:
        deviations.append(np.abs(dynamics._phi(n, females)(X) - phi))
    if bound is not None:
        deviations.append(np.abs([dynamics.lyapunov_bound(step) for step in range(len(X))] - bound))
    worst = float(np.max(np.concatenate(deviations), initial=0.0))
    print(f"replayed {len(rows) - 1} trajectory rows; max deviation {worst:.3e}")
    return 0 if worst <= REPLAY_TOL else 1


def _replay_ergodic(rows: list[list[str]], args) -> int:
    if args.operator is None:
        raise DocumentError("replaying an ergodic CSV requires --operator")
    _, P = _load_matrix(args.operator)
    columns = _columns(rows, P.n + 1)
    counts = _numbers(columns[0], dtype=int).tolist()
    if counts[0] != 1:
        raise DocumentError("ergodic CSV must start at n=1 so the start point is recoverable")
    # Checked before any step: a replay iterates up to the last count.
    if counts != _log_schedule(counts[-1]):
        raise DocumentError("ergodic CSV counts must follow the doubling schedule that ergodic writes")
    stored = np.column_stack([_numbers(col) for col in columns[1:]])
    recomputed = dynamics._cesaro_rows(P, SimplexPoint(stored[0]), counts)
    worst = 0.0
    # Compared as recomputed: a forged row stops the replay before a huge later count is reached.
    for replayed, ((_, avg), row) in enumerate(zip(recomputed, stored), 1):
        worst = float(np.max(np.abs(avg - row), initial=worst))  # NaN stays NaN and fails
        if not worst <= REPLAY_TOL:
            break
    print(f"replayed {replayed} ergodic rows; max deviation {worst:.3e}")
    return 0 if worst <= REPLAY_TOL else 1


def _replay_conjecture(rows: list[list[str]], args) -> int:
    if args.m is None or args.iterations is None or args.tol is None:
        raise DocumentError("replaying a conjecture CSV requires --m, --iterations and --tol")
    _, seeds, f_cells, steps, final_dists, converged = _columns(rows, 6)
    seeds, steps, converged = (_numbers(col, dtype=int).tolist() for col in (seeds, steps, converged))
    final_dists = _numbers(final_dists).tolist()
    worst = 0.0
    mismatches = 0
    for seed, f_cell, steps1, dist1, conv1 in zip(seeds, f_cells, steps, final_dists, converged):
        _, steps2, dist2, conv2 = analysis.run_trial(
            args.m, _parse_females(f_cell), seed, args.iterations, args.tol
        )
        worst = max(worst, abs(dist2 - dist1))
        if steps2 != steps1 or conv2 != (conv1 == 1):
            mismatches += 1
    print(f"replayed {len(rows) - 1} conjecture rows; max deviation {worst:.3e}, mismatches {mismatches}")
    return 0 if worst <= REPLAY_TOL and mismatches == 0 else 1


def cmd_replay(args) -> int:
    try:
        with open(args.csvfile, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except csv.Error as exc:
        raise DocumentError(f"unreadable CSV: {exc}") from exc
    if len(rows) < 2:
        raise DocumentError("CSV has no data rows")
    head = rows[0][0] if rows[0] else ""
    if head == "step":
        return _replay_trajectory(rows, args)
    if head == "n":
        return _replay_ergodic(rows, args)
    if head == "trial":
        return _replay_conjecture(rows, args)
    raise DocumentError(f"unrecognized CSV header starting with {head!r}")


# --- parser ----------------------------------------------------------------


@functools.cache  # built on the first call, then reused: parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsodyn",
        description="Quadratic stochastic operators on the simplex: validation, dynamics, scanning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="stochasticity, classification and first-row counts")
    p.add_argument("file", help="operator document (JSON)")
    p.add_argument("--symmetrize", action="store_true", help="average both orientations of cubic entries")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trajectory", help="iterate an operator and write per-step CSV")
    p.add_argument("file")
    p.add_argument("--start", required=True, help="coords 'a,b,c', 'uniform', or 'random:<seed>'")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--reference",
        default="auto",
        help="'auto' (vertex 0 for two-sex operators), 'vertex0', 'none', or coords",
    )
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("fixed-points", help="fixed points: exact by class, else a multistart search")
    p.add_argument("file")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("ergodic", help="running Cesaro averages at a logarithmic schedule")
    p.add_argument("file")
    p.add_argument("--start", required=True)
    p.add_argument("--n", type=int, required=True, help="number of averaged points")
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("conjecture", help="randomized check of the two-sex convergence theorem")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--f", help="fixed female set, e.g. '2,3'")
    pick.add_argument("--f-policy", dest="policy", choices=["all", "random"],
                      help="cycle through every female set, or draw one per trial")
    p.add_argument("--csv", help="write per-trial rows to this path")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("presets", help="list the named operators")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("replay", help="recompute an emitted CSV and check consistency")
    p.add_argument("csvfile")
    p.add_argument("--operator", help="operator document (trajectory/ergodic CSVs)")
    p.add_argument("--m", type=int, help="scan m (conjecture CSVs)")
    p.add_argument("--iterations", type=int, help="scan iterations (conjecture CSVs)")
    p.add_argument("--tol", type=float, help="scan tolerance (conjecture CSVs)")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError, ValueError) as exc:  # DocumentError first: it is a QsoError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QsoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
