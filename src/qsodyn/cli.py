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
import io
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


def _row_texts(table: np.ndarray, n: int, bound: bool, dist: bool) -> list[str]:
    """The CSV text of each of ``table``'s rows after its step cell.

    A row holds the coords and phi, then the bound and the distance when
    the CSV has them (their cells are blank otherwise).  A NaN phi is a
    blank cell; no cell ever needs CSV quoting.
    """
    return [
        ",".join(map(repr, row[:n]))
        + ("," if math.isnan(row[n]) else f",{row[n]!r}")
        + (f",{row[n + 1]!r}" if bound else ",")
        + (f",{row[-1]!r}" if dist else ",")
        for row in table.tolist()
    ]


def cmd_trajectory(args) -> int:
    _, P = _load_matrix(args.file)
    x0 = _parse_start(args.start, P.n)
    reference = _resolve_reference(args.reference, P)
    traj = dynamics.trajectory(P, x0, max_steps=args.steps, tol=args.tol, reference=reference)

    bound, dist = traj.females is not None, traj.dist_to_limit is not None
    columns = [traj.coords, traj.lyapunov_values[:, None]]
    # The table repeats where the orbit does, once its bound cells have fallen to their constant 0.0.
    start, period = traj.lap or (len(traj), 1)
    if bound:
        bounds = dynamics._lyapunov_bounds(len(traj))
        columns.append(bounds[:, None])
        start = max(start, np.count_nonzero(bounds))
    if dist:
        columns.append(traj.dist_to_limit[:, None])
    table = np.hstack(columns)
    head = min(start + period, len(table))  # rows from ``head`` on repeat the lap ``table[start:head]``
    lap = _row_texts(table[start:head], P.n, bound, dist)
    header = ["step"] + [f"x_{i}" for i in range(P.n)] + ["phi", "phi_bound", "dist_max"]
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for first in range(0, len(table), WRITE_ROWS):  # blocks bound the text held at once
            last = min(first + WRITE_ROWS, len(table))
            texts = _row_texts(table[first : min(last, head)], P.n, bound, dist)
            texts += map(lap.__getitem__, ((np.arange(max(first, head), last) - start) % period).tolist())
            handle.write("".join([f"{step},{text}\n" for step, text in enumerate(texts, first)]))
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


def _read_csv(path) -> list:
    """The CSV file's lines as text, or else the rows that ``csv.reader`` parses.

    When the text holds no quote, carriage return or NUL, and no line is
    longer than the csv module's field limit, ``csv.reader`` would only
    split each line at its commas, so the lines are returned as they are
    (see :func:`_cells`).  Otherwise each row is a list of cells.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    if lines[-1] == "":  # after the last line's end, or an empty file
        lines.pop()
    if '"' in text or "\r" in text or "\0" in text or max(map(len, lines), default=0) > csv.field_size_limit():
        try:
            return list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise DocumentError(f"unreadable CSV: {exc}") from exc
    return lines


def _cells(record) -> list[str]:
    """A record of :func:`_read_csv` as its cells: a line split at its commas (none on a blank line), or a parsed row."""
    if isinstance(record, list):
        return record
    return record.split(",") if record else []


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


def _keyed(records: list, width: int) -> tuple[list[str], np.ndarray, list[tuple[str, ...]]]:
    """The data records' first cells, each one's index among the distinct rests, and those rests as columns.

    A line is split at its first comma, and each distinct rest at its other
    commas once; a parsed row is keyed by its other cells.  Every record,
    the header included, must have ``width`` cells, which is 3 or more: a
    record of fewer cells has no rest of ``width - 1``.  The lines keep
    no object per line that the cyclic garbage collector tracks.
    """
    if isinstance(records[0], list):
        steps = [row[0] if row else "" for row in records[1:]]
        rests = [tuple(row[1:]) for row in records[1:]]
    else:
        steps = [line.split(",", 1)[0] for line in records[1:]]
        rests = [line[len(step) + 1 :] for line, step in zip(records[1:], steps)]
    index = {rest: row for row, rest in enumerate(dict.fromkeys(rests))}
    inverse = np.fromiter(map(index.__getitem__, rests), dtype=np.intp, count=len(rests))
    distinct = [rest.split(",") if isinstance(rest, str) else rest for rest in index]
    widths = np.array([len(_cells(records[0]))] + [1 + len(cells) for cells in distinct])
    wrong = widths[np.r_[0, inverse + 1]] != width  # the header, then each data record
    if wrong.any():
        line = int(wrong.argmax())
        raise DocumentError(f"CSV line {line + 1} has {len(_cells(records[line]))} cells, expected {width}")
    return steps, inverse, list(zip(*distinct))


def _replay_trajectory(records: list, args) -> int:
    """Check a trajectory CSV once per distinct row: each step's kernel image once per distinct pair of rows."""
    if args.operator is None:
        raise DocumentError("replaying a trajectory CSV requires --operator")
    _, P = _load_matrix(args.operator)
    require_valid(P)
    n = P.n
    if _cells(records[0])[1 : 1 + n] != [f"x_{i}" for i in range(n)]:
        raise DocumentError("CSV columns do not match the operator's state count")
    steps, inverse, columns = _keyed(records, n + 4)
    if _numbers(steps, dtype=int).tolist() != list(range(len(steps))):
        raise DocumentError("trajectory CSV steps must read 0, 1, 2, ...")
    X = np.column_stack([_numbers(col) for col in columns[:n]])  # the distinct rows
    females = P.female_sets.first
    phi = _blank_or_filled(columns[n], "phi", n >= 3)
    bound = _blank_or_filled(columns[n + 1], "phi_bound", females is not None)
    dist = _blank_or_filled(columns[n + 2], "dist_max", any(columns[n + 2]))
    if dist is not None and (dist < 0.0).any():  # only checked: the CSV does not record the reference
        raise DocumentError("dist_max cells must not be negative")

    rows, nexts = np.divmod(np.unique(inverse[:-1] * len(X) + inverse[1:]), len(X))
    deviations = [np.abs(apply_normalized(P, X[rows]) - X[nexts]).ravel()]
    if phi is not None:
        deviations.append(np.abs(dynamics._phi(n, females)(X) - phi))
    if bound is not None:
        deviations.append(np.abs(dynamics._lyapunov_bounds(len(steps)) - bound[inverse]))
    worst = float(np.max(np.concatenate(deviations), initial=0.0))
    print(f"replayed {len(steps)} trajectory rows; max deviation {worst:.3e}")
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
    records = _read_csv(args.csvfile)
    if len(records) < 2:
        raise DocumentError("CSV has no data rows")
    head = (_cells(records[0]) or [""])[0]
    if head == "step":
        return _replay_trajectory(records, args)
    if head == "n":
        return _replay_ergodic(list(map(_cells, records)), args)
    if head == "trial":
        return _replay_conjecture(list(map(_cells, records)), args)
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
