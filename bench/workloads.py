"""Seeded inputs and independent output checks for the benchmark workloads.

Only numpy is used here; qsodyn is never imported.  Every input the
program sees (operator documents, argv, start batches) is generated from
the workload seed, and every output check recomputes its reference with
the dense ``np.einsum`` step defined below.

A workload is a list of jobs (sent to the worker process) plus, for each
job, the facts the checker needs (kept in the parent process).  One pass
over the job list is a *cycle*; the worker repeats whole cycles.

Each workload joins two *parts*, each with its own generator, checker and
unit of work: ``orbit`` runs the ``orbit`` and ``ensemble`` parts, and
``survey`` runs the ``inspect`` and ``scan`` parts.  Two workloads leave
each run long enough (see BENCHMARK.json) to span the several-second
spells in which a shared host runs slower or faster.
"""

import csv
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPLAY_TOL = 1e-9
FIXED_POINT_TOL = 1e-10
SCAN_ITERATIONS = 50
SCAN_TOL = 1e-8

#: The parts each workload runs, in job-list order.
WORKLOADS = {"orbit": ("orbit", "ensemble"), "survey": ("inspect", "scan")}

#: Unit of work counted by each part's throughput.  A workload's
#: ``work_per_s`` adds its parts' units: a trajectory step and a batch
#: point-step are both one operator application to one point, and a scan
#: trial and an inspected document both handle one operator.
WORK_UNITS = {
    "scan": ("trials_per_s", "trials/s"),
    "orbit": ("steps_per_s", "steps/s"),
    "ensemble": ("point_steps_per_s", "point*steps/s"),
    "inspect": ("operators_per_s", "operators/s"),
}


@dataclass
class Workload:
    name: str
    directory: Path
    jobs: list = field(default_factory=list)
    truth: list = field(default_factory=list)
    arrays: dict = field(default_factory=dict)
    parts: list = field(default_factory=list)
    part: str = ""

    def add(self, label: str, job: dict, truth: dict) -> None:
        self.jobs.append({"label": label, **job})
        self.truth.append(truth)
        self.parts.append(self.part)

    def path(self, name: str) -> str:
        return str(self.directory / name)

    def write_manifest(self) -> Path:
        arrays = None
        if self.arrays:
            arrays = self.path("arrays.npz")
            np.savez(arrays, **self.arrays)
        manifest = self.directory / "manifest.json"
        manifest.write_text(json.dumps({"workload": self.name, "jobs": self.jobs, "arrays": arrays}))
        return manifest


# --- reference arithmetic --------------------------------------------------


def step(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One renormalised quadratic step for a point or a batch of points."""
    y = np.einsum("ijk,...i,...j->...k", p, x, x)
    return y / y.sum(axis=-1, keepdims=True)


def simplex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    draws = rng.standard_exponential(shape)
    return draws / draws.sum(axis=-1, keepdims=True)


def dense_cube(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random stochastic cube: an independent distribution per unordered pair."""
    rows = simplex(rng, n, n, n)
    iu = np.triu_indices(n)
    p = np.empty((n, n, n))
    p[iu] = rows[iu]
    p[(iu[1], iu[0])] = rows[iu]
    return p


def random_females(rng: np.random.Generator, n: int) -> frozenset:
    size = int(rng.integers(1, n - 1))
    return frozenset(int(i) for i in rng.choice(np.arange(1, n), size=size, replace=False))


def fqso_cube(n: int, females, mixed: dict) -> np.ndarray:
    """Two-sex cube: same-class pairs give state 0, mixed pairs their distribution."""
    f_side = np.zeros(n, dtype=bool)
    f_side[list(females)] = True
    m_side = ~f_side
    f_side[0] = True
    p = np.zeros((n, n, n))
    p[(f_side[:, None] & f_side[None, :]) | (m_side[:, None] & m_side[None, :]), 0] = 1.0
    for (i, j), dist in mixed.items():
        p[i, j] = dist
        p[j, i] = dist
    return p


def random_fqso(rng: np.random.Generator, n: int, females=None):
    females = random_females(rng, n) if females is None else frozenset(females)
    males = sorted(set(range(1, n)) - females)
    mixed = {(i, j): simplex(rng, n) for i in sorted(females) for j in males}
    return females, mixed


def skew_cube(a: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    p = np.zeros((m, m, m))
    for k in range(m):
        for i in range(m):
            if i != k:
                p[i, k, k] = p[k, i, k] = (1.0 + a[k, i]) / 2.0
        p[k, k, k] = 1.0
    return p


def rps_cubes() -> tuple[np.ndarray, np.ndarray]:
    """The Volterra rock-paper-scissors cube and its non-Volterra companion."""
    v0 = np.zeros((3, 3, 3))
    v1 = np.zeros((3, 3, 3))
    for k in range(3):
        v0[k, k, k] = v1[k, k, k] = 1.0
    for i, j, k0, k1 in ((0, 1, 0, 2), (1, 2, 1, 0), (0, 2, 2, 1)):
        v0[i, j, k0] = v0[j, i, k0] = 1.0
        v1[i, j, k1] = v1[j, i, k1] = 1.0
    return v0, v1


# --- documents -------------------------------------------------------------


def _document(kind: str, n: int, payload: dict) -> dict:
    return {"schema_version": "1", "kind": kind, "n": n, "payload": payload}


def cubic_document(p: np.ndarray) -> dict:
    n = p.shape[0]
    entries = [
        [i, j, k, float(p[i, j, k])]
        for i in range(n)
        for j in range(i, n)
        for k in range(n)
        if p[i, j, k] != 0.0
    ]
    return _document("cubic", n, {"entries": entries})


def fqso_document(n: int, females, mixed: dict) -> dict:
    rows = [{"i": i, "j": j, "dist": [float(v) for v in d]} for (i, j), d in sorted(mixed.items())]
    return _document("f_qso", n, {"f": sorted(females), "mixed": rows})


def preset_document(n: int, name: str, **params) -> dict:
    return _document("preset", n, {"name": name, "params": params})


def write_json(path: str, doc: dict) -> str:
    Path(path).write_text(json.dumps(doc))
    return path


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _sets_text(females) -> str:
    return ",".join(str(i) for i in sorted(females))


# --- scan ------------------------------------------------------------------


def trial_seed(master: int, trial: int) -> int:
    return int(np.random.SeedSequence([master, trial]).generate_state(1)[0])


def proper_subsets(m: int) -> list[frozenset]:
    return [
        frozenset(c) for size in range(1, m) for c in itertools.combinations(range(1, m + 1), size)
    ]


def reference_trial(m: int, females, seed: int):
    """Recompute one scan trial: (first step within tol or -1, final distance)."""
    n = m + 1
    rng = np.random.default_rng(seed)
    _, mixed = random_fqso(rng, n, females)
    p = fqso_cube(n, females, mixed)
    x = simplex(np.random.default_rng(np.random.SeedSequence([seed, 1])), n)
    vertex = np.eye(n)[0]
    first = 0 if np.max(np.abs(x - vertex)) <= SCAN_TOL else -1
    for it in range(1, SCAN_ITERATIONS + 1):
        x = step(p, x)
        if first < 0 and np.max(np.abs(x - vertex)) <= SCAN_TOL:
            first = it
    return first, float(np.max(np.abs(x - vertex)))


def scan(wl: Workload, rng: np.random.Generator, tiny: bool) -> None:
    """Conjecture scans at m = 4, 8, 12 under each female-set policy, plus replays."""
    trials, repeats = (4, 1) if tiny else (6, 4)
    for m in (4, 8, 12):
        for repeat in range(repeats):
            females = frozenset(int(i) for i in rng.choice(np.arange(1, m + 1), size=m // 2, replace=False))
            for policy in ("fixed", "all", "random"):
                master = int(rng.integers(2**31))
                path = wl.path(f"scan-m{m}-{policy}-{repeat}.csv")
                pick = ["--f", _sets_text(females)] if policy == "fixed" else ["--f-policy", policy]
                argv = ["conjecture", "--m", str(m), "--trials", str(trials), "--iterations", str(SCAN_ITERATIONS),
                        "--tol", repr(SCAN_TOL), "--seed", str(master), *pick, "--csv", path]
                truth = {"m": m, "policy": policy, "females": females, "master": master,
                         "trials": trials, "csv": path}
                wl.add(f"conjecture m={m} {policy}", {"kind": "cli", "argv": argv, "rc": 0}, truth)
            argv = ["replay", path, "--m", str(m), "--iterations", str(SCAN_ITERATIONS), "--tol", repr(SCAN_TOL)]
            wl.add(f"replay scan m={m}", {"kind": "cli", "argv": argv, "rc": 0}, {"replay": trials})


def check_scan(truth: dict, output) -> tuple[list[str], float]:
    if "replay" in truth:
        return [], truth["replay"]
    m, policy, master = truth["m"], truth["policy"], truth["master"]
    rows = read_csv(truth["csv"])
    errors = []
    if len(rows) != truth["trials"] + 1:
        errors.append(f"{truth['csv']}: {len(rows) - 1} rows, expected {truth['trials']}")
    subsets = proper_subsets(m)
    for row in rows[1:]:
        t, s_t, f_cell, steps, final_dist, converged = row
        t, s_t = int(t), int(s_t)
        if policy == "fixed":
            females = truth["females"]
        elif policy == "all":
            females = subsets[t % len(subsets)]
        else:
            pick = np.random.default_rng(np.random.SeedSequence([s_t, 2]))
            females = subsets[int(pick.integers(len(subsets)))]
        first, dist = reference_trial(m, females, s_t)
        if (
            s_t != trial_seed(master, t)
            or f_cell != _sets_text(females).replace(",", ";")
            or int(steps) != first
            or abs(float(final_dist) - dist) > REPLAY_TOL
            or (converged == "1") != (dist <= SCAN_TOL)
        ):
            errors.append(f"scan m={m} {policy} trial {t}: CSV row {row} disagrees with the reference")
    return errors, truth["trials"]


# --- orbit -----------------------------------------------------------------


def orbit(wl: Workload, rng: np.random.Generator, tiny: bool) -> None:
    """Long non-converging trajectories, single-male orbits that snap early,
    ergodic averages, certificates; every CSV is followed by its replay."""
    long_steps, blend_steps, ergodic_n = (200, 100, 500) if tiny else (10_000, 2_000, 2_000)
    blends, operators, starts = (2, 1, 2) if tiny else (2, 5, 2)

    def start_spec(n: int) -> str:
        if rng.integers(2):
            return f"random:{int(rng.integers(2**31))}"
        return ",".join(repr(float(v)) for v in simplex(rng, n))

    def trajectory(label: str, doc: str, n: int, steps: int, stop: str, single_male: bool, every: int = 1):
        out = wl.path(f"traj-{len(wl.jobs)}.csv")
        argv = ["trajectory", doc, "--start", start_spec(n), "--steps", str(steps), "--output", out]
        wl.add(f"trajectory {label}", {"kind": "cli", "argv": argv, "rc": 0, "every": every},
               {"csv": out, "stop": stop, "single_male": single_male})
        replay = ["replay", out, "--operator", doc]
        wl.add(f"replay trajectory {label}", {"kind": "cli", "argv": replay, "rc": 0, "every": every}, {"csv": out})

    def ergodic(label: str, doc: str, n: int):
        out = wl.path(f"ergodic-{len(wl.jobs)}.csv")
        argv = ["ergodic", doc, "--start", start_spec(n), "--n", str(ergodic_n), "--output", out]
        wl.add(f"ergodic {label}", {"kind": "cli", "argv": argv, "rc": 0}, {"ergodic": ergodic_n})
        wl.add(f"replay ergodic {label}", {"kind": "cli", "argv": ["replay", out, "--operator", doc], "rc": 0},
               {"ergodic": ergodic_n})

    # Ergodic jobs and their replays cost the same whatever the draw.  The
    # eight on the RPS preset sit just below the six long trajectory jobs,
    # so with the ensemble part the p90 (the fourteenth slowest of 137 jobs)
    # falls among them.  The long jobs run in every fourth cycle only, which
    # leaves the shorter jobs more repetitions to measure.
    rps = write_json(wl.path("rps.json"), preset_document(3, "ganikhodzhaev_v0"))
    trajectory("rps n=3", rps, 3, long_steps, "max_steps", False, every=4)
    for _ in range(4):
        ergodic("rps n=3", rps, 3)
    for index in range(blends):
        lam = float(rng.uniform(0.2, 0.8))
        doc = write_json(wl.path(f"blend-{index}.json"), preset_document(3, "ganikhodzhaev_lambda", lam=lam))
        trajectory("blend n=3", doc, 3, blend_steps, "max_steps", False, every=4)
        for _ in range(3):
            ergodic("blend n=3", doc, 3)

    for n in (3, 9, 33):
        for index in range(operators):
            females = frozenset(range(2, n))
            _, mixed = random_fqso(rng, n, females)
            if n == 3:
                a, b, c = mixed[(2, 1)]
                doc = preset_document(3, "fqso_m2", a=float(a), b=float(b), c=float(c))
            elif n == 9:
                doc = fqso_document(n, females, mixed)
            else:
                doc = cubic_document(fqso_cube(n, females, mixed))
            path = write_json(wl.path(f"single-male-{n}-{index}.json"), doc)
            for _ in range(starts):
                trajectory(f"single-male n={n}", path, n, 200, "converged", True)
            start = [float(v) for v in simplex(rng, n)]
            wl.add(f"convergence_report single-male n={n}",
                   {"kind": "certificate", "document": path, "start": start, "n_max": 12, "rc": 0},
                   {"certificate": True})


def check_orbit(truth: dict, output) -> tuple[list[str], float]:
    if "certificate" in truth:
        errors = []
        if output["mode"] != "certified" or not all(output["flags"].values()):
            errors.append(f"single-male certificate failed: {output}")
        return errors, output["steps"]
    if "ergodic" in truth:
        return [], truth["ergodic"] - 1
    rows = read_csv(truth["csv"])
    steps = len(rows) - 2
    errors = []
    if "stop" in truth:
        if f"stop reason: {truth['stop']}" not in output:
            errors.append(f"{truth['csv']}: expected stop reason {truth['stop']}, got {output.strip()!r}")
        if truth["single_male"]:
            phi = np.array([float(r[-3]) for r in rows[1:]])
            bound = np.array([float(r[-2]) for r in rows[1:]])
            if not (np.all(phi <= bound + 1e-15) and np.all(phi[1:] <= phi[:-1] ** 2 + 1e-15)):
                errors.append(f"{truth['csv']}: single-male certificate columns violate the bound")
    return errors, steps


# --- ensemble --------------------------------------------------------------

ENSEMBLE_STEPS = 20
ENSEMBLE_SAMPLE = 4


def ensemble(wl: Workload, rng: np.random.Generator, tiny: bool) -> None:
    """Direct batched iteration of dense and two-sex cubes at n = 9, 17, 33."""
    for n, batch in ((9, 128), (17, 48), (33, 12)):
        batch, batches = (8, 3) if tiny else (batch, 6)
        females, mixed = random_fqso(rng, n)
        cubes = {"dense": dense_cube(rng, n), "f_qso": fqso_cube(n, females, mixed)}
        for kind, p in cubes.items():
            wl.arrays[f"{kind}{n}"] = p
            for index in range(batches):
                history = index % 3 == 2
                key = f"starts{len(wl.jobs)}"
                wl.arrays[key] = simplex(rng, batch, n)
                sample = sorted(int(i) for i in rng.choice(batch, ENSEMBLE_SAMPLE, replace=False))
                job = {"kind": "batch", "operator": f"{kind}{n}", "starts": key, "steps": ENSEMBLE_STEPS, "rc": 0,
                       "history": history, "sample": sample}
                truth = {"p": p, "starts": wl.arrays[key][sample], "history": history, "work": batch * ENSEMBLE_STEPS}
                wl.add(f"iterate_batch {kind} n={n} B={batch}{' history' if history else ''}", job, truth)


def check_ensemble(truth: dict, output) -> tuple[list[str], float]:
    x = truth["starts"]
    expected = [x]
    for _ in range(ENSEMBLE_STEPS):
        x = step(truth["p"], x)
        expected.append(x)
    expected = np.stack(expected) if truth["history"] else expected[-1]
    got = np.asarray(output)
    errors = []
    if got.shape != expected.shape or np.max(np.abs(got - expected)) > REPLAY_TOL:
        errors.append(f"iterate_batch sampled rows differ from the reference (shape {got.shape})")
    return errors, truth["work"]


# --- inspect ---------------------------------------------------------------

#: The document stream: 28 documents, two jobs each.  Twelve jobs cost
#: 45-450 ms: validating two-sex documents at n = 11..13 and fixed points
#: of the 3-state presets and of a dense cube.  With the scan part's 48 jobs
#: the survey has 104, so its p90 is the eleventh slowest job: the slower
#: of the two n=11 validations, whose 2^10 partitions cost the same for
#: every seed, while the ten above it cost at least twice as much whatever
#: the draw.  These twelve run in every third cycle only, which leaves the
#: short jobs more repetitions to measure.
INSPECT_STREAM = (
    ("f_qso", 13), ("f_qso", 13), ("f_qso", 12), ("f_qso", 12), ("cubic_fqso", 12), ("cubic_fqso", 12),
    ("f_qso", 11), ("f_qso", 11), ("f_qso", 10),
    ("f_qso", 9), ("f_qso", 8), ("f_qso", 7), ("f_qso", 6), ("f_qso", 5),
    ("cubic_fqso", 9), ("cubic_fqso", 7),
    ("cubic_dense", 6),
    ("invalid_row_sum", 4), ("invalid_negative", 6), ("invalid_negative", 8), ("invalid_row_sum", 12),
    ("volterra_skew", 3), ("rps", 3), ("blend", 3), ("fqso_m2", 3), ("fqso_m2", 3),
    ("single_male", 5), ("single_male", 7),
)


def _inspect_document(rng: np.random.Generator, kind: str, n: int):
    """Return (document, dense cube, planted female set or None, planted violation or None)."""
    if kind in ("f_qso", "cubic_fqso", "fqso_m2", "single_male"):
        females = {"fqso_m2": {2}, "single_male": set(range(2, n))}.get(kind)
        females, mixed = random_fqso(rng, n, females)
        p = fqso_cube(n, females, mixed)
        if kind == "f_qso":
            doc = fqso_document(n, females, mixed)
        elif kind == "cubic_fqso":
            doc = cubic_document(p)
        elif kind == "fqso_m2":
            a, b, c = (float(v) for v in mixed[(2, 1)])
            doc = preset_document(3, "fqso_m2", a=a, b=b, c=c)
        else:
            table = [[float(v) for v in mixed[(i, 1)]] for i in range(2, n)]
            doc = preset_document(n, "single_male", table=table)
        return doc, p, females, None
    if kind == "cubic_dense":
        p = dense_cube(rng, n)
        return cubic_document(p), p, None, None
    if kind.startswith("invalid"):
        p = dense_cube(rng, n)
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        if kind == "invalid_row_sum":
            p[i, j] *= 1.0 + rng.uniform(1e-3, 1e-2)
            planted = f"row_sum at ({i},{j})"
        else:
            k0, k1 = (int(v) for v in rng.choice(n, 2, replace=False))
            shift = p[i, j, k0] + rng.uniform(1e-3, 1e-2)
            p[i, j, k0] -= shift
            p[i, j, k1] += shift
            planted = f"negative at ({i},{j},{k0})"
        p[j, i] = p[i, j]
        return cubic_document(p), None, None, planted
    if kind == "volterra_skew":
        # A cyclic tournament with strong payoffs: the cost of its fixed-point
        # search varies far less from seed to seed than with random signs.
        a = np.zeros((n, n))
        for i in range(n):
            for k in range(i + 1, n):
                value = rng.uniform(0.9, 1.0) * (1 if (k - i) % 2 else -1)
                a[i, k], a[k, i] = value, -value
        return _document("volterra_skew", n, {"a": a.tolist()}), skew_cube(a), None, None
    v0, v1 = rps_cubes()
    if kind == "rps":
        return preset_document(3, "ganikhodzhaev_v0"), v0, None, None
    lam = float(rng.uniform(0.3, 0.6))
    return preset_document(3, "ganikhodzhaev_lambda", lam=lam), (1.0 - lam) * v0 + lam * v1, None, None


def inspect(wl: Workload, rng: np.random.Generator, tiny: bool) -> None:
    """validate then fixed-points on a stream of documents of every kind, some invalid."""
    starts = 10 if tiny else 100
    for index, (kind, n) in enumerate(INSPECT_STREAM):
        if tiny:
            n = min(n, 5)
        doc, p, females, planted = _inspect_document(rng, kind, n)
        path = write_json(wl.path(f"doc-{index}-{kind}.json"), doc)
        rc = 1 if planted else 0
        label = f"{kind} n={n}"
        every = 3 if kind in ("f_qso", "cubic_fqso") and n >= 11 else 1
        wl.add(f"validate {label}", {"kind": "cli", "argv": ["validate", path], "rc": rc, "every": every},
               {"validate": True, "n": n, "females": females, "planted": planted})
        argv = ["fixed-points", path, "--starts", str(starts), "--seed", str(int(rng.integers(2**31)))]
        every = 3 if kind in ("volterra_skew", "rps", "blend", "cubic_dense") else 1
        wl.add(f"fixed-points {label}", {"kind": "cli", "argv": argv, "rc": rc, "every": every}, {"p": p})


_FIXED_POINT_LINE = re.compile(r"^\s+\(([^)]*)\) residual=\S+ \[in simplex\]$", re.M)


def check_inspect(truth: dict, output: str) -> tuple[list[str], float]:
    errors = []
    if "validate" in truth:
        planted, females = truth["planted"], truth["females"]
        if planted and planted not in output:
            errors.append(f"validate did not report the planted {planted}")
        if not planted and "stochasticity: OK" not in output:
            errors.append("validate rejected a valid document")
        if females is not None:
            line = next((ln for ln in output.splitlines() if ln.startswith("f-qso female sets:")), "")
            reported = set(re.findall(r"\{([\d,]*)\}", line))
            complement = set(range(1, truth["n"])) - females
            missing = [s for s in (_sets_text(females), _sets_text(complement)) if s not in reported]
            if missing:
                errors.append(f"validate did not list the planted female sets {missing}")
        return errors, 0
    if truth["p"] is None:
        return errors, 1
    for match in _FIXED_POINT_LINE.finditer(output):
        x = np.array([float(v) for v in match.group(1).split(",")])
        residual = float(np.max(np.abs(np.einsum("ijk,i,j->k", truth["p"], x, x) - x)))
        if residual > FIXED_POINT_TOL:
            errors.append(f"reported fixed point {x.tolist()} has residual {residual:.3e}")
    return errors, 1


#: Generator, checker and random stream of each part.
PARTS = {
    "scan": (scan, check_scan, 1),
    "orbit": (orbit, check_orbit, 2),
    "ensemble": (ensemble, check_ensemble, 3),
    "inspect": (inspect, check_inspect, 4),
}


def generate(name: str, directory: Path, seed: int, tiny: bool) -> Workload:
    """Build a workload's job list, part by part, from the seed."""
    wl = Workload(name, directory)
    for part in WORKLOADS[name]:
        wl.part = part
        build, _, stream = PARTS[part]
        build(wl, np.random.default_rng([seed, stream]), tiny)
    return wl


def check(part: str, truth: dict, output) -> tuple[list[str], float]:
    return PARTS[part][1](truth, output)
