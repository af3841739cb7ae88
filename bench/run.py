"""qsodyn benchmark: two seeded, closed-loop workloads through the user's entry points.

    python3 bench/run.py --workload {orbit,survey} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The command generates the
workload's inputs from ``--seed`` (outside every timed region), starts
one worker process that imports qsodyn from ``src/`` and issues jobs back
to back for ``--seconds`` (whole cycles of the job list), then checks
every job's last output against an independent numpy reference.

With ``--trace 0`` it prints the end-to-end metrics.  ``setup_s`` is the
median over several fresh processes of the time from process start to
the first job being ready.  A job's time is the upper quartile of its
repetitions in the run (see ``timing_metrics``); ``work_per_s`` divides
the work of one cycle by the sum of those times.  With ``--trace 1`` the worker
alternates untraced and traced cycles and the command prints the
per-layer metrics of ``tracer.py`` plus the tracing overhead measured
against the untraced cycles.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--size tiny`` shrinks every workload for the self-test.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_record(args, env: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsodyn").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        **env,
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def start_worker(spec: dict, path: Path):
    """Start a worker and wait for its ``ready`` line; return (set-up seconds, process)."""
    path.write_text(json.dumps(spec))
    threads = str(nproc())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(path)], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.wait(timeout=WORKER_TIMEOUT_S)
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return setup_s, proc


def setup_probe(spec: dict, path: Path) -> float:
    setup_s, proc = start_worker(spec, path)
    finish(proc)
    return setup_s


def finish(proc) -> None:
    try:
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def csv_bytes(jobs: list[dict]) -> int:
    """Bytes of CSV one cycle writes (--output, --csv) and reads back (replay)."""
    total = 0
    for job in jobs:
        argv = job.get("argv", [])
        for flag in ("--output", "--csv"):
            if flag in argv:
                total += os.path.getsize(argv[argv.index(flag) + 1])
        if argv[:1] == ["replay"]:
            total += os.path.getsize(argv[1])
    return total


def check_outputs(wl, result) -> tuple[list[float], list[str]]:
    """Check each job's last output; return work units per job and the errors found."""
    work, errors = [], []
    outcomes = zip(wl.jobs, wl.parts, wl.truth, result["outputs"], result["last_failed"])
    for job, part, truth, output, failed in outcomes:
        if failed:
            work.append(0.0)
            continue
        try:
            job_errors, units = workloads.check(part, truth, output)
        except Exception as exc:  # a malformed output must count as a failure, not stop the run
            job_errors, units = [f"output check raised {exc!r}"], 0.0
        work.append(units)
        errors.extend(f"{job['label']}: {e}" for e in job_errors)
    return work, errors


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def timing_metrics(cycles: list[dict], work: list[float]) -> dict:
    """Job times and throughput, taking each job's time as the upper quartile of its repetitions.

    A shared host runs at its usual speed most of the time, with spells of
    up to 1.7x faster that come and go over seconds.  A job's fastest
    repetition depends on whether such a spell fell in the run; the upper
    quartile of its repetitions measures the usual speed and moves far less
    from run to run.  The median and p90 are taken over the distinct jobs.
    """
    runs = list(zip(*(c["times"] for c in cycles)))
    job_s = [upper_quartile([t for t in times if t is not None]) for times in runs]
    repetitions = [sum(t is not None for t in times) for times in runs]
    # Whole-loop throughput: each job's work counted once per run of it.
    done = sum(units * count for units, count in zip(work, repetitions))
    return {
        "job_p50_ms": 1e3 * statistics.median(job_s),
        "job_p90_ms": 1e3 * nearest_rank(job_s, 0.9),
        "work_per_s": sum(work) / sum(job_s),
        "wall_work_per_s": done / sum(c["wall_s"] for c in cycles),
        "job_s": job_s,
        "repetitions": repetitions,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qsodyn" / "__init__.py").is_file():
        print(f"error: no qsodyn sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    directory = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    directory.mkdir()
    try:
        return measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(args, directory: Path) -> int:
    wl = workloads.generate(args.workload, directory, args.seed, args.size == "tiny")
    manifest = wl.write_manifest()
    spec = {
        "root": str(ROOT),
        "manifest": str(manifest),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setup_only": True,
        "result": str(directory / "result.json"),
        "spans": str(RUN_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz"),
    }
    # Set-up probes run half before and half after the measured worker, so
    # that their median does not hinge on one moment of the shared host.
    probes = 0 if args.trace else SETUP_PROBES
    setups = [setup_probe(spec, directory / f"probe{i}.json") for i in range(probes // 2)]
    setup_s, proc = start_worker(dict(spec, setup_only=False), directory / "spec.json")
    finish(proc)
    setups.append(setup_s)
    setups += [setup_probe(spec, directory / f"probe{i}.json") for i in range(probes // 2, probes)]
    result = json.loads(Path(spec["result"]).read_text())

    cycles = result["cycles"]
    attempted = sum(t is not None for c in cycles for t in c["times"])
    loop_failures = [f for c in cycles for f in c["failures"]]
    work, errors = check_outputs(wl, result)
    failed = len(loop_failures) + len(errors)

    record = run_record(args, result["env"])
    print(f"record {json.dumps(record)}")
    for index, message in loop_failures[:10]:
        print(f"FAILED {wl.jobs[index]['label']}: {message}")
    for message in errors[:10]:
        print(f"FAILED {message}")

    untraced = [c for c in cycles if not c["traced"]]
    plain = timing_metrics(untraced, work)
    walls = ", ".join(f"{c['wall_s']:.3f}" for c in cycles)
    print(f"cycles {len(cycles)} ({len(wl.jobs)} jobs each), wall s: {walls}")
    print(f"failed_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    for label in dict.fromkeys(job["label"] for job in wl.jobs):
        picked = [i for i, job in enumerate(wl.jobs) if job["label"] == label]
        times = [plain["job_s"][i] for i in picked]
        reps = min(plain["repetitions"][i] for i in picked)
        print(f"label {label}: p50 {1e3 * statistics.median(times):.3f} ms ({len(times)} jobs, {reps}+ runs each)")

    notes = {}
    if args.trace:
        traced = [c for c in cycles if c["traced"]]
        with_trace = timing_metrics(traced, work)
        metrics = tracer.layer_metrics(result["trace"]["cycles"], {"csv_bytes": csv_bytes(wl.jobs)})
        metrics["trace.job_p50_ms"] = with_trace["job_p50_ms"]
        metrics["trace.overhead_ratio"] = sum(with_trace["job_s"]) / sum(plain["job_s"]) - 1.0
        notes["trace.job_p50_ms"] = f"untraced cycles: {plain['job_p50_ms']:.6g} ms"
        print(f"spans of the first traced cycle: {result['trace']['spans']}")
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "job_p50_ms": plain["job_p50_ms"],
            "job_p90_ms": plain["job_p90_ms"],
            "work_per_s": plain["work_per_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = {"setup_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MB"}
        reps = plain["repetitions"]
        samples = f"{len(plain['job_s'])} jobs, upper quartile of {min(reps)} to {max(reps)} repetitions each"
        beyond = sum(t * 1e3 > plain["job_p90_ms"] for t in plain["job_s"])
        notes["setup_s"] = f"median of {len(setups)} fresh processes"
        notes["job_p50_ms"] = samples
        notes["job_p90_ms"] = f"{samples}, {beyond} beyond"
        notes["work_per_s"] = f"{plain['wall_work_per_s']:.6g} over the whole loop's wall time"
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    if not args.trace:
        for part in workloads.WORKLOADS[args.workload]:
            picked = [i for i, name in enumerate(wl.parts) if name == part]
            name, unit = workloads.WORK_UNITS[part]
            value = sum(work[i] for i in picked) / sum(plain["job_s"][i] for i in picked)
            print(f"{name} = {value:.6g} {unit} ({part} part, {len(picked)} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
