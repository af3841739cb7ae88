"""One client process: set up, then run whole cycles of jobs back to back.

Run by ``run.py`` as ``python3 bench/worker.py <spec.json>``.  The worker
imports qsodyn from the checkout's ``src/``, loads the workload's inputs
and prints ``ready`` (the parent times set-up up to that line).  Unless
the spec asks for set-up only, it then repeats the job list until
``seconds`` have passed, finishing the cycle it is in, and writes job
times, each job's last output and (when tracing) per-cycle layer
statistics to the spec's result path.

A job with ``"every": k`` runs only in every k-th untraced cycle (the
first included), so that a few long jobs do not starve the short ones of
repetitions.  Traced runs run every job in every cycle, so that their
counts cover the whole job list.

Jobs call ``qsodyn.cli.main(argv)`` in-process, or a public library
function where the CLI has no command for the job.
"""

import contextlib
import ctypes
import glob
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be queried."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def prepare(job: dict, arrays, qsodyn):
    """Turn a job description into a call returning (exit code, output)."""
    if job["kind"] == "cli":
        argv = job["argv"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = qsodyn.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue()

        return call

    if job["kind"] == "batch":
        P = qsodyn.CubicMatrix(arrays[job["operator"]])
        starts = arrays[job["starts"]]
        steps, history, sample = job["steps"], job["history"], job["sample"]

        def call():
            result = qsodyn.iterate_batch(P, starts, steps, return_history=history)
            return 0, (result[:, sample] if history else result[sample]).tolist()

        return call

    P = qsodyn.expand(qsodyn.load_document(job["document"]))
    x0 = qsodyn.SimplexPoint(job["start"])
    n_max = job["n_max"]

    def call():
        report = qsodyn.convergence_report(P, x0, n_max=n_max)
        flags = {
            "bound_ok": bool(report.bound_ok.all()),
            "squared_contraction_ok": bool(report.squared_contraction_ok.all()),
            "coordinate_bound_ok": bool(report.coordinate_bound_ok.all()),
        }
        return 0, {"mode": report.mode, "flags": flags, "steps": len(report.trajectory) - 1}

    return call


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import qsodyn
    import qsodyn.cli

    if Path(qsodyn.__file__).resolve().parent != (src / "qsodyn").resolve():
        print(f"qsodyn imported from {qsodyn.__file__}, not from {src}", file=sys.stderr)
        return 3
    manifest = json.loads(Path(spec["manifest"]).read_text())
    arrays = np.load(manifest["arrays"]) if manifest["arrays"] else None
    arrays = {key: arrays[key] for key in arrays.files} if arrays is not None else None
    jobs = manifest["jobs"]
    calls = [prepare(job, arrays, qsodyn) for job in jobs]
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).parent))
        from tracer import Tracer

        tracer = Tracer()

    cycles, outputs, last_failed = [], [None] * len(jobs), [False] * len(jobs)
    deadline = time.perf_counter() + spec["seconds"]
    min_cycles = 2 if tracer else 1
    while len(cycles) < min_cycles or time.perf_counter() < deadline:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_cycle(record_spans=len(cycles) == 1)
        cycle_start = time.perf_counter()
        times, failures = [], []
        for index, (job, call) in enumerate(zip(jobs, calls)):
            if tracer is None and len(cycles) % job.get("every", 1):
                times.append(None)
                continue
            frame = tracer.begin_job(index) if traced else None
            start = time.perf_counter()
            try:
                rc, outputs[index] = call()
            except Exception:
                rc, outputs[index] = None, traceback.format_exc()
            times.append(time.perf_counter() - start)
            if traced:
                tracer.end_job(frame)
            last_failed[index] = rc != job["rc"]
            if last_failed[index]:
                failures.append([index, f"exit code {rc}, expected {job['rc']}: {str(outputs[index])[-300:]}"])
        wall = time.perf_counter() - cycle_start
        if traced:
            tracer.end_cycle()
            tracer.uninstall()
        cycles.append({"traced": traced, "wall_s": wall, "times": times, "failures": failures})

    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__,
            "blas_threads": blas_threads(np),
        },
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cycles": cycles,
        "outputs": outputs,
        "last_failed": last_failed,
        "trace": None,
    }
    if tracer is not None:
        spans = Path(spec["spans"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        result["trace"] = {"cycles": tracer.cycles, "spans": str(spans)}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
