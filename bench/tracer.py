"""Spans around calls into qsodyn's layers, recorded from the benchmark side.

``Tracer.install`` wraps every public function of the package's modules
(``cli``, ``documents``, ``core``, ``operators``, ``dynamics``,
``analysis``) plus scipy's ``least_squares`` as ``dynamics`` sees it, and
rebinds each wrapper at every name a caller resolves: the defining
module, every ``from .x import y`` binding in the other modules, and the
package namespace.  ``uninstall`` restores the originals, so untraced
cycles run the unmodified program.

Self time is a span's duration minus the time covered by its child spans.
Aggregates are kept per cycle; the raw spans of the first traced cycle
stay in memory until ``write_spans`` saves them at the end of the run.
"""

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "documents", "core", "operators", "dynamics", "analysis")
#: Names wrapped beyond each module's own public functions.
EXTRA = {"dynamics": ("least_squares",)}
#: ``cli`` is timed as a whole: its command functions count toward ``main``.
ONLY = {"cli": ("main",)}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kernel(counts, n, batch, steps, prefix="") -> None:
    """Computed work of ``steps`` quadratic steps on ``batch`` points of dimension n."""
    counts[prefix + "point_steps"] += batch * steps
    counts[prefix + "flops"] += 2 * n**3 * batch * steps
    counts[prefix + "bytes"] += steps * (8 * n**3 + 16 * batch * n)


def _observe_apply_unnormalized(tracer, args, kwargs, result, duration):
    _kernel(tracer.counts, args[0].n, 1, 1)


def _observe_apply(tracer, args, kwargs, result, duration):
    n = args[0].n
    tracer.counts[f"apply.n{n}.calls"] += 1
    tracer.counts[f"apply.n{n}.seconds"] += duration


def _observe_iterate_batch(tracer, args, kwargs, result, duration):
    batch, n = np.shape(args[1])
    steps = _arg(args, kwargs, 2, "steps")
    _kernel(tracer.counts, n, batch, steps)
    _kernel(tracer.counts, n, batch, steps, prefix="iterate_batch.")


def _observe_run_trial(tracer, args, kwargs, result, duration):
    iterations = _arg(args, kwargs, 3, "iterations")
    tracer.counts["run_trial.iterations"] += iterations
    _kernel(tracer.counts, _arg(args, kwargs, 0, "m") + 1, 1, iterations)


def _observe_trajectory(tracer, args, kwargs, result, duration):
    tracer.counts["trajectory.steps"] += len(result) - 1


def _observe_find_fixed_points(tracer, args, kwargs, result, duration):
    tracer.counts["fixed_points.starts"] += _arg(args, kwargs, 1, "starts", 100)


def _observe_least_squares(tracer, args, kwargs, result, duration):
    tracer.counts["least_squares.nfev"] += result.nfev


def _observe_classify(tracer, args, kwargs, result, duration):
    tracer.counts["classify.sets_found"] += len(result.f_qso_sets or ())
    tracer.job_classified = True


OBSERVERS = {
    "operators.apply_unnormalized": _observe_apply_unnormalized,
    "operators.apply": _observe_apply,
    "dynamics.iterate_batch": _observe_iterate_batch,
    "analysis.run_trial": _observe_run_trial,
    "dynamics.trajectory": _observe_trajectory,
    "dynamics.find_fixed_points": _observe_find_fixed_points,
    "dynamics.least_squares": _observe_least_squares,
    "core.classify": _observe_classify,
}


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [name, start, child seconds, span index]
        self._bindings = []  # (namespace, attribute, original)
        self._job = -1
        self.names = {}
        self.spans = None
        self.recorded = []
        self.cycles = []
        self.job_classified = False
        self._reset()

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("qsodyn")
        modules = [importlib.import_module(f"qsodyn.{layer}") for layer in LAYERS]
        targets = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if layer in ONLY:
                    wanted = attr in ONLY[layer]
                else:
                    public = not attr.startswith("_") and inspect.isfunction(obj)
                    wanted = public and obj.__module__ == module.__name__ or attr in EXTRA.get(layer, ())
                if wanted:
                    targets.setdefault(id(obj), (obj, self._wrap(obj, f"{layer}.{attr}")))
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._bindings.append((namespace, attr, obj))
                    setattr(namespace, attr, targets[id(obj)][1])

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)
        self._bindings.clear()

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, raised=True)
                raise
            duration = leave(frame)
            if observe is not None:
                observe(self, args, kwargs, result, duration)
            return result

        return wrapper

    # --- spans ---------------------------------------------------------------

    def _reset(self) -> None:
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = _Counts()

    def _enter(self, name):
        index = None
        if self.spans is not None:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([self.names.setdefault(name, len(self.names)), self._job, parent, 0.0, 0.0])
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, raised=False) -> float:
        """Close a span and return its duration."""
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self_s = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        if name == "core.matches_partition" and self._stack and self._stack[-1][0] == "core.classify":
            self.counts["classify.partitions_tested"] += 1
        if raised and name.startswith("core.") and not (self._stack and self._stack[-1][0].startswith("core.")):
            self.counts["core.raised"] += 1
        if index is not None:
            self.spans[index][3:] = [start, end]
        return duration

    # --- cycles and jobs -----------------------------------------------------

    def begin_cycle(self, record_spans: bool) -> None:
        self._reset()
        self.spans = [] if record_spans else None
        if record_spans:
            self.recorded = self.spans

    def end_cycle(self) -> None:
        self.cycles.append({"stats": self.stats, "counts": dict(self.counts)})
        self.spans = None

    def begin_job(self, index: int):
        self._job = index
        self.job_classified = False
        return self._enter("job")

    def end_job(self, frame) -> None:
        self._leave(frame)
        if self.job_classified:
            self.counts["jobs_with_classify"] += 1

    def write_spans(self, path) -> None:
        """Save the first traced cycle's spans: name, job, parent span, start, end."""
        spans = np.array(self.recorded, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(list(self.names)), spans=spans)


class _Counts(dict):
    def __missing__(self, key):
        return 0


# --- per-layer metrics ----------------------------------------------------


PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("documents.load_document.self_s", "s", "lower"),
    ("documents.expand.calls", "count", "lower"),
    ("documents.expand.self_s", "s", "lower"),
    ("core.validate_stochastic.calls", "count", "lower"),
    ("core.validate_stochastic.self_s", "s", "lower"),
    ("core.require_valid.calls", "count", "lower"),
    ("core.classify.calls", "count", "lower"),
    ("core.classify.self_s", "s", "lower"),
    ("core.classify.calls_per_job", "1", "lower"),
    ("core.matches_partition.calls", "count", "lower"),
    ("core.classify.useful_ratio", "1", "higher"),
    ("core.renormalize.calls", "count", "lower"),
    ("core.renormalize.self_s", "s", "lower"),
    ("core.raised", "count", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.self_s", "s", "lower"),
    ("operators.apply.us_per_call.n3", "us", "lower"),
    ("operators.apply.us_per_call.n33", "us", "lower"),
    ("operators.apply_unnormalized.calls", "count", "lower"),
    ("operators.apply_unnormalized.self_s", "s", "lower"),
    ("operators.build_f_qso.calls", "count", "lower"),
    ("operators.build_f_qso.self_s", "s", "lower"),
    ("operators.step.point_steps", "count", "higher"),
    ("operators.step.flops_computed", "FLOP", "lower"),
    ("operators.step.bytes_computed", "B", "lower"),
    ("dynamics.trajectory.calls", "count", "lower"),
    ("dynamics.trajectory.self_s", "s", "lower"),
    ("dynamics.trajectory.steps", "count", "higher"),
    ("dynamics.trajectory.self_us_per_step", "us", "lower"),
    ("dynamics.cesaro_running.self_s", "s", "lower"),
    ("dynamics.convergence_report.self_s", "s", "lower"),
    ("dynamics.iterate_batch.self_s", "s", "lower"),
    ("dynamics.iterate_batch.gflops", "GFLOP/s", "higher"),
    ("dynamics.find_fixed_points.calls", "count", "lower"),
    ("dynamics.find_fixed_points.self_s", "s", "lower"),
    ("dynamics.least_squares.calls", "count", "lower"),
    ("dynamics.least_squares.nfev", "count", "lower"),
    ("dynamics.least_squares.self_s", "s", "lower"),
    ("dynamics.fixed_points.polish_per_start", "1", "lower"),
    ("analysis.conjecture_scan.self_s", "s", "lower"),
    ("analysis.run_trial.calls", "count", "lower"),
    ("analysis.run_trial.self_s", "s", "lower"),
    ("analysis.run_trial.us_per_iteration", "us", "lower"),
    ("analysis.sample_random_f_qso.self_s", "s", "lower"),
    ("analysis.count_first_row.self_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer not in ONLY] + [
    ("trace.job_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]

#: Per-layer metrics that must repeat exactly across runs with the same seed.
EXACT = [
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "FLOP", "B") or name.endswith(("calls_per_job", "useful_ratio", "polish_per_start"))
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(cycles: list[dict], extra_counts: dict) -> dict:
    """Per-cycle metrics: counts from the first traced cycle, times from the fastest traced cycle.

    Every traced cycle runs the same jobs, so counts repeat exactly; times
    take the minimum over cycles for the same reason end-to-end job times do.
    """
    first = cycles[0]
    stats, counts = first["stats"], dict(first["counts"])
    counts.update(extra_counts)

    def calls(name):
        return stats.get(name, [0])[0]

    def self_s(name):
        return min(c["stats"].get(name, [0, 0.0, 0.0])[2] for c in cycles)

    def count_s(key):
        return min(c["counts"].get(key, 0.0) for c in cycles)

    out = {}
    for name, unit, _ in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls(base)
        elif what == "self_s" and base in LAYERS:
            out[name] = min(sum(v[2] for k, v in c["stats"].items() if k.startswith(base + ".")) for c in cycles)
        elif what == "self_s":
            out[name] = self_s(base)
    out["cli.csv_bytes"] = counts.get("csv_bytes", 0)
    out["core.classify.calls_per_job"] = _ratio(calls("core.classify"), counts.get("jobs_with_classify", 0))
    out["core.classify.useful_ratio"] = _ratio(
        counts.get("classify.sets_found", 0), counts.get("classify.partitions_tested", 0)
    )
    out["core.raised"] = counts.get("core.raised", 0)
    for n in (3, 33):
        out[f"operators.apply.us_per_call.n{n}"] = 1e6 * _ratio(
            count_s(f"apply.n{n}.seconds"), counts.get(f"apply.n{n}.calls", 0)
        )
    out["operators.step.point_steps"] = counts.get("point_steps", 0)
    out["operators.step.flops_computed"] = counts.get("flops", 0)
    out["operators.step.bytes_computed"] = counts.get("bytes", 0)
    steps = counts.get("trajectory.steps", 0)
    out["dynamics.trajectory.steps"] = steps
    out["dynamics.trajectory.self_us_per_step"] = 1e6 * _ratio(self_s("dynamics.trajectory"), steps)
    out["dynamics.iterate_batch.gflops"] = 1e-9 * _ratio(
        counts.get("iterate_batch.flops", 0), self_s("dynamics.iterate_batch")
    )
    out["dynamics.least_squares.nfev"] = counts.get("least_squares.nfev", 0)
    out["dynamics.fixed_points.polish_per_start"] = _ratio(
        calls("dynamics.least_squares"), counts.get("fixed_points.starts", 0)
    )
    out["analysis.run_trial.us_per_iteration"] = 1e6 * _ratio(
        self_s("analysis.run_trial"), counts.get("run_trial.iterations", 0)
    )
    return out
