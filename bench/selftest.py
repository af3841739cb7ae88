"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/selftest.py     (or: python3 bench/selftest.py)

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no operation fails, that the per-layer counts repeat exactly across
two traced runs with the same seed, and that the command refuses to run
without the program's sources.  The file name keeps it out of the
repository's default pytest collection.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return done


def result(done) -> tuple[dict, str]:
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.strip().splitlines()
    out = json.loads(last)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, done.stdout
    return out, "\n".join(lines)


def printed(text: str, name: str, unit: str) -> bool:
    """True if a line reads ``<name> = <number> <unit>``, optionally followed by a note."""
    return re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}( \(.*\))?$", text, re.M) is not None


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    out, text = result(bench(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    for part in workloads.WORKLOADS[workload]:
        assert printed(text, *workloads.WORK_UNITS[part]), part
    assert printed(text, "failed_ratio", "1") and "failed_ratio = 0 1 " in text
    for name, unit in expected.items():
        assert printed(text, name, unit), name
    assert '"git_sha"' in text and '"blas_threads"' in text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, text = result(bench(workload, trace=1))
    second, _ = result(bench(workload, trace=1))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for name in tracer.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    for name, value in first["metrics"].items():
        assert printed(text, name, value["unit"]), name
    assert first["metrics"]["cli.main.calls"]["value"] > 0
    assert first["metrics"]["operators.step.point_steps"]["value"] > 0


def test_refuses_without_sources():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("survey", trace=0, cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
