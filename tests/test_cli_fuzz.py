"""Fuzzing the command line: malformed documents and CSVs never raise.

Every input, however broken, must end in an exit code of the contract
(0 success, 1 domain failure, 2 usage or parse error).  Inputs are valid
documents and CSVs with a few values damaged.  State counts stay at
n <= 6, so that no example allocates a large cube.
"""

import contextlib
import copy
import csv
import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import (
    OperatorDocument,
    SingleMaleCoefficients,
    build_fqso_m2,
    build_single_male,
    document_from_matrix,
)
from qsodyn.cli import main

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.integers(-2, 6),
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


def document(kind: str, n: int, payload: dict) -> dict:
    return {"schema_version": "1", "kind": kind, "n": n, "payload": payload}


def as_json(doc: OperatorDocument) -> dict:
    return document(doc.kind, doc.n, doc.payload)


#: One valid document of each kind; the fuzzer damages copies of these.
VALID = [
    as_json(document_from_matrix(build_fqso_m2(0.2, 0.5, 0.3))),
    document("f_qso", 4, {"f": [2, 3], "mixed": [
        {"i": 2, "j": 1, "dist": [0.25, 0.25, 0.25, 0.25]},
        {"i": 3, "j": 1, "dist": [0.5, 0.5, 0.0, 0.0]},
    ]}),
    document("volterra_skew", 3, {"a": [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]}),
    document("preset", 3, {"name": "ganikhodzhaev_lambda", "params": {"lam": 0.5}}),
    document("preset", 3, {"name": "fqso_m2", "params": {"a": 0.0, "b": 0.5, "c": 0.5}}),
    document("preset", 4, {"name": "single_male", "params": {"table": [[0.25] * 4] * 2}}),
]


def positions(obj, prefix=()):
    """Paths to every value nested in a JSON object, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from positions(value, prefix + (key,))


@st.composite
def documents(draw):
    """A valid document with up to three values replaced by junk or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(positions(doc))))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if draw(st.booleans()):
            # An int beyond float range, but never as the state count n.
            parent[path[-1]] = draw(JUNK if path == ("n",) else st.one_of(JUNK, st.just(10**400)))
        else:
            del parent[path[-1]]
    return doc


COMMANDS = [
    ["validate"],
    ["trajectory", "--start", "uniform", "--steps", "5"],
    ["fixed-points", "--starts", "3"],
    ["ergodic", "--start", "uniform", "--n", "8"],
]


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(doc=st.one_of(documents(), JUNK), command=st.sampled_from(COMMANDS))
@settings(max_examples=150, deadline=None)
def test_malformed_documents_keep_the_exit_code_contract(workdir, doc, command):
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], path, *command[1:]]
    if command[0] in ("trajectory", "ergodic"):
        argv += ["--output", workdir / "out.csv"]
    assert run(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def emitted(workdir):
    """One CSV of each replayable kind, written by the CLI itself."""
    operator = workdir / "sm.json"
    table = [[0.25, 0.25, 0.25, 0.25]] * 2
    P = build_single_male(SingleMaleCoefficients(table))
    operator.write_text(json.dumps(as_json(document_from_matrix(P))))
    traj, erg, scan = workdir / "traj.csv", workdir / "erg.csv", workdir / "scan.csv"
    assert run(["trajectory", operator, "--start", "random:1", "--steps", "6", "--output", traj]) == 0
    assert run(["ergodic", operator, "--start", "random:1", "--n", "9", "--output", erg]) == 0
    assert run(["conjecture", "--m", "3", "--f-policy", "random", "--trials", "4", "--csv", scan]) == 0
    scan_args = ["--m", "3", "--iterations", "50", "--tol", "1e-8"]
    return [(traj, ["--operator", operator]), (erg, ["--operator", operator]), (scan, scan_args)]


#: Replacement cells.  No large valid count: an ergodic replay iterates up to its last count.
CELLS = st.sampled_from(
    ["", "abc", "nan", "NaN", "inf", "-inf", "1e999", "-1", "0", "2.5", "1;2", "99999999999999999999999"]
)


@st.composite
def mutations(draw, rows):
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["cut", "extend", "blank", "cell", "drop"]))
        if action == "cut":
            rows[r] = rows[r][: draw(st.integers(0, max(len(rows[r]) - 1, 0)))]
        elif action == "extend":
            rows[r].append(draw(CELLS))
        elif action == "blank":
            rows.insert(r, [])
        elif action == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELLS)
        elif action == "drop" and len(rows) > 1:
            del rows[r]
    return rows


@given(data=st.data(), which=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_malformed_csvs_keep_the_exit_code_contract(workdir, emitted, data, which):
    source, extra = emitted[which]
    with open(source, newline="") as handle:
        rows = list(csv.reader(handle))
    path = workdir / "mutated.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(data.draw(mutations(rows)))
    assert run(["replay", path, *extra]) in (0, 1, 2)


def test_fuzz_fixture_replays_cleanly(emitted):
    for source, extra in emitted:
        assert run(["replay", source, *extra]) == 0

