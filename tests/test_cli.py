"""Command-line surface: exit codes, CSV contracts, replay checks."""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qsodyn import (
    CubicMatrix,
    OperatorDocument,
    SingleMaleCoefficients,
    build_f_qso,
    build_fqso_m2,
    build_single_male,
    document_from_matrix,
    lyapunov_bound,
    sample_random_f_qso,
    save_document,
)
from qsodyn import analysis, cli, core, dynamics
from qsodyn.cli import main
from qsodyn.documents import MAX_N


@pytest.fixture
def m2_doc(tmp_path):
    path = tmp_path / "m2.json"
    save_document(document_from_matrix(build_fqso_m2(0.0, 0.5, 0.5)), path)
    return str(path)


@pytest.fixture
def single_male_doc(tmp_path):
    table = np.full((4, 6), 1.0 / 6.0)
    path = tmp_path / "sm5.json"
    save_document(document_from_matrix(build_single_male(SingleMaleCoefficients(table))), path)
    return str(path)


@pytest.fixture
def rps_doc(tmp_path):
    doc = OperatorDocument(kind="preset", n=3, payload={"name": "ganikhodzhaev_v0", "params": {}})
    path = tmp_path / "rps.json"
    save_document(doc, path)
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestValidate:
    def test_valid_document(self, m2_doc, capsys):
        assert main(["validate", m2_doc]) == 0
        out = capsys.readouterr().out
        assert "stochasticity: OK" in out
        assert "{2}" in out
        assert "N1=5" in out and "N1~=1" in out

    def test_invalid_row_sum(self, tmp_path, capsys):
        doc = OperatorDocument(
            kind="cubic",
            n=2,
            payload={"entries": [[0, 0, 0, 0.9], [0, 1, 0, 1.0], [1, 1, 0, 1.0]]},
        )
        path = tmp_path / "bad.json"
        save_document(doc, path)
        assert main(["validate", str(path)]) == 1
        assert "row_sum at (0,0)" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("  not json at all")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_near_one_warning(self, tmp_path, capsys):
        eps = 1e-10
        doc = OperatorDocument(
            kind="cubic",
            n=2,
            payload={
                "entries": [
                    [0, 0, 0, 1.0],
                    [1, 1, 0, 1.0],
                    [0, 1, 0, 1.0 - eps],
                    [0, 1, 1, eps],
                ]
            },
        )
        path = tmp_path / "near.json"
        save_document(doc, path)
        assert main(["validate", str(path)]) == 0
        assert "warning" in capsys.readouterr().out


def single_male_doc_of(tmp_path, n, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.standard_exponential((n - 2, n))
    table /= table.sum(axis=1, keepdims=True)
    path = tmp_path / f"sm{n}.json"
    save_document(document_from_matrix(build_single_male(SingleMaleCoefficients(table))), path)
    return str(path)


class TestBeyondSeventeenStates:
    """Female sets are found at any n, so validate and --reference auto treat every n alike."""

    def test_single_male_validate_lists_sets_and_bounds(self, tmp_path, capsys):
        assert main(["validate", single_male_doc_of(tmp_path, 20)]) == 0
        out = capsys.readouterr().out
        rest = ",".join(map(str, range(2, 20)))
        assert f"f-qso female sets: {{1}}, {{{rest}}}\n" in out
        assert "two-sex bounds (F={1}): N1 >= " in out and "VIOLATED" not in out

    def test_reference_auto_fills_distance_at_33_states(self, tmp_path, capsys):
        doc = single_male_doc_of(tmp_path, 33)
        out = tmp_path / "traj.csv"
        assert main(["trajectory", doc, "--start", "random:1", "--steps", "200", "--output", str(out)]) == 0
        assert capsys.readouterr().out.endswith("stop reason: converged\n")
        rows = read_rows(out)
        dists = [float(row[-1]) for row in rows[1:]]
        assert dists[-1] <= 1e-9 < min(dists[:-1])
        assert main(["replay", str(out), "--operator", doc]) == 0

    def test_edgeless_33_states_prints_count_and_components(self, tmp_path, capsys):
        p = np.zeros((33, 33, 33))
        p[:, :, 0] = 1.0
        path = tmp_path / "edgeless.json"
        save_document(document_from_matrix(CubicMatrix(p)), path)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        components = ", ".join(f"{{{i}}}/{{}}" for i in range(1, 33))
        assert f"f-qso female sets: {2**32 - 2}, not listed; pair-graph components (side/side): {components}\n" in out
        assert "two-sex bounds (F={1})" in out


class TestTrajectory:
    def test_csv_contract(self, m2_doc, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(
            ["trajectory", m2_doc, "--start", "0,0.5,0.5", "--steps", "10", "--output", str(out_csv)]
        )
        assert code == 0
        rows = read_rows(out_csv)
        assert rows[0] == ["step", "x_0", "x_1", "x_2", "phi", "phi_bound", "dist_max"]
        assert rows[1][1:4] == ["0.0", "0.5", "0.5"]
        assert rows[2][1:4] == ["0.5", "0.25", "0.25"]
        assert rows[2][4] == "0.0625"
        assert "converged" in capsys.readouterr().out

    def test_uniform_start(self, m2_doc, tmp_path):
        out_csv = tmp_path / "traj.csv"
        assert main(["trajectory", m2_doc, "--start", "uniform", "--steps", "3", "--output", str(out_csv)]) == 0
        first = read_rows(out_csv)[1]
        assert first[1] == first[2] == first[3] == repr(1 / 3)

    def test_off_simplex_start_fails(self, m2_doc, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code = main(
            ["trajectory", m2_doc, "--start", "0.5,0.6,0.1", "--steps", "5", "--output", str(out_csv)]
        )
        assert code == 1

    def test_random_start_is_seeded(self, m2_doc, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["trajectory", m2_doc, "--start", "random:5", "--steps", "4", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_trajectory(self, m2_doc, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        main(["trajectory", m2_doc, "--start", "random:9", "--steps", "12", "--output", str(out_csv)])
        assert main(["replay", str(out_csv), "--operator", m2_doc]) == 0

    def test_replay_detects_corruption(self, m2_doc, tmp_path):
        out_csv = tmp_path / "traj.csv"
        main(["trajectory", m2_doc, "--start", "uniform", "--steps", "6", "--output", str(out_csv)])
        rows = read_rows(out_csv)
        rows[2][1] = "0.123"
        with open(out_csv, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        assert main(["replay", str(out_csv), "--operator", m2_doc]) == 1


class TestPhiColumn:
    """Each phi cell is phi_F of its own row, bitwise; every F-QSO gets bound cells and the snap."""

    def cells(self, tmp_path, doc, n, seed):
        out = tmp_path / "traj.csv"
        argv = ["trajectory", doc, "--start", f"random:{seed}", "--steps", "60", "--reference", "none"]
        assert main(argv + ["--output", str(out)]) == 0
        assert main(["replay", str(out), "--operator", doc]) == 0
        rows = read_rows(out)[1:]
        return [(np.array([float(v) for v in row[1 : 1 + n]]), *row[1 + n :]) for row in rows]

    @pytest.mark.parametrize("n", [17, 33])
    def test_single_male_cells_are_the_per_row_sum(self, tmp_path, n):
        """Row sums of a column-major copy differ in the last bit at these n; the cells must not."""
        doc = single_male_doc_of(tmp_path, n)
        for seed in range(10):
            for x, phi, _, _ in self.cells(tmp_path, doc, n, seed):
                assert float(phi) == x[1] * x[2:].sum()

    def test_general_f_qso_cells_are_phi_f(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        save_document(document_from_matrix(build_f_qso(sample_random_f_qso(5, {2, 4}, seed=3))), path)
        for seed in range(5):
            rows = self.cells(tmp_path, str(path), 6, seed)
            assert len(rows) < 61 and "stop reason: converged" in capsys.readouterr().out
            for step, (x, phi, bound, _) in enumerate(rows):
                assert float(phi) == x[[2, 4]].sum() * x[[1, 3, 5]].sum()
                assert bound == repr(lyapunov_bound(step).value)

    def test_pair_graph_is_read_twice_per_trajectory_and_once_per_replay(self, tmp_path, monkeypatch):
        calls = []

        def counting(P):
            calls.append(P.n)
            return core_female_sets(P)

        core_female_sets = core.female_sets
        for module in (core, dynamics, analysis, cli):
            monkeypatch.setattr(module, "female_sets", counting)
        doc, out = single_male_doc_of(tmp_path, 9), str(tmp_path / "traj.csv")
        assert main(["trajectory", doc, "--start", "uniform", "--output", out]) == 0
        assert len(calls) <= 2
        calls.clear()
        assert main(["replay", out, "--operator", doc]) == 0
        assert len(calls) == 1


class TestFixedPoints:
    def test_m2_prints_rejected_algebraic_candidate(self, m2_doc, capsys):
        assert main(["fixed-points", m2_doc, "--starts", "20", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "REJECTED: not in simplex" in out
        assert "(-1.0, 1.0, 1.0)" in out
        assert "unique in-simplex fixed point" in out

    def test_rps_finds_barycenter(self, rps_doc, capsys):
        assert main(["fixed-points", rps_doc, "--starts", "80", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.3333333333333" in out

    def test_single_male_unique_vertex(self, single_male_doc, capsys):
        assert main(["fixed-points", single_male_doc, "--starts", "30", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "unique in-simplex fixed point: (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)" in out


class TestErgodic:
    def test_csv_and_replay(self, single_male_doc, tmp_path, capsys):
        out_csv = tmp_path / "erg.csv"
        assert main(
            ["ergodic", single_male_doc, "--start", "uniform", "--n", "512", "--output", str(out_csv)]
        ) == 0
        rows = read_rows(out_csv)
        assert rows[0] == ["n"] + [f"avg_{i}" for i in range(6)]
        assert [r[0] for r in rows[1:]] == ["1", "2", "4", "8", "16", "32", "64", "128", "256", "512"]
        final = np.array([float(v) for v in rows[-1][1:]])
        assert abs(final[0] - 1.0) < 0.05
        assert main(["replay", str(out_csv), "--operator", single_male_doc]) == 0


class TestConjecture:
    def test_theorem_regime_converges(self, capsys):
        code = main(["conjecture", "--m", "2", "--f", "2", "--trials", "100", "--seed", "1"])
        assert code == 0
        assert "converged: 100/100" in capsys.readouterr().out

    def test_csv_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                [
                    "conjecture", "--m", "4", "--f", "2,3", "--trials", "50",
                    "--seed", "7", "--csv", str(out),
                ]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_conjecture_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(
            [
                "conjecture", "--m", "3", "--f-policy", "random", "--trials", "20",
                "--seed", "2", "--csv", str(out),
            ]
        )
        assert main(
            ["replay", str(out), "--m", "3", "--iterations", "50", "--tol", "1e-8"]
        ) == 0

    @pytest.mark.parametrize("policy, m", [("all", 40), ("random", 40), ("random", 63)])
    def test_many_states_pick_a_subset_without_listing(self, tmp_path, policy, m):
        """2^m - 2 candidate sets: one index is unranked, the sets are never listed."""
        out = tmp_path / "scan.csv"
        start = time.perf_counter()
        assert main(["conjecture", "--m", str(m), "--trials", "1", "--f-policy", policy,
                     "--csv", str(out)]) == 0
        assert time.perf_counter() - start < 2.0
        assert main(["replay", str(out), "--m", str(m), "--iterations", "50", "--tol", "1e-8"]) == 0

    def test_trials_stop_at_the_vertex_whatever_the_iteration_count(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        start = time.perf_counter()
        assert main(["conjecture", "--m", "6", "--f", "1,2", "--trials", "5",
                     "--iterations", "1000000000", "--csv", str(out)]) == 0
        assert time.perf_counter() - start < 2.0
        assert "converged: 5/5" in capsys.readouterr().out
        start = time.perf_counter()
        assert main(["replay", str(out), "--m", "6", "--iterations", "1000000000", "--tol", "1e-8"]) == 0
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "args",
        [
            ["--f", "1"],
            ["--f-policy", "all"],
            ["--f-policy", "random"],
        ],
    )
    @pytest.mark.parametrize("m", [256, 2000])
    def test_huge_m_is_refused_before_allocation(self, capsys, args, m):
        start = time.perf_counter()
        assert main(["conjecture", "--m", str(m), "--trials", "1", *args]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_random_policy_from_64_states_is_a_usage_error(self, capsys):
        assert main(["conjecture", "--m", "64", "--trials", "1", "--f-policy", "random"]) == 2
        assert "below 64" in capsys.readouterr().err

    def test_replay_with_huge_m_is_refused_before_allocation(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["conjecture", "--m", "3", "--f", "1", "--trials", "2", "--csv", str(out)]) == 0
        start = time.perf_counter()
        assert main(["replay", str(out), "--m", "2000", "--iterations", "50", "--tol", "1e-8"]) == 2
        assert time.perf_counter() - start < 0.5
        assert f"limit of {MAX_N}" in capsys.readouterr().err

    def test_requires_f_or_policy(self, capsys):
        assert main(["conjecture", "--m", "3", "--trials", "5"]) == 2

    def test_bad_trials_is_usage_error(self):
        assert main(["conjecture", "--m", "3", "--f", "2", "--trials", "0"]) == 2

    def test_evidence_note_printed(self, capsys):
        main(["conjecture", "--m", "2", "--f", "2", "--trials", "2"])
        assert "note: randomized check of a theorem" in capsys.readouterr().out


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("ganikhodzhaev_v0", "ganikhodzhaev_v1", "ganikhodzhaev_lambda",
                     "fqso_m2", "single_male", "constant_m1"):
            assert name in out


class TestReplayDispatch:
    def test_unknown_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("foo,bar\n1,2\n")
        assert main(["replay", str(path)]) == 2

    def test_trajectory_replay_needs_operator(self, m2_doc, tmp_path):
        out_csv = tmp_path / "traj.csv"
        main(["trajectory", m2_doc, "--start", "uniform", "--steps", "3", "--output", str(out_csv)])
        assert main(["replay", str(out_csv)]) == 2


def write_rows(path, rows):
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


class TestReplayRejectsMalformedCsv:
    """Every replay path parses its numeric block once and exits 2 on bad cells."""

    def trajectory_csv(self, doc, tmp_path):
        out_csv = tmp_path / "traj.csv"
        assert main(["trajectory", doc, "--start", "random:3", "--steps", "6", "--output", str(out_csv)]) == 0
        return out_csv, read_rows(out_csv)

    def test_truncated_last_trajectory_row(self, m2_doc, tmp_path, capsys):
        out_csv, rows = self.trajectory_csv(m2_doc, tmp_path)
        rows[-1] = rows[-1][:2]
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", m2_doc]) == 2
        assert "cells, expected 7" in capsys.readouterr().err

    def test_non_numeric_trajectory_cell(self, m2_doc, tmp_path):
        out_csv, rows = self.trajectory_csv(m2_doc, tmp_path)
        rows[3][2] = "abc"
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", m2_doc]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", ""])
    def test_non_finite_or_empty_coordinate(self, m2_doc, tmp_path, cell):
        out_csv, rows = self.trajectory_csv(m2_doc, tmp_path)
        rows[2][1] = cell
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", m2_doc]) == 2

    def test_blank_row_inside_data(self, single_male_doc, tmp_path):
        out_csv, rows = self.trajectory_csv(single_male_doc, tmp_path)
        rows.insert(2, [])
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", single_male_doc]) == 2

    def test_huge_step_number_fails_the_replay(self, single_male_doc, tmp_path):
        """A step of 10**12 gets a bound of 0, which the stored bound contradicts: exit 1, no traceback."""
        out_csv, rows = self.trajectory_csv(single_male_doc, tmp_path)
        rows[2][0] = str(10**12)
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", single_male_doc]) == 1

    def test_blank_first_line(self, m2_doc, tmp_path):
        out_csv, _ = self.trajectory_csv(m2_doc, tmp_path)
        out_csv.write_text("\n" + out_csv.read_text())
        assert main(["replay", str(out_csv), "--operator", m2_doc]) == 2

    @pytest.mark.parametrize("start", ["random:4", "uniform"])
    def test_truncated_ergodic_row(self, rps_doc, tmp_path, start):
        """With a uniform start on the RPS preset (a fixed point) the old code passed the replay."""
        out_csv = tmp_path / "avg.csv"
        assert main(["ergodic", rps_doc, "--start", start, "--n", "16", "--output", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        rows[3] = rows[3][:2]
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 2

    def test_non_integer_ergodic_count(self, rps_doc, tmp_path):
        out_csv = tmp_path / "avg.csv"
        assert main(["ergodic", rps_doc, "--start", "random:4", "--n", "16", "--output", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        rows[2][0] = "2.5"
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 2

    def test_ergodic_count_off_the_schedule(self, rps_doc, tmp_path, capsys):
        """A last count of 10**12 is refused before any step is taken."""
        out_csv = tmp_path / "avg.csv"
        assert main(["ergodic", rps_doc, "--start", "random:4", "--n", "16", "--output", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        rows[2][0] = str(10**12)
        write_rows(out_csv, rows[:3])
        start = time.perf_counter()
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 2
        assert time.perf_counter() - start < 0.5
        assert "doubling schedule" in capsys.readouterr().err

    def test_ergodic_counts_must_be_the_written_schedule(self, rps_doc, tmp_path):
        out_csv = tmp_path / "avg.csv"
        assert main(["ergodic", rps_doc, "--start", "random:4", "--n", "16", "--output", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        assert [row[0] for row in rows[1:]] == ["1", "2", "4", "8", "16"]
        rows[2][0] = "3"
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 2
        write_rows(out_csv, rows[:2] + rows[3:])
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 2

    @pytest.mark.parametrize("row", [["0", "1", "2"], ["0", "x", "2", "3", "0.0", "1"], []])
    def test_malformed_conjecture_row(self, tmp_path, row):
        out = tmp_path / "scan.csv"
        assert main(["conjecture", "--m", "3", "--f", "2", "--trials", "3", "--csv", str(out)]) == 0
        rows = read_rows(out)
        rows.insert(2, row)
        write_rows(out, rows)
        assert main(["replay", str(out), "--m", "3", "--iterations", "50", "--tol", "1e-8"]) == 2

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("step," + "9" * 200_000 + "\n1,2\n")
        assert main(["replay", str(path)]) == 2


class TestMalformedDocumentsExit2:
    @pytest.mark.parametrize(
        "kind, n, payload",
        [
            ("f_qso", 3, {"f": [2], "mixed": [{"i": 2, "j": 1, "dist": {"a": 1}}]}),
            ("f_qso", 3, {"f": [2], "mixed": [{"i": [2], "j": 1, "dist": [0.0, 0.5, 0.5]}]}),
            ("f_qso", 3, {"f": [2.0], "mixed": [{"i": 2, "j": 1, "dist": [0.0, 0.5, 0.5]}]}),
            ("volterra_skew", 2, {"a": [{"x": 0}, {"y": 1}]}),
            ("cubic", 2, {"entries": [[0, 0, 0, 10**400]]}),
            ("preset", 3, {"name": "fqso_m2", "params": {"a": 10**400, "b": 0.0, "c": 0.0}}),
        ],
    )
    def test_validate_exits_2(self, tmp_path, capsys, kind, n, payload):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": kind, "n": n, "payload": payload}))
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, n, payload",
        [
            ("cubic", 1000, {"entries": [[0, 0, 0, 1.0]]}),
            ("f_qso", 10**9, {"f": [2], "mixed": [{"i": 2, "j": 1, "dist": [0.0, 0.5, 0.5]}]}),
        ],
    )
    def test_huge_state_count_is_refused_before_allocation(self, tmp_path, capsys, kind, n, payload):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": kind, "n": n, "payload": payload}))
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        assert f"from 2 to {MAX_N}" in capsys.readouterr().err

    @pytest.mark.parametrize("n, rows", [(3, 259), (4, 1), (4, 3)])
    def test_single_male_table_rows_off_declared_n_build_nothing(self, tmp_path, monkeypatch, capsys, n, rows):
        """A table whose rows do not match n - 2 (259 x 261 under n = 3) is refused before the builder runs."""
        def refuse(spec):
            raise AssertionError("the builder ran for a mismatched table")

        monkeypatch.setattr("qsodyn.operators.build_f_qso", refuse)
        table = [[1.0] + [0.0] * (rows + 1)] * rows
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": "preset", "n": n,
                                    "payload": {"name": "single_male", "params": {"table": table}}}))
        assert main(["validate", str(path)]) == 2
        assert f"table has {rows} rows" in capsys.readouterr().err

    def test_conjecture_needs_two_states(self):
        assert main(["conjecture", "--m", "1", "--f-policy", "all", "--trials", "2"]) == 2


class TestParserReuse:
    """``main`` builds the parser once per process; reusing it changes no result."""

    def _fresh(self, argv, capsys):
        cli.build_parser.cache_clear()
        code = main(argv)
        return code, capsys.readouterr()

    def test_two_commands_back_to_back(self, rps_doc, m2_doc, capsys):
        runs = [["validate", m2_doc], ["fixed-points", rps_doc, "--starts", "20", "--seed", "1"], ["validate", m2_doc]]
        expected = [self._fresh(argv, capsys) for argv in runs]
        cli.build_parser.cache_clear()
        got = []
        for argv in runs:
            code = main(argv)
            got.append((code, capsys.readouterr()))
        assert got == expected
        assert cli.build_parser.cache_info().misses == 1

    def test_usage_error_then_valid_command(self, rps_doc, capsys):
        expected = self._fresh(["fixed-points", rps_doc, "--seed", "3"], capsys)
        for bad in (["no-such-command"], ["fixed-points", rps_doc, "--starts", "many"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert "usage: qsodyn" in capsys.readouterr().err
        assert (main(["fixed-points", rps_doc, "--seed", "3"]), capsys.readouterr()) == expected
        assert "starts=100, seed=3" in expected[1].out

    def test_help_is_unchanged(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == TOP_LEVEL_HELP
        for command in ("validate", "trajectory", "fixed-points", "ergodic", "conjecture", "presets", "replay"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            reused = capsys.readouterr().out
            with pytest.raises(SystemExit):
                cli.build_parser.__wrapped__().parse_args([command, "--help"])
            assert reused == capsys.readouterr().out


TOP_LEVEL_HELP = """\
usage: qsodyn [-h]
              {validate,trajectory,fixed-points,ergodic,conjecture,presets,replay}
              ...

Quadratic stochastic operators on the simplex: validation, dynamics, scanning.

positional arguments:
  {validate,trajectory,fixed-points,ergodic,conjecture,presets,replay}
    validate            stochasticity, classification and first-row counts
    trajectory          iterate an operator and write per-step CSV
    fixed-points        multistart fixed-point search
    ergodic             running Cesaro averages at a logarithmic schedule
    conjecture          randomized check of the two-sex convergence theorem
    presets             list the named operators
    replay              recompute an emitted CSV and check consistency

options:
  -h, --help            show this help message and exit
"""


class TestEntryPoint:
    def test_module_invocation(self, m2_doc):
        """python -m qsodyn works and respects the exit-code contract."""
        proc = subprocess.run(
            [sys.executable, "-m", "qsodyn", "validate", m2_doc],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "stochasticity: OK" in proc.stdout

    def test_fixed_points_never_loads_scipy_optimize(self, rps_doc):
        """No command loads scipy.optimize: the fixed-point polish is numpy Gauss-Newton."""
        probe = (
            "import sys\n"
            "import qsodyn.cli\n"
            "print('scipy' in sys.modules, 'scipy.optimize' in sys.modules, file=sys.stderr)\n"
            "qsodyn.cli.main(['fixed-points', sys.argv[1], '--starts', '20', '--seed', '1'])\n"
            "print('scipy.optimize' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, rps_doc], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr.split() == ["True", "False", "False"]
        assert proc.stdout == (
            "multistart search: starts=20, seed=1\n"
            "  (0.0, 0.0, 1.0) residual=0.000e+00 [in simplex]\n"
            "  (0.0, 1.0, 0.0) residual=0.000e+00 [in simplex]\n"
            "  (0.3333333333333333, 0.3333333333333333, 0.3333333333333333) residual=0.000e+00 [in simplex]\n"
            "  (1.0, 0.0, 0.0) residual=0.000e+00 [in simplex]\n"
        )

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsodyn", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
