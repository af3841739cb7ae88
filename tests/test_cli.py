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
    SkewMatrix,
    apply_normalized,
    build_fqso_m2,
    build_single_male,
    cubic_from_skew,
    document_from_matrix,
    lyapunov_bound,
    sample_random_f_qso,
    save_document,
)
from qsodyn import cli, core, documents, dynamics
from qsodyn.cli import main
from qsodyn.documents import MAX_N

from helpers import random_simplex, watch_orbits


@pytest.fixture
def m2_doc(tmp_path):
    path = tmp_path / "m2.json"
    save_document(document_from_matrix(build_fqso_m2(0.0, 0.5, 0.5)), path)
    return str(path)


@pytest.fixture
def single_male_doc(tmp_path):
    table = np.full((4, 6), 1.0 / 6.0)
    path = tmp_path / "sm5.json"
    save_document(document_from_matrix(build_single_male(table)), path)
    return str(path)


@pytest.fixture
def rps_doc(tmp_path):
    doc = OperatorDocument(kind="preset", n=3, payload={"name": "ganikhodzhaev_v0", "params": {}})
    path = tmp_path / "rps.json"
    save_document(doc, path)
    return str(path)


@pytest.fixture
def blend_doc(tmp_path):
    doc = OperatorDocument(kind="preset", n=3, payload={"name": "ganikhodzhaev_lambda", "params": {"lam": 0.5}})
    path = tmp_path / "blend.json"
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

    def test_near_one_warning_above_one(self, tmp_path, capsys):
        """An entry of 1 + 5e-13 validates (inside TOL_SUM); it was counted in neither N1 nor N1~, without a warning."""
        p = build_fqso_m2(0.2, 0.5, 0.3).p.copy()
        p[0, 0, 0] = 1.0 + 5e-13
        path = tmp_path / "above.json"
        save_document(document_from_matrix(CubicMatrix(p)), path)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning: first-row entry at (0,0) is within 1e-09 of 1 but not exactly 1" in out
        assert "first row: N1=4, N1~=2, total pairs=6" in out


def single_male_doc_of(tmp_path, n, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.standard_exponential((n - 2, n))
    table /= table.sum(axis=1, keepdims=True)
    path = tmp_path / f"sm{n}.json"
    save_document(document_from_matrix(build_single_male(table)), path)
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

    def test_nan_tolerance_is_a_usage_error(self, m2_doc, tmp_path, capsys):
        """With a NaN tol the run could never converge, and would not say so."""
        out_csv = tmp_path / "traj.csv"
        argv = ["trajectory", m2_doc, "--start", "uniform", "--reference", "vertex0", "--output", str(out_csv)]
        assert main([*argv, "--tol", "nan"]) == 2
        assert "NaN" in capsys.readouterr().err and not out_csv.exists()

    def test_uniform_start(self, m2_doc, tmp_path):
        out_csv = tmp_path / "traj.csv"
        assert main(["trajectory", m2_doc, "--start", "uniform", "--steps", "3", "--output", str(out_csv)]) == 0
        first = read_rows(out_csv)[1]
        assert first[1] == first[2] == first[3] == repr(1 / 3)

    def test_step_count_beyond_the_float_budget_is_a_usage_error(self, rps_doc, tmp_path, capsys):
        """10**12 steps grew the row list until memory ran out; now refused before any step."""
        out_csv = tmp_path / "t.csv"
        start = time.perf_counter()
        argv = ["trajectory", rps_doc, "--start", "0.2,0.3,0.5", "--steps", "1000000000000", "--output", str(out_csv)]
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error: max_steps must be from 1 to 5592404 at n=3") and "Traceback" not in err
        assert not out_csv.exists()

    def test_off_simplex_start_fails(self, m2_doc, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(
            ["trajectory", m2_doc, "--start", "0.5,0.6,0.1", "--steps", "5", "--output", str(out_csv)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: not a simplex point") and not out_csv.exists()

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

    def test_replay_refuses_an_invalid_operator(self, tmp_path, capsys):
        """The kernel reproduces every row, but a cube that fails stochasticity vouches for nothing."""
        p = build_fqso_m2(0.0, 0.5, 0.5).p.copy()
        p[0, 0, 0] = 0.5
        P = CubicMatrix(p)
        doc, out_csv = str(tmp_path / "bad.json"), tmp_path / "traj.csv"
        save_document(document_from_matrix(P), doc)
        rows = [np.full(3, 1 / 3)]
        for _ in range(3):
            rows.append(apply_normalized(P, rows[-1]))
        with open(out_csv, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["step", "x_0", "x_1", "x_2", "phi", "phi_bound", "dist_max"])
            writer.writerows([str(step), *map(repr, x.tolist()), "", "", ""] for step, x in enumerate(rows))
        assert main(["trajectory", doc, "--start", "uniform", "--output", str(tmp_path / "t.csv")]) == 1
        assert main(["replay", str(out_csv), "--operator", doc]) == 1
        assert "row_sum at (0,0,None)" in capsys.readouterr().err


def write_rows_one_by_one(path, traj, n):
    """The trajectory CSV as the per-row writer built it: the oracle of the column-wise writer."""
    dists = traj.dist_to_limit.tolist() if traj.dist_to_limit is not None else None
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["step"] + [f"x_{i}" for i in range(n)] + ["phi", "phi_bound", "dist_max"])
        for step, (coords, phi) in enumerate(zip(traj.coords.tolist(), traj.lyapunov_values.tolist())):
            row = [str(step)] + [repr(v) for v in coords]
            row.append("" if np.isnan(phi) else repr(phi))
            row.append(repr(float(lyapunov_bound(step))) if traj.females is not None else "")
            row.append(repr(dists[step]) if dists is not None else "")
            writer.writerow(row)


@pytest.fixture
def skew_doc(tmp_path):
    """The cyclic Volterra skew with |a| = 0.5: no row of a 3,000-step orbit from 0.2,0.3,0.5 repeats."""
    a = [[0.0, 0.5, -0.5], [-0.5, 0.0, 0.5], [0.5, -0.5, 0.0]]
    path = tmp_path / "skew.json"
    save_document(OperatorDocument(kind="volterra_skew", n=3, payload={"a": a}), path)
    return str(path)


@pytest.fixture
def two_state_doc(tmp_path):
    """An n = 2 cube: phi is undefined, so every phi cell is blank."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 1] = 1.0
    p[0, 1] = p[1, 0] = [0.7, 0.3]
    path = tmp_path / "two.json"
    save_document(document_from_matrix(CubicMatrix(p)), path)
    return str(path)


class TestColumnWriter:
    """``trajectory`` formats each distinct row once and writes by blocks; the bytes are the per-row writer's."""

    @pytest.mark.parametrize(
        "doc, start, extra, rows",
        [
            ("rps_doc", "0.2,0.3,0.5", ["--steps", "2041"], 2042),  # Volterra: empty bound cells
            ("single_male_doc", "random:3", ["--reference", "none", "--steps", "200"], None),  # two-sex: bound cells
            ("m2_doc", "uniform", ["--reference", "vertex0", "--tol", "1e-12"], None),  # distance cells
            ("rps_doc", "1.0,-0.0,0.0", ["--steps", "30"], 31),  # rows 0 and 1 differ only in the sign of a zero
            ("two_state_doc", "0.3,0.7", ["--steps", "100"], 101),  # blank phi cells
            ("blend_doc", "0.2,0.3,0.5", ["--steps", "2000"], 2001),  # closes a cycle of period 6
            ("rps_doc", "0.2,0.3,0.5", ["--steps", "10000"], 10001),  # 260 distinct rows
            ("skew_doc", "0.2,0.3,0.5", ["--steps", "3000"], 3001),  # no row repeats
        ],
    )
    def test_bytes_match_the_per_row_writer(self, request, tmp_path, doc, start, extra, rows):
        path = request.getfixturevalue(doc)
        out, expected = tmp_path / "t.csv", tmp_path / "expected.csv"
        assert main(["trajectory", path, "--start", start, *extra, "--output", str(out)]) == 0
        args = cli.build_parser().parse_args(["trajectory", path, "--start", start, *extra, "--output", str(out)])
        P = documents.expand(documents.load_document(path))
        traj = dynamics.trajectory(
            P, cli._parse_start(start, P.n), args.steps, tol=args.tol, reference=cli._resolve_reference(args.reference, P)
        )
        write_rows_one_by_one(expected, traj, P.n)
        assert out.read_bytes() == expected.read_bytes()
        assert rows is None or len(read_rows(out)) == rows + 1
        assert any(row[-1] for row in read_rows(out)[1:]) == (traj.dist_to_limit is not None)

    def test_cases_reach_what_they_name(self, rps_doc, blend_doc, two_state_doc, skew_doc, tmp_path):
        """The -0.0 start is written apart from 0.0, n = 2 leaves phi blank, the blend ends on a 6-cycle,
        the long RPS run repeats most rows and the skew run none."""

        def written(doc, start, steps):
            out = tmp_path / "t.csv"
            assert main(["trajectory", doc, "--start", start, "--steps", str(steps), "--output", str(out)]) == 0
            return [tuple(row[1:]) for row in read_rows(out)[1:]]

        first, second = written(rps_doc, "1.0,-0.0,0.0", 3)[:2]
        assert (first[1], second[1]) == ("-0.0", "0.0") and first[:1] + first[2:] == second[:1] + second[2:]
        assert {row[2] for row in written(two_state_doc, "0.3,0.7", 100)} == {""}
        tail = written(blend_doc, "0.2,0.3,0.5", 2000)[-13:]
        assert tail[:6] == tail[6:12] and len(set(tail[:6])) == 6
        assert len(set(written(rps_doc, "0.2,0.3,0.5", 10000))) == 260
        assert len(set(written(skew_doc, "0.2,0.3,0.5", 3000))) == 3001

    def test_blocks_join_without_a_seam(self, rps_doc, tmp_path, monkeypatch):
        """Rows are formatted and written ``WRITE_ROWS`` at a time; a block edge changes no byte."""
        out, small = tmp_path / "t.csv", tmp_path / "small.csv"
        argv = ["trajectory", rps_doc, "--start", "0.2,0.3,0.5", "--steps", "1000"]
        assert main(argv + ["--output", str(out)]) == 0
        monkeypatch.setattr(cli, "WRITE_ROWS", 7)
        assert main(argv + ["--output", str(small)]) == 0
        assert small.read_bytes() == out.read_bytes()


class TestPhiColumn:
    """Each phi cell is phi_F of its own row, bitwise; every F-QSO gets bound cells and the snap."""

    def cells(self, tmp_path, doc, n, seed):
        out = tmp_path / "traj.csv"
        argv = ["trajectory", doc, "--start", f"random:{seed}", "--steps", "60", "--reference", "none"]
        assert main(argv + ["--output", str(out)]) == 0
        assert main(["replay", str(out), "--operator", doc]) == 0
        rows = [(np.array([float(v) for v in row[1 : 1 + n]]), *row[1 + n :]) for row in read_rows(out)[1:]]
        assert np.array_equal(rows[0][0], random_simplex(np.random.default_rng(seed), n))  # the start, bitwise
        return rows

    @pytest.mark.parametrize("n", [17, 33])
    def test_single_male_cells_are_the_per_row_sum(self, tmp_path, n):
        """Row sums of a column-major copy differ in the last bit at these n; the cells must not."""
        doc = single_male_doc_of(tmp_path, n)
        for seed in range(10):
            for x, phi, _, _ in self.cells(tmp_path, doc, n, seed):
                assert float(phi) == x[1] * x[2:].sum()

    def test_general_f_qso_cells_are_phi_f(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        save_document(document_from_matrix(sample_random_f_qso(5, {2, 4}, seed=3)), path)
        for seed in range(5):
            rows = self.cells(tmp_path, str(path), 6, seed)
            assert len(rows) < 61 and "stop reason: converged" in capsys.readouterr().out
            for step, (x, phi, bound, _) in enumerate(rows):
                assert float(phi) == x[[2, 4]].sum() * x[[1, 3, 5]].sum()
                assert bound == repr(lyapunov_bound(step))


class TestOperatorFacts:
    def test_each_command_computes_each_fact_at_most_once(self, m2_doc, tmp_path, monkeypatch):
        """Stochasticity is checked once, and the pair graph read at most once, per command."""
        checks, graphs = [], []
        validate, female_sets = core.validate_stochastic, core.FemaleSets
        monkeypatch.setattr(core, "validate_stochastic", lambda P: checks.append(P) or validate(P))
        monkeypatch.setattr(core, "FemaleSets", lambda *args: graphs.append(args) or female_sets(*args))
        traj, erg = str(tmp_path / "traj.csv"), str(tmp_path / "erg.csv")
        commands = [
            (["validate", m2_doc], 1),
            (["trajectory", m2_doc, "--start", "uniform", "--output", traj], 1),
            (["fixed-points", m2_doc, "--starts", "5"], 1),
            (["ergodic", m2_doc, "--start", "uniform", "--n", "8", "--output", erg], 0),
            (["replay", traj, "--operator", m2_doc], 1),
            (["replay", erg, "--operator", m2_doc], 0),
        ]
        for argv, reads in commands:
            checks.clear()
            graphs.clear()
            assert main(argv) == 0
            assert (len(checks), len(graphs)) == (1, reads), argv


    def test_volterra_fixed_points_classify_once(self, rps_doc, monkeypatch):
        """The routing test and the skew form read one class report, so a Volterra ``fixed-points`` computes it once."""
        calls, classify = [], core.classify
        monkeypatch.setattr(core, "classify", lambda P: calls.append(P) or classify(P))
        for argv in (["fixed-points", rps_doc], ["validate", rps_doc]):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == 1, argv


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

    @pytest.mark.parametrize("kind", ["f_qso", "cubic", "fqso_m2", "single_male"])
    def test_two_sex_documents_print_the_certified_vertex(self, kind, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "find_fixed_points", None)  # the proof answers: no search runs
        payloads = {
            "f_qso": (4, {"f": [2], "mixed": [{"i": 2, "j": 1, "dist": [0.5, 0.25, 0.25, 0.0]},
                                             {"i": 2, "j": 3, "dist": [0.25, 0.25, 0.25, 0.25]}]}),
            "fqso_m2": (3, {"name": "fqso_m2", "params": {"a": 0.2, "b": 0.5, "c": 0.3}}),
            "single_male": (4, {"name": "single_male", "params": {"table": [[0.25] * 4] * 2}}),
        }
        path = tmp_path / "doc.json"
        if kind == "cubic":
            save_document(document_from_matrix(sample_random_f_qso(5, {2, 4}, seed=3)), path)
        else:
            n, payload = payloads[kind]
            path.write_text(json.dumps({"schema_version": "1", "kind": "preset" if "name" in payload else kind,
                                        "n": n, "payload": payload}))
        assert main(["fixed-points", str(path)]) == 0
        out = capsys.readouterr().out
        n = 6 if kind == "cubic" else payloads[kind][0]
        vertex = "(" + ", ".join(["1.0"] + ["0.0"] * (n - 1)) + ")"
        assert out.startswith(
            "two-sex operator: the vertex is the only fixed point in the simplex (proved):\n"
            f"  {vertex} residual=0.000e+00 [in simplex]\n"
        )
        assert out.endswith(f"unique in-simplex fixed point: {vertex}\n") and "multistart" not in out

    def test_volterra_documents_print_the_exact_block(self, rps_doc, tmp_path, capsys):
        assert main(["fixed-points", rps_doc, "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            "Volterra operator: exact fixed points, one bordered solve on each of 7 faces:\n"
            "  (0.0, 0.0, 1.0) residual=0.000e+00 [in simplex]\n"
            "  (0.0, 1.0, 0.0) residual=0.000e+00 [in simplex]\n"
            "  (0.3333333333333333, 0.3333333333333333, 0.3333333333333333) residual=0.000e+00 [in simplex]\n"
            "  (1.0, 0.0, 0.0) residual=0.000e+00 [in simplex]\n"
        )
        path = tmp_path / "zero.json"
        save_document(document_from_matrix(cubic_from_skew(SkewMatrix(np.zeros((3, 3))))), path)
        assert main(["fixed-points", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("[in simplex]") == 3 and "multistart" not in out
        assert out.endswith(
            "  face {0,1}: degenerate, not solved to one isolated point\n"
            "  face {0,2}: degenerate, not solved to one isolated point\n"
            "  face {1,2}: degenerate, not solved to one isolated point\n"
            "  face {0,1,2}: degenerate, not solved to one isolated point\n"
        )

    def test_blend_prints_the_vertices_and_claims_no_uniqueness(self, tmp_path, capsys):
        """Each blend vertex has p[k, k, k] = 1, so it is fixed exactly; the search finds only the barycentre."""
        doc = OperatorDocument(kind="preset", n=3, payload={"name": "ganikhodzhaev_lambda", "params": {"lam": 0.4}})
        save_document(doc, tmp_path / "blend.json")
        assert main(["fixed-points", str(tmp_path / "blend.json")]) == 0
        assert capsys.readouterr().out == (
            "multistart search: starts=100, seed=0\n"
            "  (0.0, 0.0, 1.0) residual=0.000e+00 [in simplex]\n"
            "  (0.0, 1.0, 0.0) residual=0.000e+00 [in simplex]\n"
            "  (0.3333333333333334, 0.33333333333333326, 0.3333333333333333) residual=0.000e+00 [in simplex]\n"
            "  (1.0, 0.0, 0.0) residual=0.000e+00 [in simplex]\n"
            "4 in-simplex fixed point(s) found; a search does not prove the list complete\n"
        )

    def test_volterra_above_the_exact_cap_runs_the_search(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "fixed_points_volterra", None)
        a = np.triu(np.random.default_rng(17).uniform(-1.0, 1.0, (17, 17)), 1)
        path = tmp_path / "skew17.json"
        save_document(document_from_matrix(cubic_from_skew(SkewMatrix(a - a.T))), path)
        assert main(["fixed-points", str(path), "--starts", "4", "--seed", "2"]) == 0
        assert capsys.readouterr().out.startswith("multistart search: starts=4, seed=2\n")

    @pytest.mark.parametrize("starts", [10**12, 2**24 // 9 + 1, 0])
    def test_start_count_beyond_the_block_cap_is_refused_before_drawing(self, rps_doc, capsys, starts):
        """The kernel's (starts, n*n) intermediate may hold at most 2**24 floats."""
        start = time.perf_counter()
        assert main(["fixed-points", rps_doc, "--starts", str(starts)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error: starts must be from 1 to 1864135 at n=3") and "Traceback" not in err


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

    def test_count_beyond_the_step_budget_is_a_usage_error(self, rps_doc, tmp_path, capsys):
        """10**12 points, weeks of steps before the CSV is opened, are refused before the first step."""
        out_csv = tmp_path / "a.csv"
        start = time.perf_counter()
        assert main(["ergodic", rps_doc, "--start", "uniform", "--n", "1000000000000", "--output", str(out_csv)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith(f"error: the last count must be at most {core.MAX_STEPS}") and "Traceback" not in err
        assert not out_csv.exists()


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

    def test_nan_tolerance_is_a_usage_error(self, tmp_path, capsys):
        """A NaN tol counted every trial as unconverged at exit 0, and every replayed row as a mismatch."""
        out = tmp_path / "scan.csv"
        assert main(["conjecture", "--m", "4", "--trials", "3", "--f", "1", "--tol", "nan", "--csv", str(out)]) == 2
        assert "NaN" in capsys.readouterr().err and not out.exists()
        assert main(["conjecture", "--m", "4", "--trials", "3", "--f", "1", "--csv", str(out)]) == 0
        assert main(["replay", str(out), "--m", "4", "--iterations", "50", "--tol", "nan"]) == 2
        assert "NaN" in capsys.readouterr().err

    def test_replay_with_no_iterations_is_a_usage_error(self, tmp_path, capsys):
        """It exited 1 with one mismatch per row, while ``conjecture --iterations 0`` exits 2."""
        out = tmp_path / "scan.csv"
        assert main(["conjecture", "--m", "4", "--trials", "3", "--f", "1", "--csv", str(out)]) == 0
        assert main(["conjecture", "--m", "4", "--trials", "3", "--f", "1", "--iterations", "0"]) == 2
        assert main(["replay", str(out), "--m", "4", "--iterations", "0", "--tol", "1e-8"]) == 2
        assert "iterations must be >= 1" in capsys.readouterr().err

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

    def test_huge_scan_is_refused_before_the_first_trial(self, tmp_path, capsys):
        """10**9 trials grew the result list until memory ran out; now the step budget refuses them at once."""
        out = tmp_path / "scan.csv"
        start = time.perf_counter()
        assert main(["conjecture", "--m", "4", "--f", "2", "--trials", "1000000000", "--csv", str(out)]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: a scan may run at most {core.MAX_STEPS} steps")
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize(
        "pick, head",
        [
            (
                ["--f", "2,3"],
                [
                    "scan: m=4 policy=fixed F={2,3} trials=6 iterations=3 tol=1e-08 seed=7",
                    "converged: 0/6  max final distance: 1.083e-03",
                    "worst trial: #5 seed=1002604896 F=2;3 steps=-1 final_dist=1.083e-03",
                ],
            ),
            (
                ["--f-policy", "all"],
                [
                    "scan: m=4 policy=all F=- trials=6 iterations=3 tol=1e-08 seed=7",
                    "converged: 0/6  max final distance: 7.641e-04",
                    "worst trial: #0 seed=2083679832 F=1 steps=-1 final_dist=7.641e-04",
                ],
            ),
            (
                ["--f-policy", "random"],
                [
                    "scan: m=4 policy=random F=- trials=6 iterations=3 tol=1e-08 seed=7",
                    "converged: 0/6  max final distance: 3.857e-04",
                    "worst trial: #1 seed=369571992 F=1;4 steps=-1 final_dist=3.857e-04",
                ],
            ),
        ],
    )
    def test_first_four_lines(self, capsys, pick, head):
        assert main(["conjecture", "--m", "4", "--trials", "6", "--iterations", "3", "--seed", "7", *pick]) == 0
        note = "note: randomized check of a theorem: phi_F = x_F*x_M proves every two-sex orbit reaches the vertex"
        assert capsys.readouterr().out.splitlines()[:4] == [*head, note]

    def test_requires_f_or_policy(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--m", "3", "--trials", "5"])
        assert exc.value.code == 2
        assert "one of the arguments --f --f-policy is required" in capsys.readouterr().err

    def test_f_with_policy_is_a_usage_error(self, capsys):
        """The policy was silently ignored beside --f."""
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--m", "4", "--f", "2", "--f-policy", "all", "--trials", "1"])
        assert exc.value.code == 2
        assert "argument --f-policy: not allowed with argument --f" in capsys.readouterr().err

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
        assert f"CSV line {len(rows)} has 2 cells, expected 7" in capsys.readouterr().err

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
        """A step of 10**12 is off the step column 0, 1, 2, ...: exit 2 before any kernel call, no traceback."""
        out_csv, rows = self.trajectory_csv(single_male_doc, tmp_path)
        rows[2][0] = str(10**12)
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", single_male_doc]) == 2

    @pytest.fixture
    def m2_trajectory(self, tmp_path):
        """A trajectory CSV of the two-sex operator (0.2, 0.3, 0.5) from (0.2, 0.3, 0.5), and its document."""
        params = {"a": 0.2, "b": 0.3, "c": 0.5}
        path, out_csv = str(tmp_path / "m2.json"), tmp_path / "traj.csv"
        save_document(OperatorDocument(kind="preset", n=3, payload={"name": "fqso_m2", "params": params}), path)
        argv = ["trajectory", path, "--start", "0.2,0.3,0.5", "--reference", "vertex0", "--tol", "1e-300"]
        assert main([*argv, "--output", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        assert rows[1][4:7] == ["0.15", "0.25", "0.8"] and len(rows) > 4
        return path, out_csv, rows

    @pytest.mark.parametrize(
        "column, row, cell, message",
        [
            pytest.param(4, None, "", "the phi column must be filled on every row", id="blank-phi"),
            pytest.param(4, 2, "", "the phi column must be filled on every row", id="one-blank-phi"),
            pytest.param(5, None, "", "the phi_bound column must be filled on every row", id="blank-bound"),
            pytest.param(0, None, "9", "steps must read 0, 1, 2, ...", id="steps-all-9"),
            pytest.param(0, 1, "1", "steps must read 0, 1, 2, ...", id="first-step-1"),
            pytest.param(6, None, "-1", "dist_max cells must not be negative", id="negative-dist"),
            pytest.param(6, 1, "", "the dist_max column must be filled on every row", id="one-blank-dist"),
        ],
    )
    def test_two_sex_cells_out_of_form_are_refused(self, m2_trajectory, capsys, column, row, cell, message):
        """Each of these CSVs (``row=None``: the cell on every row) replayed with exit 0 and deviation 0."""
        path, out_csv, rows = m2_trajectory
        for changed in rows[1:] if row is None else [rows[row]]:
            changed[column] = cell
        write_rows(out_csv, rows)
        capsys.readouterr()
        assert main(["replay", str(out_csv), "--operator", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and "Traceback" not in captured.err

    def test_first_row_phi_and_bound_are_checked(self, m2_trajectory, capsys):
        """Row 0's phi and bound cells were left out of both comparisons."""
        path, out_csv, rows = m2_trajectory
        rows[1][4:6] = ["0.2", "0.9"]
        write_rows(out_csv, rows)
        capsys.readouterr()
        assert main(["replay", str(out_csv), "--operator", path]) == 1
        assert capsys.readouterr().out == f"replayed {len(rows) - 1} trajectory rows; max deviation 6.500e-01\n"

    @pytest.mark.parametrize(
        "column, cell, code",
        [
            pytest.param(0, "7", 2, id="steps-all-7"),
            pytest.param(5, "0.25", 2, id="bound-cells"),
            pytest.param(4, "", 2, id="blank-phi"),
            pytest.param(6, "123.0", 0, id="any-distance"),
        ],
    )
    def test_volterra_cells(self, rps_doc, tmp_path, column, cell, code):
        """A Volterra CSV has no bound cells; its distances go unchecked, as the CSV does not record the reference."""
        out_csv = tmp_path / "traj.csv"
        argv = ["trajectory", rps_doc, "--start", "0.2,0.3,0.5", "--steps", "5", "--output", str(out_csv)]
        assert main(argv) == 0
        rows = read_rows(out_csv)
        assert all(row[5] == row[6] == "" for row in rows[1:])
        for row in rows[1:]:
            row[column] = cell
        write_rows(out_csv, rows)
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == code

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

    def test_forged_ergodic_averages_on_the_schedule_fail_at_once(self, rps_doc, tmp_path, capsys):
        """Counts 1, 2, 4, ..., MAX_STEPS pass the schedule and budget checks; the wrong average at n=2 stops the replay."""
        out_csv = tmp_path / "avg.csv"
        assert main(["ergodic", rps_doc, "--start", "random:4", "--n", "16", "--output", str(out_csv)]) == 0
        rows = read_rows(out_csv)
        forged = [rows[0], rows[1]] + [[str(2**k)] + rows[1][1:] for k in range(1, core.MAX_STEPS.bit_length())]
        write_rows(out_csv, forged)
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.startswith("replayed 2 ergodic rows; max deviation")

    def test_correct_ergodic_averages_beyond_the_step_budget(self, rps_doc, tmp_path, capsys, monkeypatch):
        """At the fixed vertex (1, 0, 0) every row up to 2**40 is right; the last count is refused before any step."""
        out_csv = tmp_path / "avg.csv"
        write_rows(out_csv, [["n", "avg_0", "avg_1", "avg_2"]] + [[str(2**k), "1.0", "0.0", "0.0"] for k in range(41)])
        orbits = watch_orbits(monkeypatch, dynamics)
        start = time.perf_counter()
        assert main(["replay", str(out_csv), "--operator", rps_doc]) == 2
        assert time.perf_counter() - start < 0.5
        assert orbits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the last count must be at most {core.MAX_STEPS}, got {2**40}\n"

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
            ("preset", 2, {"name": "single_male", "params": {"table": []}}),
            ("preset", 4, {"name": "single_male", "params": {"table": [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0]]}}),
            ("preset", 3, {"name": "single_male", "params": {"table": [[0.5, float("nan"), 0.5]]}}),
            # Numbers written as JSON strings or booleans, which a float conversion would accept.
            ("f_qso", 3, {"f": [2], "mixed": [{"i": 2, "j": 1, "dist": ["0.5", "0.25", "0.25"]}]}),
            ("f_qso", 3, {"f": [2], "mixed": [{"i": 2, "j": 1, "dist": [True, 0.0, 0.0]}]}),
            ("preset", 3, {"name": "single_male", "params": {"table": [["0.5", "0.25", "0.25"]]}}),
            ("volterra_skew", 2, {"a": [["0", "0.5"], ["-0.5", "0"]]}),
            # Booleans as state indices, which Python counts as the integers 0 and 1.
            ("f_qso", 3, {"f": [True], "mixed": [{"i": True, "j": 2, "dist": [0.0, 0.5, 0.5]}]}),
            ("cubic", 2, {"entries": [[False, False, False, 1.0], [0, 1, 0, 1.0], [1, 1, 0, 1.0]]}),
            # Non-finite cubic values, which JSON writes as Infinity (1e400 parses to it) and NaN.
            ("cubic", 2, {"entries": [[0, 0, 0, 1e400], [0, 1, 0, 1.0], [1, 1, 0, 1.0]]}),
            ("cubic", 2, {"entries": [[0, 0, 0, 1.0], [0, 1, 0, float("nan")], [1, 1, 0, 1.0]]}),
        ],
    )
    def test_validate_exits_2(self, tmp_path, capsys, kind, n, payload):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": kind, "n": n, "payload": payload}))
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_f_qso_refusal_texts(self, tmp_path, capsys):
        """Each refusal of an ``f_qso`` document names its fault, in full and without numpy's text.

        A row's own shape, or its pair listed twice, is named in document order;
        a row that is no probability vector is named in sorted pair order.
        """
        d4 = [0.5, 0.25, 0.25, 0.0]
        bad = [0.5, 0.5, 0.5, 0.0]
        invalid = "f_qso payload invalid: "
        flat = "needs a flat list of 4 numbers as dist\n"
        cases = [
            ({"f": [2], "mixed": [{"i": 2, "j": 1, "dist": d4}]},
             invalid + "mixed distributions must be given for exactly the (female, male) pairs; "
             "missing {(2, 3)}, unexpected set()\n"),
            ({"f": [2], "mixed": [{"i": 2, "j": 1, "dist": d4}, {"i": 2, "j": 3, "dist": d4},
                                  {"i": 1, "j": 2, "dist": d4}]},
             invalid + "mixed distributions must be given for exactly the (female, male) pairs; "
             "missing set(), unexpected {(1, 2)}\n"),
            ({"f": [2], "mixed": [{"i": 2, "j": 1, "dist": d4[:3]}, {"i": 2, "j": 3, "dist": d4[:3]}]},
             "mixed row for pair (2, 1) " + flat),
            ({"f": [2], "mixed": [{"i": 2, "j": 1, "dist": d4}, {"i": 2, "j": 3, "dist": d4[:3]}]},
             "mixed row for pair (2, 3) " + flat),
            ({"f": [2], "mixed": [{"i": 2, "j": 3, "dist": [d4] * 4}, {"i": 2, "j": 1, "dist": 0.5}]},
             "mixed row for pair (2, 3) " + flat),
            ({"f": [2], "mixed": [{"i": 2, "j": 1, "dist": bad}, {"i": 2, "j": 3, "dist": d4},
                                  {"i": 2, "j": 1, "dist": d4}]},
             "duplicate mixed row for pair (2, 1)\n"),
            ({"f": [1, 2, 3], "mixed": []},
             invalid + "female set {1, 2, 3} must be a nonempty proper subset of {1,...,3}\n"),
            ({"f": [2], "mixed": [{"i": 2, "j": 1, "dist": d4}, {"i": 2, "j": 3, "dist": bad}]},
             invalid + "mixed-pair rows are not probability vectors: pair (2, 3)\n"),
            ({"f": [2], "mixed": [{"i": 2, "j": 3, "dist": bad}, {"i": 2, "j": 1, "dist": bad}]},
             invalid + "mixed-pair rows are not probability vectors: pair (2, 1)\n"),
        ]
        path = tmp_path / "doc.json"
        for payload, text in cases:
            path.write_text(json.dumps({"schema_version": "1", "kind": "f_qso", "n": 4, "payload": payload}))
            assert main(["validate", str(path)]) == 2
            assert capsys.readouterr() == ("", "error: " + text)

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
        def refuse(*args):
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

    def test_usage_error_then_valid_command(self, blend_doc, capsys):
        expected = self._fresh(["fixed-points", blend_doc, "--seed", "3"], capsys)
        for bad in (["no-such-command"], ["fixed-points", blend_doc, "--starts", "many"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert "usage: qsodyn" in capsys.readouterr().err
        assert (main(["fixed-points", blend_doc, "--seed", "3"]), capsys.readouterr()) == expected
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
    fixed-points        fixed points: exact by class, else a multistart search
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

    def test_fixed_points_never_loads_scipy_optimize(self, blend_doc):
        """No command loads scipy.optimize: the fixed-point polish is numpy Gauss-Newton."""
        probe = (
            "import sys\n"
            "import qsodyn.cli\n"
            "print('scipy' in sys.modules, 'scipy.optimize' in sys.modules, file=sys.stderr)\n"
            "qsodyn.cli.main(['fixed-points', sys.argv[1], '--starts', '20', '--seed', '1'])\n"
            "print('scipy.optimize' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, blend_doc], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr.split() == ["True", "False", "False"]
        assert proc.stdout == (
            "multistart search: starts=20, seed=1\n"
            "  (0.0, 0.0, 1.0) residual=0.000e+00 [in simplex]\n"
            "  (0.0, 1.0, 0.0) residual=0.000e+00 [in simplex]\n"
            "  (0.33333333333333326, 0.33333333333333337, 0.33333333333333326) residual=5.551e-17 [in simplex]\n"
            "  (1.0, 0.0, 0.0) residual=0.000e+00 [in simplex]\n"
            "4 in-simplex fixed point(s) found; a search does not prove the list complete\n"
        )

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsodyn", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
