"""Operator document format: canonical JSON, loading, expansion."""

import collections

import numpy as np
import pytest

from qsodyn import (
    CubicMatrix,
    DocumentError,
    OperatorDocument,
    build_fqso_m2,
    build_single_male,
    canonical_json,
    classify,
    document_from_matrix,
    expand,
    load_document,
    preset,
    sample_random_f_qso,
    save_document,
    validate_stochastic,
)
from qsodyn import documents


@pytest.fixture
def m2_doc_path(tmp_path):
    path = tmp_path / "m2.json"
    save_document(document_from_matrix(build_fqso_m2(0.0, 0.5, 0.5)), path)
    return path


def document_by_loop(P):
    """Reference listing: every (i, j, k) with i <= j in order, nonzero values only."""
    entries = []
    for i in range(P.n):
        for j in range(i, P.n):
            for k in range(P.n):
                value = float(P.p[i, j, k])
                if value != 0.0:
                    entries.append([i, j, k, value])
    return OperatorDocument(kind="cubic", n=P.n, payload={"entries": entries})


def expand_cubic_by_loop(n, entries, symmetrize):
    """Reference expansion: entries checked one by one, each pair's values summed in order and averaged."""
    collected = {}
    for row in entries:
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise DocumentError(f"cubic entry {row!r} is not an (i, j, k, value) row")
        i, j, k, value = row
        for index in (i, j, k):
            if type(index) is not int or not 0 <= index < n:
                raise DocumentError(f"cubic entry indices must be integers from 0 to {n - 1}, got {(i, j, k)!r}")
        items = [value]
        for item in items:
            if isinstance(item, list):
                items.extend(item)
            elif isinstance(item, bool) or not isinstance(item, (int, float)):
                raise DocumentError(f"cubic entry value must hold numbers, got {item!r}")
        try:
            value = float(value)
        except (OverflowError, TypeError):
            raise DocumentError(f"cubic entry {row!r} value is not a number in floating-point range") from None
        if not np.isfinite(value):
            raise DocumentError(f"cubic entry {row!r} value is not finite")
        if i > j and not symmetrize:
            raise DocumentError(f"cubic entry {row!r} has i > j; store pairs with i <= j, or load with symmetrize")
        key = (min(i, j), max(i, j), k)
        if not symmetrize and key in collected:
            raise DocumentError(f"duplicate cubic entry for pair {key}")
        collected.setdefault(key, []).append(value)
    p = np.zeros((n, n, n))
    for (i, j, k), values in collected.items():
        p[i, j, k] = p[j, i, k] = sum(values) / len(values)
    return p


#: Entries the loop refuses, or accepts only in some documents or modes.  A float64 value and a
#: tuple row are accepted, by the columns alone.
DAMAGES = [
    [0, 1], "row", (0, 1, 0, 0.5), [True, 0, 0, 1.0], [0, 9, 0, 1.0], [0, 0, 1.5, 1.0],
    [0, 0, 0, "0.5"], [0, 0, 0, None], [0, 0, 0, [0.5]], [0, 0, 0, False], [0, 0, 0, 10**400],
    [0, 0, 0, float("inf")], [0, 0, 0, float("nan")], [1, 0, 1, 0.25], [0, 0, 0, -0.0], [0, 1, 1, 2**60 + 1],
    [0, 1, 0, np.float64(0.25)], [0, 1, 0, 0.25, 1],
]


def expand_as_the_loop_does(n, entries, symmetrize):
    """Assert that ``expand`` gives the loop's error text, or else its cube bitwise; the outcome's last word."""
    doc = OperatorDocument(kind="cubic", n=n, payload={"entries": entries})
    try:
        expected = expand_cubic_by_loop(n, entries, symmetrize)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            expand(doc, symmetrize=symmetrize)
        assert str(got.value) == str(exc)
        return str(exc).split(" ")[-1]
    assert expand(doc, symmetrize=symmetrize).p.tobytes() == expected.tobytes()
    return "built"


class TestCanonicalForm:
    def test_round_trip_bytes_identical(self, m2_doc_path):
        first = m2_doc_path.read_bytes()
        doc = load_document(m2_doc_path)
        save_document(doc, m2_doc_path)
        assert m2_doc_path.read_bytes() == first

    def test_seventeen_digit_floats_reload_exactly(self, tmp_path):
        value = 1.0 / 3.0
        doc = OperatorDocument(
            kind="f_qso",
            n=3,
            payload={"f": [2], "mixed": [{"i": 2, "j": 1, "dist": [value, value, 1.0 - 2 * value]}]},
        )
        path = tmp_path / "thirds.json"
        save_document(doc, path)
        assert "0.33333333333333331" in path.read_text()
        reloaded = load_document(path)
        assert reloaded.payload["mixed"][0]["dist"][0] == value
        assert path.read_text() == canonical_json(reloaded)

    def test_keys_sorted(self, m2_doc_path):
        text = m2_doc_path.read_text()
        assert text.index('"kind"') < text.index('"n"') < text.index('"payload"')

    def test_expansion_matches_source_matrix(self, m2_doc_path):
        P = expand(load_document(m2_doc_path))
        assert np.array_equal(P.p, build_fqso_m2(0.0, 0.5, 0.5).p)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_from_matrix_matches_loop(self, n):
        """The vectorised listing equals the per-entry loop, -0.0 and exact zeros included."""
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            p = rng.standard_exponential((n, n, n))
            p[rng.random((n, n, n)) < 0.4] = 0.0
            p[rng.random((n, n, n)) < 0.1] = -0.0
            P = CubicMatrix(p)
            assert canonical_json(document_from_matrix(P)) == canonical_json(document_by_loop(P))

    def test_sparse_64_states_matches_loop(self):
        rng = np.random.default_rng(64)
        p = np.zeros((64, 64, 64))
        p[tuple(rng.integers(64, size=(3, 500)))] = rng.random(500)
        P = CubicMatrix(p)
        doc = document_from_matrix(P)
        assert doc.payload == document_by_loop(P).payload
        assert canonical_json(doc) == canonical_json(document_by_loop(P))


class TestLoadErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            load_document(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"schema_version":"2","kind":"cubic","n":2,"payload":{"entries":[]}}')
        with pytest.raises(DocumentError):
            load_document(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"schema_version":"1","kind":"cubic"}')
        with pytest.raises(DocumentError):
            load_document(path)

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            OperatorDocument(kind="sparse", n=3, payload={})


class TestCubicExpansion:
    def test_lower_triangle_rejected_without_symmetrize(self):
        doc = OperatorDocument(kind="cubic", n=2, payload={"entries": [[1, 0, 0, 1.0]]})
        with pytest.raises(DocumentError):
            expand(doc)

    def test_symmetrize_averages_orientations(self):
        doc = OperatorDocument(
            kind="cubic",
            n=2,
            payload={
                "entries": [
                    [0, 0, 0, 1.0],
                    [1, 1, 0, 1.0],
                    [0, 1, 0, 0.4],
                    [1, 0, 0, 0.6],
                    [0, 1, 1, 0.5],
                    [1, 0, 1, 0.5],
                ]
            },
        )
        P = expand(doc, symmetrize=True)
        assert P.p[0, 1, 0] == P.p[1, 0, 0] == 0.5
        assert validate_stochastic(P).ok

    def test_duplicate_entry_rejected(self):
        doc = OperatorDocument(
            kind="cubic", n=2, payload={"entries": [[0, 0, 0, 0.5], [0, 0, 0, 0.5]]}
        )
        with pytest.raises(DocumentError):
            expand(doc)

    def test_out_of_range_entry(self):
        doc = OperatorDocument(kind="cubic", n=2, payload={"entries": [[0, 0, 2, 1.0]]})
        with pytest.raises(DocumentError):
            expand(doc)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_matches_the_entry_by_entry_loop(self, symmetrize):
        """Damaged and duplicated entries give the loop's first error text; clean ones its bits."""
        rng = np.random.default_rng(17)
        outcomes = set()
        for _ in range(400):
            n = int(rng.integers(2, 5))
            entries = []
            for _ in range(int(rng.integers(0, 12))):
                i, j = sorted(rng.integers(0, n, 2).tolist())
                if symmetrize and rng.random() < 0.5:
                    i, j = j, i
                row = [i, j, int(rng.integers(0, n)), float(rng.random())]
                entries.append(tuple(row) if rng.random() < 0.2 else row)  # library payloads may hold tuples
            for _ in range(int(rng.integers(0, 3))):
                entries.insert(int(rng.integers(0, len(entries) + 1)), DAMAGES[int(rng.integers(len(DAMAGES)))])
            if entries and rng.random() < 0.3:
                entries.insert(int(rng.integers(0, len(entries) + 1)), list(entries[int(rng.integers(len(entries)))]))
            outcomes.add(expand_as_the_loop_does(n, entries, symmetrize))
        assert len(outcomes) >= 8

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_damage_after_a_thousand_good_entries(self, symmetrize):
        """The columns refuse the whole document; the loop, run only then, names the same first bad entry."""
        n = 16
        cells = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n) if (i, j) not in ((0, 0), (0, 1))]
        good = [[*cells[c], 1.0 / (1 + c)] for c in np.random.default_rng(16).permutation(len(cells)).tolist()]
        outcomes = [expand_as_the_loop_does(n, good[:1001] + [damage] + good[1001:], symmetrize) for damage in DAMAGES]
        outcomes.append(expand_as_the_loop_does(n, good[:1001] + [[0, n, 0, 1.0]], symmetrize))
        # Built: the tuple row, -0.0, 2**60 + 1 and the float64 value; symmetrized, also (1, 0, 1)
        # and (0, 9, 0), which repeats a good entry and is averaged with it.
        assert outcomes.count("built") == (6 if symmetrize else 4)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_subclasses_are_taken_by_the_columns_alone(self, symmetrize, monkeypatch):
        """A ``np.float64`` value and a tuple-subclass row need no entry-by-entry pass; a boolean value does."""
        def loop(*args):
            raise AssertionError("the entry-by-entry loop ran")

        monkeypatch.setattr(documents, "_checked_entries", loop)
        row = collections.namedtuple("Row", "i j k value")
        entries = [[0, 0, 0, 1.0], row(0, 1, 0, np.float64(0.25)), [0, 1, 1, 0.75], [1, 1, 1, 1.0]]
        expected = expand_cubic_by_loop(2, entries, symmetrize)
        doc = OperatorDocument(kind="cubic", n=2, payload={"entries": entries})
        assert expand(doc, symmetrize=symmetrize).p.tobytes() == expected.tobytes()
        doc.payload["entries"][0][3] = True
        with pytest.raises(AssertionError, match="entry-by-entry"):
            expand(doc, symmetrize=symmetrize)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_large_documents_match_the_loop_bitwise(self, symmetrize):
        """A valid n = 33 single-male cube and a sparse n = 64 two-sex cube, as ``document_from_matrix`` lists them."""
        table = np.random.default_rng(33).dirichlet(np.ones(33), 31)
        for P in (build_single_male(table), sample_random_f_qso(63, {5, 17, 40}, seed=64)):
            entries = document_from_matrix(P).payload["entries"]
            assert expand_as_the_loop_does(P.n, entries, symmetrize) == "built"
            assert expand(document_from_matrix(P), symmetrize=symmetrize).p.tobytes() == P.p.tobytes()

    def test_invalid_matrix_loads_but_fails_validation(self):
        """Value-level defects are a validation concern, not a parse error."""
        doc = OperatorDocument(
            kind="cubic",
            n=2,
            payload={"entries": [[0, 0, 0, 0.9], [0, 1, 0, 1.0], [1, 1, 0, 1.0]]},
        )
        P = expand(doc)
        assert not validate_stochastic(P).ok


class TestOtherKinds:
    def test_f_qso_document(self, tmp_path):
        doc = OperatorDocument(
            kind="f_qso",
            n=4,
            payload={
                "f": [2, 3],
                "mixed": [
                    {"i": 2, "j": 1, "dist": [0.25, 0.25, 0.25, 0.25]},
                    {"i": 3, "j": 1, "dist": [0.5, 0.5, 0.0, 0.0]},
                ],
            },
        )
        P = expand(doc)
        assert frozenset({2, 3}) in classify(P).f_qso_sets
        path = tmp_path / "fq.json"
        save_document(doc, path)
        assert np.array_equal(expand(load_document(path)).p, P.p)

    def test_f_qso_bad_distribution_is_document_error(self):
        doc = OperatorDocument(
            kind="f_qso",
            n=3,
            payload={"f": [2], "mixed": [{"i": 2, "j": 1, "dist": [0.5, 0.2, 0.2]}]},
        )
        with pytest.raises(DocumentError):
            expand(doc)

    def test_f_qso_missing_or_extra_pairs_is_document_error(self):
        dist = [0.5, 0.25, 0.25, 0.0]
        for pairs in ([(2, 1)], [(2, 1), (2, 3), (1, 2)]):
            doc = OperatorDocument(
                kind="f_qso",
                n=4,
                payload={"f": [2], "mixed": [{"i": i, "j": j, "dist": dist} for i, j in pairs]},
            )
            with pytest.raises(DocumentError, match=r"exactly the \(female, male\) pairs"):
                expand(doc)

    def test_skew_document(self):
        doc = OperatorDocument(
            kind="volterra_skew",
            n=3,
            payload={"a": [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]},
        )
        P = expand(doc)
        assert np.array_equal(P.p, preset("ganikhodzhaev_v0").p)

    def test_preset_document(self):
        doc = OperatorDocument(
            kind="preset", n=3, payload={"name": "ganikhodzhaev_lambda", "params": {"lam": 0.5}}
        )
        P = expand(doc)
        assert np.array_equal(P.p, preset("ganikhodzhaev_lambda", lam=0.5).p)

    def test_preset_n_mismatch(self):
        doc = OperatorDocument(kind="preset", n=4, payload={"name": "ganikhodzhaev_v0"})
        with pytest.raises(DocumentError):
            expand(doc)

    def test_single_male_preset_with_table(self):
        doc = OperatorDocument(
            kind="preset",
            n=4,
            payload={"name": "single_male", "params": {"table": [[0.25, 0.25, 0.25, 0.25]] * 2}},
        )
        P = expand(doc)
        assert P.n == 4
        assert validate_stochastic(P).ok

    @pytest.mark.parametrize(
        "kind, n, payload",
        [
            ("f_qso", 3, {"f": [2], "mixed": [{"i": 2, "j": 1, "dist": {"a": 1}}]}),
            ("f_qso", 3, {"f": [2], "mixed": [{"i": [2], "j": 1, "dist": [0.0, 0.5, 0.5]}]}),
            ("volterra_skew", 2, {"a": [{"x": 0}, {"y": 1}]}),
        ],
    )
    def test_wrong_payload_types_are_document_errors(self, kind, n, payload):
        with pytest.raises(DocumentError):
            expand(OperatorDocument(kind=kind, n=n, payload=payload))
