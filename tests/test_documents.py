"""Operator document format: canonical JSON, loading, expansion."""

import numpy as np
import pytest

from qsodyn import (
    DocumentError,
    OperatorDocument,
    build_fqso_m2,
    canonical_json,
    classify,
    document_from_matrix,
    expand,
    load_document,
    preset,
    save_document,
    validate_stochastic,
)


@pytest.fixture
def m2_doc_path(tmp_path):
    path = tmp_path / "m2.json"
    save_document(document_from_matrix(build_fqso_m2(0.0, 0.5, 0.5)), path)
    return path


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
