"""Operator documents: a JSON file format for loading and saving operators.

A document carries a ``schema_version``, a state count ``n``, a ``kind``
(cubic | f_qso | volterra_skew | preset), and a kind-specific payload.
Cubic entries are stored sparsely as (i, j, k, value) rows with i <= j
and expanded symmetrically on load; saving is canonical (sorted keys,
floats with 17 significant digits) so a load/save round trip is
byte-identical.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CubicMatrix, QsoError
from .operators import FQsoSpec, SkewMatrix, build_f_qso, cubic_from_skew, preset

SCHEMA_VERSION = "1"
KINDS = ("cubic", "f_qso", "volterra_skew", "preset")
#: What a builder raises for a payload of the wrong types or values.
_REJECTED = (ValueError, TypeError, OverflowError, QsoError)


class DocumentError(QsoError):
    """The document cannot be parsed or does not expand to an operator."""


@dataclass(frozen=True, eq=False)
class OperatorDocument:
    kind: str
    n: int
    payload: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DocumentError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.n, int) or self.n < 2:
            raise DocumentError(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.payload, dict):
            raise DocumentError("payload must be an object")


def _canon(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_canon(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise DocumentError("documents cannot carry non-finite numbers")
        if obj == 0.0:
            return "0"
        return "%.17g" % obj
    raise DocumentError(f"unsupported value of type {type(obj).__name__} in document")


def canonical_json(doc: OperatorDocument) -> str:
    """Canonical serialized form, stable byte-for-byte under reload."""
    return _canon(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": doc.kind,
            "n": doc.n,
            "payload": doc.payload,
        }
    ) + "\n"


def save_document(doc: OperatorDocument, path) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")


def load_document(path) -> OperatorDocument:
    """Parse a document file; any structural problem raises DocumentError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})")
    missing = {"kind", "n", "payload"} - set(raw)
    if missing:
        raise DocumentError(f"missing keys: {sorted(missing)}")
    return OperatorDocument(kind=raw["kind"], n=raw["n"], payload=raw["payload"])


def _expand_cubic(n: int, payload: dict, symmetrize: bool) -> CubicMatrix:
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise DocumentError("cubic payload needs an 'entries' list")
    collected: dict[tuple[int, int, int], list[float]] = {}
    for row in entries:
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise DocumentError(f"cubic entry {row!r} is not an (i, j, k, value) row")
        i, j, k, value = row
        if not all(isinstance(v, int) for v in (i, j, k)):
            raise DocumentError(f"cubic entry {row!r} has non-integer indices")
        if not all(0 <= v < n for v in (i, j, k)):
            raise DocumentError(f"cubic entry {row!r} out of range for n={n}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DocumentError(f"cubic entry {row!r} has a non-numeric value")
        try:
            value = float(value)
        except OverflowError:
            raise DocumentError(f"cubic entry {row!r} is out of floating-point range") from None
        if i > j and not symmetrize:
            raise DocumentError(
                f"cubic entry {row!r} has i > j; store pairs with i <= j, or load with symmetrize"
            )
        key = (min(i, j), max(i, j), k)
        if not symmetrize and key in collected:
            raise DocumentError(f"duplicate cubic entry for pair {key}")
        collected.setdefault(key, []).append(value)
    p = np.zeros((n, n, n))
    for (i, j, k), values in collected.items():
        value = sum(values) / len(values)
        p[i, j, k] = value
        p[j, i, k] = value
    return CubicMatrix(p, declared_n=n)


def _expand_f_qso(n: int, payload: dict) -> CubicMatrix:
    females = payload.get("f")
    mixed_rows = payload.get("mixed")
    if not isinstance(females, list) or not isinstance(mixed_rows, list):
        raise DocumentError("f_qso payload needs 'f' (list) and 'mixed' (list)")
    if not all(isinstance(i, int) for i in females):
        raise DocumentError(f"female set {females!r} must list integer states")
    mixed = {}
    for row in mixed_rows:
        if not isinstance(row, dict) or not {"i", "j", "dist"} <= set(row):
            raise DocumentError(f"mixed row {row!r} needs keys i, j, dist")
        if not all(isinstance(row[key], int) for key in ("i", "j")):
            raise DocumentError(f"mixed row {row!r} has non-integer states")
        mixed[(row["i"], row["j"])] = row["dist"]
    try:
        spec = FQsoSpec(n=n, females=frozenset(females), mixed=mixed)
    except _REJECTED as exc:
        raise DocumentError(f"f_qso payload invalid: {exc}") from exc
    return build_f_qso(spec)


def _expand_skew(n: int, payload: dict) -> CubicMatrix:
    rows = payload.get("a")
    if not isinstance(rows, list):
        raise DocumentError("volterra_skew payload needs an 'a' matrix")
    try:
        skew = SkewMatrix(np.asarray(rows, dtype=float))
    except _REJECTED as exc:
        raise DocumentError(f"skew payload invalid: {exc}") from exc
    if skew.m != n:
        raise DocumentError(f"skew matrix is {skew.m}x{skew.m} but document declares n={n}")
    return cubic_from_skew(skew)


def _expand_preset(n: int, payload: dict) -> CubicMatrix:
    name = payload.get("name")
    params = payload.get("params", {})
    if not isinstance(name, str) or not isinstance(params, dict):
        raise DocumentError("preset payload needs 'name' (string) and optional 'params' (object)")
    try:
        matrix = preset(name, **params)
    except _REJECTED as exc:
        raise DocumentError(f"preset payload invalid: {exc}") from exc
    if matrix.n != n:
        raise DocumentError(f"preset {name!r} has n={matrix.n} but document declares n={n}")
    return matrix


def expand(doc: OperatorDocument, symmetrize: bool = False) -> CubicMatrix:
    """Expand a document into its cubic matrix.

    Structural problems raise :class:`DocumentError`.  For the cubic
    kind, value-level stochasticity is deliberately NOT checked here, so
    defective matrices can be loaded and reported by validation; the
    other kinds construct operators and cannot represent invalid ones.
    """
    if doc.kind == "cubic":
        return _expand_cubic(doc.n, doc.payload, symmetrize)
    if doc.kind == "f_qso":
        return _expand_f_qso(doc.n, doc.payload)
    if doc.kind == "volterra_skew":
        return _expand_skew(doc.n, doc.payload)
    return _expand_preset(doc.n, doc.payload)


def document_from_matrix(P: CubicMatrix) -> OperatorDocument:
    """Sparse cubic document (nonzero entries, i <= j, sorted) for a matrix."""
    entries = []
    for i in range(P.n):
        for j in range(i, P.n):
            for k in range(P.n):
                value = float(P.p[i, j, k])
                if value != 0.0:
                    entries.append([i, j, k, value])
    return OperatorDocument(kind="cubic", n=P.n, payload={"entries": entries})
