"""Operator documents: a JSON file format for loading and saving operators.

A document carries a ``schema_version``, a state count ``n``, a ``kind``
(cubic | f_qso | volterra_skew | preset), and a kind-specific payload.
Cubic entries are stored sparsely as (i, j, k, value) rows with i <= j
and expanded symmetrically on load; saving is canonical (sorted keys,
floats with 17 significant digits) so a load/save round trip is
byte-identical.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_N, CubicMatrix, QsoError
from .operators import SkewMatrix, _mixed_pairs, build_f_qso, cubic_from_skew, preset

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
        if not isinstance(self.n, int) or not 2 <= self.n <= MAX_N:
            raise DocumentError(f"n must be an integer from 2 to {MAX_N}, got {self.n!r}")
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


def _require_numbers(value, where: str) -> None:
    """Refuse all but a number or nested lists of numbers: a JSON string, boolean or null is not one."""
    items = [value]
    for item in items:  # a nested list's entries are appended and visited in turn
        if isinstance(item, list):
            items.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise DocumentError(f"{where} must hold numbers, got {item!r}")


def _require_states(values, n: int, where: str) -> None:
    """Refuse all but states 0..n-1 written as integers; ``type`` is exact, so a JSON boolean is not one."""
    for value in values:
        if type(value) is not int or not 0 <= value < n:
            raise DocumentError(f"{where} must be integers from 0 to {n - 1}, got {values!r}")


def _entry_columns(n: int, entries: list, symmetrize: bool):
    """The entries as state, cell and value arrays, or None when a column holds anything a good entry cannot.

    A good entry is a list or tuple (or a subclass of one) of three exact
    ``int`` states and a finite ``int`` or ``float`` value (or a subclass
    of one, such as ``np.float64``, but not ``bool``), with i <= j and no
    (i, j, k) given twice unless symmetrized.  These are the entries
    :func:`_checked_entries` accepts; None leaves the naming of the bad
    entry to it.
    """
    if not entries:
        return np.zeros((3, 0), dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, entries))):
        return None
    try:
        columns = list(zip(*entries, strict=True))
    except ValueError:  # rows of different lengths
        return None
    if len(columns) != 4 or not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, columns[3]))):
        return None
    if not all(set(map(type, column)) == {int} for column in columns[:3]):
        return None
    try:
        states = np.array(columns[:3], dtype=np.intp)
        values = np.array(columns[3], dtype=float)  # float() of each value, the same rounding
    except OverflowError:
        return None
    if states.min() < 0 or states.max() >= n or not np.isfinite(values).all():
        return None
    if symmetrize:
        states[:2].sort(axis=0)
    elif (states[0] > states[1]).any():
        return None
    cells = np.ravel_multi_index(states, (n, n, n))
    if not symmetrize and np.bincount(cells).max() > 1:
        return None
    return states, cells, values


def _checked_entries(n: int, entries: list, symmetrize: bool) -> None:
    """Check the entries one by one, raising for the first bad one in document order."""
    seen = set()
    for row in entries:
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise DocumentError(f"cubic entry {row!r} is not an (i, j, k, value) row")
        i, j, k, value = row
        _require_states((i, j, k), n, "cubic entry indices")
        if type(value) is not float:
            _require_numbers(value, "cubic entry value")
            try:
                value = float(value)
            except (OverflowError, TypeError):  # a huge integer, or a list
                raise DocumentError(f"cubic entry {row!r} value is not a number in floating-point range") from None
        if not math.isfinite(value):
            raise DocumentError(f"cubic entry {row!r} value is not finite")
        if not symmetrize:
            if i > j:
                raise DocumentError(
                    f"cubic entry {row!r} has i > j; store pairs with i <= j, or load with symmetrize"
                )
            if (i, j, k) in seen:
                raise DocumentError(f"duplicate cubic entry for pair {(i, j, k)}")
            seen.add((i, j, k))


def _expand_cubic(n: int, payload: dict, symmetrize: bool) -> CubicMatrix:
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise DocumentError("cubic payload needs an 'entries' list")
    columns = _entry_columns(n, entries, symmetrize)
    if columns is None:
        _checked_entries(n, entries, symmetrize)  # names the first bad entry
    states, cells, values = columns
    # Entries of one pair are summed from 0.0 in entry order, then averaged: sum(values) / len(values).
    total = np.bincount(cells, weights=values, minlength=n**3)
    count = np.bincount(cells, minlength=n**3)
    p = np.zeros(n**3)
    p[cells] = total[cells] / count[cells]
    p = p.reshape(n, n, n)
    i, j, k = states
    p[j, i, k] = p[i, j, k]
    return CubicMatrix(p)


def _expand_f_qso(n: int, payload: dict) -> CubicMatrix:
    females = payload.get("f")
    mixed_rows = payload.get("mixed")
    if not isinstance(females, list) or not isinstance(mixed_rows, list):
        raise DocumentError("f_qso payload needs 'f' (list) and 'mixed' (list)")
    _require_states(females, n, "female set states")
    mixed = {}
    for row in mixed_rows:
        if not isinstance(row, dict) or not {"i", "j", "dist"} <= set(row):
            raise DocumentError(f"mixed row {row!r} needs keys i, j, dist")
        pair, dist = (row["i"], row["j"]), row["dist"]
        _require_states(pair, n, "mixed row states")
        _require_numbers(dist, f"mixed row {row!r} dist")
        if not isinstance(dist, list) or len(dist) != n or any(isinstance(v, list) for v in dist):
            raise DocumentError(f"mixed row for pair {pair} needs a flat list of {n} numbers as dist")
        if pair in mixed:
            raise DocumentError(f"duplicate mixed row for pair {pair}")
        mixed[pair] = dist
    try:
        pairs = _mixed_pairs(n, frozenset(females))
        expected = set(pairs)
        if set(mixed) != expected:
            raise ValueError(
                "mixed distributions must be given for exactly the (female, male) pairs; "
                f"missing {expected - set(mixed)}, unexpected {set(mixed) - expected}"
            )
        return build_f_qso(n, females, [mixed[pair] for pair in pairs])
    except _REJECTED as exc:
        raise DocumentError(f"f_qso payload invalid: {exc}") from exc


def _expand_skew(n: int, payload: dict) -> CubicMatrix:
    rows = payload.get("a")
    if not isinstance(rows, list):
        raise DocumentError("volterra_skew payload needs an 'a' matrix")
    _require_numbers(rows, "volterra_skew 'a'")
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
    # A table's rows fix the state count, so MAX_N bounds it before the cube is built.
    table = params.get("table")
    if name == "single_male" and isinstance(table, list) and len(table) != n - 2:
        raise DocumentError(f"preset 'single_male' table has {len(table)} rows but n={n} needs {n - 2}")
    _require_numbers(list(params.values()), f"preset {name!r} params")
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
    i, j, k = np.nonzero(P.p)  # in (i, j, k) order
    upper = i <= j
    i, j, k = i[upper], j[upper], k[upper]
    entries = list(map(list, zip(i.tolist(), j.tolist(), k.tolist(), P.p[i, j, k].tolist())))
    return OperatorDocument(kind="cubic", n=P.n, payload={"entries": entries})
