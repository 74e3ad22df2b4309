"""JSON interchange: .mm.json multimatroids and polynomial output."""

from __future__ import annotations

from fractions import Fraction

from .errors import (GroundMismatch, LabelCollision, MalformedInput, NotSubtransversal,
                     UnknownElement)
from .fields import GFMatrix, parse_symbol, symbol
from .matroids import Matroid
from .multimatroids import Carrier, Multimatroid
from .polynomials import Polynomial


def matrix_to_dict(m: GFMatrix) -> dict:
    return {
        "field": m.field,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[symbol(e) for e in m.row_entries(i)] for i in range(m.rows)],
    }


def matrix_from_dict(d: dict) -> GFMatrix:
    try:
        field = _count(d["field"])
        rows = _count(d["rows"])
        cols = _count(d["cols"])
        raw = _list(d["entries"], "matrix entries")
    except (KeyError, TypeError, ValueError):
        raise MalformedInput("matrix object needs field/rows/cols/entries")
    if field not in (2, 4):
        raise MalformedInput(f"bad field {field}")
    if len(raw) != rows:
        raise MalformedInput("matrix entry row count mismatch")
    entries = []
    for row in raw:
        if len(_list(row, "a matrix row")) != cols:
            raise MalformedInput("matrix entry column count mismatch")
        entries.append([parse_symbol(str(t), field) for t in row])
    return GFMatrix.from_entries(field, entries, cols=cols)


def mm_to_dict(z: Multimatroid) -> dict:
    """Canonical .mm.json object; sheltered realizations keep their matrix,
    anything else is materialized as its circuit family."""
    base = {
        "order": z.order,
        "class_sizes": list(z.carrier.class_sizes),
    }
    m = z.sheltering_matroid
    if m is not None:
        base["kind"] = "sheltered"
        base["matrix"] = matrix_to_dict(m.matrix)
        base["columns"] = [[c, s] for (c, s) in m.ground]
        return base
    base["kind"] = "circuits"
    base["circuits"] = [[[c, s] for (c, s) in sorted(circ)]
                        for circ in z.circuits()]
    return base


def _element(pair) -> tuple[int, int]:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)):
        raise MalformedInput(f"bad element {pair!r}")
    return (pair[0], pair[1])


def _list(v, what: str):
    if not isinstance(v, (list, tuple)):
        raise MalformedInput(f"{what} must be a list")
    return v


def _count(v) -> int:
    """A JSON count: a real int, never a bool, float or string."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not a count")
    return v


def mm_from_dict(d: dict) -> Multimatroid:
    try:
        sizes = [_count(s) for s in d["class_sizes"]]
        kind = d["kind"]
        order = _count(d["order"]) if "order" in d else len(sizes)
    except (KeyError, TypeError, ValueError):
        raise MalformedInput("mm object needs integer order, class_sizes and kind")
    if order != len(sizes):
        raise MalformedInput("order does not match class_sizes")
    carrier = Carrier(sizes)
    try:  # only the file's own shape makes the constructors raise these
        if kind == "circuits":
            circuits = [frozenset(_element(p) for p in _list(circ, "a circuit"))
                        for circ in _list(d.get("circuits"), "circuits")]
            return Multimatroid(carrier, circuits=circuits)
        if kind == "sheltered":
            if "matrix" not in d or "columns" not in d:
                raise MalformedInput("sheltered kind needs matrix and columns")
            mat = matrix_from_dict(d["matrix"])
            columns = [_element(p) for p in _list(d["columns"], "columns")]
            if len(columns) != mat.cols:
                raise MalformedInput("columns list does not match matrix width")
            return Multimatroid(carrier, matroid=Matroid(columns, matrix=mat))
    except (GroundMismatch, LabelCollision, NotSubtransversal, UnknownElement) as exc:
        raise MalformedInput(str(exc)) from exc
    raise MalformedInput(f"unknown kind {kind!r}")


def poly_to_dict(p: Polynomial) -> dict:
    return {"var": "y", "coeffs": [fraction_str(c) for c in p.coeffs]}


def fraction_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
