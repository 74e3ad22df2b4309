"""Exact linear algebra over GF(2) and GF(4).

Scalars are small ints encoding coefficients in the basis {1, a} of GF(4)
(a^2 = a + 1): 0 -> 0, 1 -> 1, 2 -> a, 3 -> b = a + 1, so addition is XOR.
GF(2) uses {0, 1}.
Rows are bit-packed: one machine word (Python int) per coefficient plane,
so GF(2) rows are single ints and GF(4) rows are (lo, hi) plane pairs.
All arithmetic is exact; there is no floating point anywhere.  There is one
pivoting routine, _echelon (with _reduce_gf4 over GF(4)): rank, contraction
(which builds packed minors) and rref call it.  The two walks
(leaf_nullities, the only nullity walk, and circuit_picks) inline its GF(2)
step alone: over GF(4) a span is the GF(2) span of the vectors and their
a-multiples, so _doubled packs each (lo, hi) as one GF(2) int and each new
basis vector brings its a-multiple along.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatch, MalformedInput

GF2 = 2
GF4 = 4

_SYMBOLS = {0: "0", 1: "1", 2: "a", 3: "b"}
_VALUES = {"0": 0, "1": 1, "a": 2, "b": 3}
_INVERSE = {1: 1, 2: 3, 3: 2}


def scalar_inverse(x: int) -> int:
    """Multiplicative inverse of a nonzero scalar."""
    return _INVERSE[x]


def conjugate(x: int) -> int:
    """The conjugation automorphism: fixes 0 and 1, swaps a and b."""
    return ((x & 1) ^ (x >> 1)) | (x & 2)


def _scale_row(c: int, lo: int, hi: int) -> tuple[int, int]:
    """Word-parallel scalar * row over GF(4)."""
    if c == 0:
        return 0, 0
    if c == 1:
        return lo, hi
    if c == 2:  # a
        return hi, lo ^ hi
    return lo ^ hi, lo  # b


class GFMatrix:
    """Immutable matrix over GF(2) or GF(4) with bit-packed rows."""

    __slots__ = ("field", "rows", "cols", "row_lo", "row_hi", "_cols_packed")

    def __init__(self, field: int, rows: int, cols: int,
                 row_lo: Sequence[int], row_hi: Sequence[int] | None = None):
        if field not in (GF2, GF4):
            raise FieldMismatch(f"unknown field {field}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.row_lo = tuple(row_lo)
        self.row_hi = tuple(row_hi) if row_hi is not None else (0,) * rows
        if len(self.row_lo) != rows or len(self.row_hi) != rows:
            raise MalformedInput("row count mismatch")
        self._cols_packed = None

    @classmethod
    def from_entries(cls, field: int, entries: Sequence[Sequence[int]],
                     cols: int | None = None) -> "GFMatrix":
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        lo, hi = [], []
        for row in entries:
            rl = rh = 0
            for j, e in enumerate(row):
                if e not in (0, 1, 2, 3) or (field == GF2 and e > 1):
                    raise FieldMismatch(f"entry {e} not in GF({field})")
                rl |= (e & 1) << j
                rh |= (e >> 1) << j
            lo.append(rl)
            hi.append(rh)
        return cls(field, rows, cols, lo, hi)

    @classmethod
    def from_columns(cls, field: int, rows: int,
                     columns: Sequence[tuple[int, int]]) -> "GFMatrix":
        """The matrix with the given columns, packed over rows as (lo, hi)."""
        lo = [0] * rows
        hi = [0] * rows
        for j, (clo, chi) in enumerate(columns):
            for i in range(rows):
                lo[i] |= ((clo >> i) & 1) << j
                hi[i] |= ((chi >> i) & 1) << j
        m = cls(field, rows, len(columns), lo, hi)
        m._cols_packed = tuple(columns)
        return m

    @classmethod
    def zero(cls, field: int, rows: int, cols: int) -> "GFMatrix":
        return cls(field, rows, cols, [0] * rows, [0] * rows)

    @classmethod
    def identity(cls, field: int, n: int) -> "GFMatrix":
        return cls(field, n, n, [1 << i for i in range(n)], [0] * n)

    def entry(self, i: int, j: int) -> int:
        return ((self.row_lo[i] >> j) & 1) | (((self.row_hi[i] >> j) & 1) << 1)

    def row_entries(self, i: int) -> list[int]:
        return [self.entry(i, j) for j in range(self.cols)]

    def to_entries(self) -> list[list[int]]:
        return [self.row_entries(i) for i in range(self.rows)]

    def columns_packed(self) -> tuple[tuple[int, int], ...]:
        """Columns packed over rows as (lo, hi) pairs; cached."""
        if self._cols_packed is None:
            packed = []
            for j in range(self.cols):
                lo = hi = 0
                for i in range(self.rows):
                    lo |= ((self.row_lo[i] >> j) & 1) << i
                    hi |= ((self.row_hi[i] >> j) & 1) << i
                packed.append((lo, hi))
            self._cols_packed = tuple(packed)
        return self._cols_packed

    def transpose(self) -> "GFMatrix":
        cols = self.columns_packed()
        return GFMatrix(self.field, self.cols, self.rows,
                        [c[0] for c in cols], [c[1] for c in cols])

    def conjugate(self) -> "GFMatrix":
        """Entry-wise conjugation (identity on GF(2))."""
        return GFMatrix(self.field, self.rows, self.cols,
                        [lo ^ hi for lo, hi in zip(self.row_lo, self.row_hi)],
                        self.row_hi)

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        if self.field != other.field or self.rows != other.rows:
            raise FieldMismatch("hstack: incompatible matrices")
        s = self.cols
        return GFMatrix(self.field, self.rows, s + other.cols,
                        [a | (b << s) for a, b in zip(self.row_lo, other.row_lo)],
                        [a | (b << s) for a, b in zip(self.row_hi, other.row_hi)])

    def add(self, other: "GFMatrix") -> "GFMatrix":
        if (self.field, self.rows, self.cols) != (other.field, other.rows, other.cols):
            raise FieldMismatch("add: incompatible matrices")
        return GFMatrix(self.field, self.rows, self.cols,
                        [a ^ b for a, b in zip(self.row_lo, other.row_lo)],
                        [a ^ b for a, b in zip(self.row_hi, other.row_hi)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, GFMatrix)
                and (self.field, self.rows, self.cols) == (other.field, other.rows, other.cols)
                and self.row_lo == other.row_lo and self.row_hi == other.row_hi)

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.row_lo, self.row_hi))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(_SYMBOLS[e] for e in self.row_entries(i))
                         for i in range(self.rows))
        return f"GFMatrix(GF({self.field}), {self.rows}x{self.cols}: {body})"


def rank_of_vectors(field: int, vectors: Iterable[tuple[int, int]]) -> int:
    """Rank of packed (lo, hi) vectors; GF(2) vectors carry hi == 0."""
    return len(_echelon(field, vectors))


def _echelon(field: int, vectors: Iterable[tuple[int, int]]) -> list:
    """Echelon basis of packed vectors, in insertion order: over GF(2) ints
    with their top bit as pivot, over GF(4) the rows of _reduce_gf4."""
    basis: list = []
    for lo, hi in vectors:
        if field == GF2:
            # Each basis vector's pivot is its top bit and it is 0 at the
            # pivots before it, so lo ^ b < lo exactly when lo has that
            # pivot set, and one pass in insertion order clears them all.
            for b in basis:
                r = lo ^ b
                if r < lo:
                    lo = r
            b = lo
        else:
            b = _reduce_gf4(basis, lo, hi)
        if b:
            basis.append(b)
    return basis


def _reduce_gf4(basis, lo: int, hi: int) -> tuple[int, int, int] | None:
    """Reduce (lo, hi) by a basis of (pivot, lo, hi) rows, each 1 at its
    pivot and 0 at the pivots before it.  Returns the remainder scaled to 1
    at its top position, with that position as its pivot, or None when the
    vector lies in the span."""
    for p, blo, bhi in basis:
        c = ((lo >> p) & 1) | (((hi >> p) & 1) << 1)
        if c:
            slo, shi = _scale_row(c, blo, bhi)
            lo ^= slo
            hi ^= shi
    if not lo | hi:
        return None
    p = (lo | hi).bit_length() - 1
    c = ((lo >> p) & 1) | (((hi >> p) & 1) << 1)
    return (p, *_scale_row(scalar_inverse(c), lo, hi))


def contract_columns(field: int, contract: Iterable[tuple[int, int]],
                     keep: Iterable[tuple[int, int]]) -> tuple[int, list]:
    """Packed (lo, hi) columns of a contraction: the rank r of the
    contracted columns, and the kept columns reduced modulo their echelon
    basis with its r pivot rows, which the reduction leaves zero, dropped.
    Over GF(4) a nonzero remainder is scaled to 1 at its top row."""
    basis = _echelon(field, contract)
    pivots = sorted((b.bit_length() - 1 if field == GF2 else b[0] for b in basis),
                    reverse=True)
    out = []
    for lo, hi in keep:
        if field == GF2:
            for b in basis:  # the reduction of _echelon
                r = lo ^ b
                if r < lo:
                    lo = r
        else:
            lo, hi = (_reduce_gf4(basis, lo, hi) or (0, 0, 0))[1:]
        for p in pivots:  # highest first, so lower positions stay put
            lo = (lo >> (p + 1) << p) | (lo & ((1 << p) - 1))
            hi = (hi >> (p + 1) << p) | (hi & ((1 << p) - 1))
        out.append((lo, hi))
    return len(basis), out


def _doubled(field: int, groups: Sequence[Sequence], width: int = 0) -> tuple:
    """A walk's groups of vectors as GF(2) ints, w and the a-multiple map.

    Over GF(2) the groups pass through, w is width and the map is None.
    Over GF(4) each (lo, hi) becomes lo | hi << w, w the widest plane in the
    groups and at least width, and the map is _scale_row(2, ·) on such ints;
    it acts alike on a second pair of w-bit planes above the first, where
    circuit_picks puts the rows above their tag pairs."""
    if field == GF2:
        return groups, width, None
    w = max([width] + [(lo | hi).bit_length() for g in groups for lo, hi in g])
    lows = ((1 << w) - 1) * (1 | 1 << 2 * w)

    def amul(v: int) -> int:
        hi = v >> w
        return hi & lows | ((v ^ hi) & lows) << w

    return [[lo | hi << w for lo, hi in g] for g in groups], w, amul


def _with_a_multiple(basis: tuple, v: int, amul) -> tuple:
    """A GF(4) walk's basis grown by v, a remainder modulo it, and then by
    v's a-multiple reduced modulo both: the GF(2) span of the basis stays a
    GF(4) span.  That remainder is never zero, as v lies outside the span."""
    basis += (v,)
    v = amul(v)
    for b in basis:
        r = v ^ b
        if r < v:
            v = r
    return basis + (v,)


def leaf_nullities(field: int, levels: Sequence[Sequence]) -> bytes:
    """The nullity of every way to pick one vector per level, one byte per
    leaf in product order.

    levels[i] lists the packed candidates of level i: ints over GF(2),
    (lo, hi) pairs over GF(4).  A leaf's nullity is the level count minus
    the rank of its picked vectors; with no levels there is one leaf, of
    nullity 0.  One depth-first walk carries the GF(2) echelon basis of the
    prefix picked so far (over GF(4), of the doubled vectors and their
    a-multiples), so each node reduces one vector instead of re-eliminating
    the whole leaf.
    """
    levels, _, amul = _doubled(field, levels)
    out = bytearray()
    last = len(levels) - 1

    def walk(i, basis, null):
        for v in levels[i]:
            for b in basis:  # the reduction of _echelon, inlined
                r = v ^ b
                if r < v:
                    v = r
            if i == last:
                out.append(null if v else null + 1)
            elif v:
                walk(i + 1, _with_a_multiple(basis, v, amul) if amul else basis + (v,), null)
            else:
                walk(i + 1, basis, null + 1)

    if levels:
        walk(0, (), 0)
    else:
        out.append(0)
    return bytes(out)


def circuit_picks(field: int, levels: Sequence[Sequence]) -> list[tuple]:
    """Every minimal dependent way to pick at most one vector per level, as
    its (level, candidate index) pairs in level order.  Vectors are packed
    as in leaf_nullities.

    One depth-first walk skips each level or picks one of its candidates,
    carrying the GF(2) echelon basis of the prefix picked so far.  Each
    pick is augmented: its vector shifted up above a block of tag bits, plus
    a unit tag bit at its depth.  Over GF(4) the tag block is a pair of
    w-bit planes, w at least the level count, which the a-multiple map acts
    on too, so each pick's tag pair records its GF(4) coefficient.  Pivots
    then stay in the shifted bits, and the tags of a remainder record which
    picks it combines.  A pick whose shifted part reduces to zero closes a
    circuit exactly when that dependency has full support (every pick's tag
    pair is nonzero); a dependent prefix is never extended.
    """
    n = len(levels)
    rows, w, amul = _doubled(field, levels, n)
    shift = w if amul is None else 2 * w  # the tag block: one w-bit plane or two
    tags = (1 << w) - 1
    augmented = [[v << shift for v in c] for c in rows]
    out: list[tuple] = []

    def walk(start, basis, picks):
        tag, full = 1 << len(picks), len(picks) + 1
        for i in range(start, n):
            for j, v in enumerate(augmented[i]):
                v |= tag
                for b in basis:  # the reduction of _echelon, inlined
                    r = v ^ b
                    if r < v:
                        v = r
                if v >> shift:
                    walk(i + 1, _with_a_multiple(basis, v, amul) if amul else basis + (v,),
                         picks + ((i, j),))
                elif ((v | v >> w) & tags).bit_count() == full:
                    out.append(picks + ((i, j),))

    walk(0, (), ())
    return out


def rank(m: GFMatrix) -> int:
    return rank_of_vectors(m.field, zip(m.row_lo, m.row_hi))


def rref(m: GFMatrix) -> tuple[GFMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (ascending).

    Two _echelon passes over the rows with their columns reversed, so that
    each row's top-bit pivot is its leftmost entry.  The first gives an
    echelon basis; the second, over that basis in ascending pivot order,
    clears every pivot column but the row's own.  Reversed back, the rows
    come in pivot order, zero rows last."""
    n, gf2 = m.cols, m.field == GF2

    def flip(x: int) -> int:  # the n low bits reversed; a sentinel bit pads x to n
        return int(bin(x | 1 << n)[:1:-1], 2) >> 1

    def by_pivot(basis) -> list:  # each row is 1 at its pivot, so lo's top bit is the pivot
        return sorted((b, 0) if gf2 else b[1:] for b in basis)

    rows = by_pivot(_echelon(m.field, by_pivot(_echelon(
        m.field, ((flip(lo), flip(hi)) for lo, hi in zip(m.row_lo, m.row_hi))))))[::-1]
    pad = [0] * (m.rows - len(rows))
    return (GFMatrix(m.field, m.rows, n, [flip(lo) for lo, _ in rows] + pad,
                     [flip(hi) for _, hi in rows] + pad),
            tuple(n - lo.bit_length() for lo, _ in rows))


def null_space(m: GFMatrix) -> list[tuple[int, ...]]:
    """Canonical right-kernel basis.

    One vector per free column, free columns in ascending index order; each
    vector has entry 1 at its free column and its remaining support on pivot
    columns (reduced column echelon form of the kernel).
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [0] * m.cols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = red.entry(i, f)  # -x == x in characteristic 2
        basis.append(tuple(vec))
    return basis


def symbol(value: int) -> str:
    return _SYMBOLS[value]


def parse_symbol(text: str, field: int) -> int:
    v = _VALUES.get(text)
    if v is None or (field == GF2 and v > 1):
        raise MalformedInput(f"bad GF({field}) entry {text!r}")
    return v


def parse_gfmat(text: str) -> GFMatrix:
    """Parse the .gfmat text format.

    Line 1: "field 2" or "field 4"; line 2: "<rows> <cols>"; then one row per
    line with entries from {0, 1, a, b} separated by spaces.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise MalformedInput("gfmat: missing header")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "field" or head[1] not in ("2", "4"):
        raise MalformedInput(f"gfmat: bad field line {lines[0]!r}")
    field = int(head[1])
    dims = lines[1].split()
    if len(dims) != 2:
        raise MalformedInput(f"gfmat: bad dimension line {lines[1]!r}")
    try:
        rows, cols = int(dims[0]), int(dims[1])
    except ValueError:
        raise MalformedInput(f"gfmat: bad dimension line {lines[1]!r}")
    if rows < 0 or cols < 0:
        raise MalformedInput("gfmat: negative dimensions")
    if len(lines) != 2 + rows:
        raise MalformedInput(f"gfmat: expected {rows} rows, got {len(lines) - 2}")
    entries = []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != cols:
            raise MalformedInput(f"gfmat: row {ln!r} has {len(toks)} entries, want {cols}")
        entries.append([parse_symbol(t, field) for t in toks])
    return GFMatrix.from_entries(field, entries, cols=cols)


def format_gfmat(m: GFMatrix) -> str:
    lines = [f"field {m.field}", f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(_SYMBOLS[e] for e in m.row_entries(i)))
    return "\n".join(lines) + "\n"
