"""Ordinary matroids, by GF(2)/GF(4) representation or by explicit circuits.

Represented matroids answer rank queries by column rank and list circuits by
fields.circuit_picks; circuit-list matroids use brute-force independence
checking, fine because every circuit-list fixture here has at most 9 elements,
and take the circuits of their minors and dual straight from the circuit list
(minimal_sets over C - X, and over the sets meeting no circuit in exactly one
element), with no rank query.  A matroid keeps no ranks: tutte, whose walk
asks for the same ones again, keeps its own.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Hashable, Iterable, Sequence

from . import fields
from .bounds import CYCLE_SPACE_COLS, MATROID_ENUM_BOUND, check_size
from .errors import (GroundMismatch, InternalInconsistency, LabelCollision,
                     MalformedInput, NotBinary, NotStandardForm,
                     OverlappingSets, UnknownElement)
from .fields import GFMatrix

Label = Hashable


def minimal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """The inclusion-minimal nonempty members of a family, by increasing
    size."""
    found: list[frozenset] = []
    for w in sorted({s for s in sets if s}, key=len):
        if not any(c <= w for c in found):
            found.append(w)
    return found


def rank_from_circuits(circuits: Iterable[frozenset], xs: frozenset) -> int:
    """Size of a largest subset of xs containing no circuit, by brute force."""
    inside = [c for c in circuits if c <= xs]
    if not inside:
        return len(xs)
    for size in range(len(xs) - 1, 0, -1):
        for sub in combinations(xs, size):
            w = frozenset(sub)
            if not any(c <= w for c in inside):
                return size
    return 0


class Matroid:
    """A matroid given either by a matrix representation or by its circuits."""

    __slots__ = ("ground", "_matrix", "_circuits", "_index")

    def __init__(self, ground: Sequence[Label], matrix: GFMatrix | None = None,
                 circuits: Iterable[frozenset] | None = None, validate: bool = True):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise LabelCollision("duplicate ground labels")
        self._matrix = matrix
        self._circuits = None
        if (matrix is None) == (circuits is None):
            raise MalformedInput("exactly one of matrix/circuits required")
        if matrix is not None:
            if matrix.cols != len(self.ground):
                raise MalformedInput("matrix column count != ground size")
        else:
            fam = tuple(sorted({frozenset(c) for c in circuits},
                               key=lambda c: tuple(sorted(map(self._key, c)))))
            gset = set(self.ground)
            for c in fam:
                if not c:
                    raise MalformedInput("empty circuit")
                if not c <= gset:
                    raise UnknownElement(f"circuit {set(c)} leaves the ground set")
            self._circuits = fam
            if validate and len(self.ground) <= 12:
                self._validate_circuit_axioms()
        self._index = {e: i for i, e in enumerate(self.ground)}

    @staticmethod
    def _key(label):
        return (str(type(label)), repr(label))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix: GFMatrix, ground: Sequence[Label] | None = None) -> "Matroid":
        if ground is None:
            ground = tuple(range(matrix.cols))
        return cls(ground, matrix=matrix)

    @classmethod
    def uniform(cls, r: int, n: int) -> "Matroid":
        ground = tuple(range(n))
        circuits = [frozenset(c) for c in combinations(ground, r + 1)] if r < n else []
        return cls(ground, circuits=circuits)

    # -- validation ---------------------------------------------------------

    def _validate_circuit_axioms(self):
        fam = self._circuits
        for c1, c2 in combinations(fam, 2):
            if c1 <= c2 or c2 <= c1:
                raise MalformedInput(f"circuits {set(c1)} and {set(c2)} are nested")
        for c1, c2 in combinations(fam, 2):
            for e in c1 & c2:
                union = (c1 | c2) - {e}
                if not any(c3 <= union for c3 in fam):
                    raise MalformedInput("circuit elimination fails for "
                                         f"{set(c1)}, {set(c2)} at {e!r}")

    # -- basics -------------------------------------------------------------

    @property
    def is_represented(self) -> bool:
        return self._matrix is not None

    @property
    def matrix(self) -> GFMatrix | None:
        return self._matrix

    @property
    def size(self) -> int:
        return len(self.ground)

    def _check_subset(self, x: Iterable[Label]) -> frozenset:
        xs = frozenset(x)
        for e in xs:
            if e not in self._index:
                raise UnknownElement(f"{e!r} is not a ground element")
        return xs

    def rank_of(self, x: Iterable[Label]) -> int:
        xs = self._check_subset(x)
        if self._matrix is None:
            return rank_from_circuits(self._circuits, xs)
        packed = self._matrix.columns_packed()
        return fields.rank_of_vectors(self._matrix.field, (packed[self._index[e]] for e in xs))

    def circuits(self) -> list[frozenset]:
        """All minimal dependent subsets, lexicographically sorted."""
        check_size(self.size, MATROID_ENUM_BOUND, "circuits")
        if self._circuits is not None:
            return list(self._circuits)
        gf2 = self._matrix.field == fields.GF2
        found = fields.circuit_picks(self._matrix.field, [
            [c[0] if gf2 else c] for c in self._matrix.columns_packed()])
        return sorted((frozenset(self.ground[i] for i, _ in pick) for pick in found),
                      key=lambda c: tuple(sorted(map(self._key, c))))

    # -- structure operations ------------------------------------------------

    def standard_form(self) -> "Matroid":
        """Row-reduce a represented matroid so the lexicographically least
        basis becomes an identity block (labels unchanged)."""
        if self._matrix is None:
            return self
        red, pivots = fields.rref(self._matrix)
        lo = red.row_lo[:len(pivots)]
        hi = red.row_hi[:len(pivots)]
        return Matroid(self.ground,
                       matrix=GFMatrix(red.field, len(pivots), red.cols, lo, hi))

    def _identity_columns(self) -> dict[int, Label] | None:
        """Map row index -> label of its unit column, if a full identity
        block exists among the columns; None otherwise."""
        m = self._matrix
        packed = m.columns_packed()
        found: dict[int, Label] = {}
        for e in self.ground:
            lo, hi = packed[self._index[e]]
            if hi == 0 and lo != 0 and lo & (lo - 1) == 0:
                i = lo.bit_length() - 1
                if i not in found:
                    found[i] = e
        if len(found) == m.rows:
            return found
        return None

    def dual(self) -> "Matroid":
        """Dual matroid; bases of the output are complements of bases of
        the input."""
        if self._matrix is not None:
            m = self._matrix
            if fields.rank(m) != m.rows:
                raise NotStandardForm("matrix has dependent rows; pivot first")
            unit = self._identity_columns()
            if unit is None:
                raise NotStandardForm("no identity block; pivot first")
            basis_labels = [unit[i] for i in range(m.rows)]
            cobasis = [e for e in self.ground if e not in set(basis_labels)]
            packed = m.columns_packed()
            cols = {f: (1 << j, 0) for j, f in enumerate(cobasis)}
            for i, b in enumerate(basis_labels):
                # row i of the cobasis block: -A^T == A^T in characteristic 2
                lo = hi = 0
                for j, f in enumerate(cobasis):
                    flo, fhi = packed[self._index[f]]
                    lo |= ((flo >> i) & 1) << j
                    hi |= ((fhi >> i) & 1) << j
                cols[b] = (lo, hi)
            return Matroid(self.ground, matrix=GFMatrix.from_columns(
                m.field, len(cobasis), [cols[e] for e in self.ground]))
        # circuit list: the cocircuits are the minimal nonempty sets that
        # meet no circuit in exactly one element
        cocycles = (w for k in range(1, self.size + 1)
                    for w in map(frozenset, combinations(self.ground, k))
                    if all(len(c & w) != 1 for c in self._circuits))
        return Matroid(self.ground, circuits=minimal_sets(cocycles), validate=False)

    def minor(self, contract: Iterable[Label] = (), delete: Iterable[Label] = ()) -> "Matroid":
        con = self._check_subset(contract)
        dele = self._check_subset(delete)
        if con & dele:
            raise OverlappingSets(f"contract and delete share {set(con & dele)}")
        keep = [e for e in self.ground if e not in con and e not in dele]
        if self._matrix is not None:
            m, col = self._matrix, dict(zip(self.ground, self._matrix.columns_packed()))
            r, cols = fields.contract_columns(m.field, [col[e] for e in self.ground if e in con],
                                              [col[e] for e in keep])
            return Matroid(keep, matrix=GFMatrix.from_columns(m.field, m.rows - r, cols))
        circuits = minimal_sets(c - con for c in self._circuits if not c & dele)
        return Matroid(keep, circuits=circuits, validate=False)

    def direct_sum(self, other: "Matroid") -> "Matroid":
        overlap = set(self.ground) & set(other.ground)
        if overlap:
            raise LabelCollision(f"shared labels {overlap}")
        ground = self.ground + other.ground
        if (self._matrix is not None and other._matrix is not None
                and self._matrix.field == other._matrix.field):
            a, b = self._matrix, other._matrix
            top = a.hstack(GFMatrix.zero(a.field, a.rows, b.cols))
            bottom = GFMatrix.zero(a.field, b.rows, a.cols).hstack(b)
            mat = GFMatrix(a.field, a.rows + b.rows, a.cols + b.cols,
                           top.row_lo + bottom.row_lo, top.row_hi + bottom.row_hi)
            return Matroid(ground, matrix=mat)
        return Matroid(ground,
                       circuits=list(self.circuits()) + list(other.circuits()),
                       validate=False)

    def orthogonal(self, other: "Matroid") -> bool:
        """True iff every circuit of self meets every circuit of other in a
        number of elements different from one."""
        if set(self.ground) != set(other.ground):
            raise GroundMismatch("orthogonality needs a common ground set")
        cs1 = self.circuits()
        cs2 = other.circuits()
        return all(len(c1 & c2) != 1 for c1 in cs1 for c2 in cs2)

    def cycle_space(self) -> list[frozenset]:
        """All cycles (disjoint unions of circuits) of a binary represented
        matroid, canonically ordered."""
        if self._matrix is None or self._matrix.field != fields.GF2:
            raise NotBinary("cycle space needs a GF(2) representation")
        check_size(self.size, CYCLE_SPACE_COLS, "cycle_space")
        kernel = fields.null_space(self._matrix)
        cycles = set()
        for bits in range(1 << len(kernel)):
            vec = [0] * self.size
            for i in range(len(kernel)):
                if (bits >> i) & 1:
                    vec = [a ^ b for a, b in zip(vec, kernel[i])]
            cycles.add(frozenset(self.ground[j] for j, v in enumerate(vec) if v))
        for cyc in cycles:
            self._verify_disjoint_circuit_union(cyc)
        return sorted(cycles, key=lambda c: (len(c), tuple(sorted(map(self._key, c)))))

    def _verify_disjoint_circuit_union(self, cycle: frozenset) -> None:
        rest = set(cycle)
        while rest:
            if self.rank_of(rest) == len(rest):
                raise InternalInconsistency(f"{set(cycle)} is not a circuit union")
            circ = set(rest)
            shrunk = True
            while shrunk:
                shrunk = False
                for e in sorted(circ, key=self._key):
                    smaller = circ - {e}
                    if smaller and self.rank_of(smaller) < len(smaller):
                        circ = smaller
                        shrunk = True
            rest -= circ

    def tutte(self, x, y):
        """Deletion-contraction evaluation of the two-variable rank polynomial
        at (x, y); loops contribute y, coloops x."""
        check_size(self.size, MATROID_ENUM_BOUND, "tutte")
        memo: dict[tuple[frozenset, frozenset], object] = {}
        rank = cache(self.rank_of)

        def rank_minor(con: frozenset, xs: frozenset) -> int:
            return rank(xs | con) - rank(con)

        def walk(con: frozenset, dele: frozenset):
            key = (con, dele)
            hit = memo.get(key)
            if hit is not None:
                return hit
            rest = [e for e in self.ground if e not in con and e not in dele]
            if not rest:
                memo[key] = 1
                return 1
            e = rest[0]
            es = frozenset([e])
            if rank_minor(con, es) == 0:  # loop
                val = y * walk(con, dele | es)
            elif rank_minor(con, frozenset(rest)) > rank_minor(con, frozenset(rest[1:])):
                val = x * walk(con | es, dele)  # coloop
            else:
                val = walk(con, dele | es) + walk(con | es, dele)
            memo[key] = val
            return val

        return walk(frozenset(), frozenset())

    def __repr__(self) -> str:
        kind = "matrix" if self._matrix is not None else f"{len(self._circuits)} circuits"
        return f"Matroid({list(self.ground)!r}, {kind})"
