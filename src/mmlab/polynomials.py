"""Exact univariate polynomials and the transversal-sum polynomials.

The weighted transition polynomial of a multimatroid sums, over all
transversals, the product of the element weights times y raised to the
transversal's nullity, read from the one nullity table the multimatroid
keeps.  The interlace, global interlace and bracket polynomials of a graph
are subset sums of shifted powers over GF(2) nullities, one
fields.leaf_nullities walk per vertex mask, and are expanded to the
standard y basis immediately.  Unweighted sums count nullity bytes (of the
table, a slice of it, or the joined walks); only weighted sums multiply.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Mapping

from .bounds import (ORDER_GENERAL, TUTTE_DIAGONAL_SIZE, VERTEX_GLOBAL_INTERLACE,
                     VERTEX_INTERLACE, check_order, check_size)
from .errors import (Degenerate, IncompleteWeights, MalformedInput,
                     NotSubtransversal)
from .fields import GF2, leaf_nullities
from .matroids import Matroid
from .multimatroids import Element, Multimatroid, as_subtransversal, dual_pair


class Polynomial:
    """Dense univariate polynomial in y with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        return Polynomial(a * c for a in self.coeffs)

    def __call__(self, y):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = [f"{c}*y^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + " + ".join(terms) + ")"


def shifted_power_sum(counts: Mapping[int, object], shift: int) -> Polynomial:
    """Expand a sum of c_n * (y + shift)^n into the standard basis:
    the y^k coefficient is the sum over n of c_n * C(n, k) * shift^(n-k)."""
    if not counts:
        return Polynomial.zero()
    out = [0] * (max(counts) + 1)
    for n, c in counts.items():
        if c:
            for k in range(n + 1):
                out[k] += c * comb(n, k) * shift ** (n - k)
    return Polynomial(out)


# -- transition polynomials ---------------------------------------------------


def q1(z: Multimatroid) -> Polynomial:
    """Transversal nullity generating polynomial (all weights one);
    integer coefficients, nonnegative, summing to the transversal count."""
    z._check_enum_bounds(ORDER_GENERAL, "q1")
    return Polynomial(z.nullity_histogram())


def q1_avoiding(z: Multimatroid, banned: Iterable[Element]) -> Polynomial:
    """q1 of the deletion of the banned elements, computed in place over the
    transversals that avoid them."""
    z._check_enum_bounds(ORDER_GENERAL, "q1_avoiding")
    return Polynomial(z.nullity_histogram(banned))


def transition(z: Multimatroid, weights: Mapping[Element, object]) -> Polynomial:
    """Weighted transition polynomial with exact rational weights."""
    z._check_enum_bounds(ORDER_GENERAL, "transition")
    for e in z.carrier.elements():
        if e not in weights:
            raise IncompleteWeights(f"missing weight for {e}")
        if not isinstance(weights[e], (int, Fraction)):
            raise MalformedInput(f"weight for {e} is not an int or Fraction: {weights[e]!r}")
    return Polynomial(z.nullity_histogram(
        weights={e: Fraction(weights[e]) for e in z.carrier.elements()}))


def q1_expansion(z: Multimatroid, t: Iterable[Element], direction: str) -> Polynomial:
    """Subset expansions of the transversal-sum polynomial over one
    transversal.

    direction "minus" evaluates the signed expansion equal to q1 of the
    deletion of t; direction "plus" evaluates the unsigned expansion equal
    to q1 of z itself.
    """
    check_order(z.order, ORDER_GENERAL, "q1_expansion")
    if not z.is_nondegenerate():
        raise Degenerate("expansion needs a nondegenerate multimatroid")
    tt = as_subtransversal(z.carrier, t)
    if len(tt) != z.order:
        raise NotSubtransversal("expansion needs a full transversal")
    total = Polynomial.zero()
    for size in range(len(tt) + 1):
        for sub in combinations(tt, size):
            f = frozenset(sub)
            nf = len(f) - z._rank(f)
            zf = z.minor(f)
            if direction == "minus":
                term = q1(zf).scale((-1) ** size)
            elif direction == "plus":
                emap = z.minor_class_map(f)
                inv = {c: i for i, c in enumerate(emap)}
                rest = [(inv[c], s) for (c, s) in tt if c in inv]
                term = q1(zf.delete(rest))
            else:
                raise MalformedInput(f"unknown direction {direction!r}")
            total = total + Polynomial.monomial(nf) * term
    return total


def tutte_diagonal(m: Matroid, x):
    """Diagonal Tutte value computed through the paired 2-matroid."""
    check_size(m.size, TUTTE_DIAGONAL_SIZE, "tutte_diagonal")
    z = dual_pair(m)
    return q1(z)(Fraction(x) - 1)


# -- graph polynomials ----------------------------------------------------------


def _toggle_histogram(g, xmasks: Iterable[int], toggled: bool) -> dict[int, int]:
    """Nullity counts of the induced subgraphs on the vertex masks, over
    every loop toggle of their vertices when toggled.  Each mask makes one
    walk, whose levels are its vertices v: the row adj[v] & mask, plus that
    row with the loop at v flipped.  The walks' bytes are joined, and each
    nullity is counted once."""
    adj, bits = g.adj_masks, [1 << v for v in range(g.n)]
    leaves = b"".join(leaf_nullities(GF2, [[row, row ^ bit] if toggled else [row]
                                           for a, bit in zip(adj, bits) if xmask & bit
                                           for row in (a & xmask,)])
                      for xmask in xmasks)
    return {n: leaves.count(n) for n in range(g.n + 1)}


def interlace(g) -> Polynomial:
    """Induced-subgraph nullity polynomial in (y - 1)."""
    check_size(g.n, VERTEX_INTERLACE, "interlace")
    return shifted_power_sum(_toggle_histogram(g, range(1 << g.n), False), -1)


def global_interlace(g) -> Polynomial:
    """Loop-toggled induced-subgraph nullity polynomial in (y - 2)."""
    check_size(g.n, VERTEX_GLOBAL_INTERLACE, "global_interlace")
    return shifted_power_sum(_toggle_histogram(g, range(1 << g.n), True), -2)


def bracket(g) -> Polynomial:
    """Loop-toggle nullity polynomial over the full vertex set: one walk
    whose level v is the row of v, plus that row with the loop at v flipped."""
    check_size(g.n, VERTEX_INTERLACE, "bracket")
    leaves = leaf_nullities(GF2, [[row, row ^ 1 << v] for v, row in enumerate(g.adj_masks)])
    return Polynomial(map(leaves.count, range(g.n + 1)))
