"""Orienting transversals and the evaluation suite.

A transversal is orienting when deleting it leaves a tight multimatroid.
Brute-force enumeration tests that definition on every transversal at once,
bit-parallel over one bit set per missing class; it builds no deletion, but
reads the closure tables that the multimatroid keeps for its validators
(multimatroids._closure_masks, sliced from its table of transversal
nullities).  The coset construction over one seed transversal is the
accelerated route, for binary tight 3-matroids only, and the two must agree
set for set.

A multimatroid keeps its deletion tables in its memo, and they keep its
orienting bit set and that set's transversals, decoded once: brute force,
the coset route's seed check and the evaluation suite all read them.

The evaluation suite scales its rational weights to integers by their
common denominator, so its sums are exact ints and only the reported sides
are Fractions.  Its minor expansion reads the orienting counts of the minors
from the same bit sets, sliced; it builds no minor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Mapping

from .bounds import ORDER_EVALS, ORDER_ORT, check_order
from .errors import Degenerate, NotBinaryTight3, NotOrienting, NotTight, NotTriple
from .multimatroids import (Element, Multimatroid, _closure_masks, _masks, _nullity_table,
                            _slot_masks, _table_indices, as_subtransversal,
                            cycle_space_avoiding, element_label, near_transversal_scan,
                            odd_skew_pair, tight_quick)
from .polynomials import Polynomial
from .serialize import fraction_str

_WEIGHT_SEED = 20260809


def orienting_transversals(z: Multimatroid) -> list[tuple[Element, ...]]:
    """All transversals whose deletion is tight, in canonical order."""
    if not z.is_nondegenerate():
        raise Degenerate("orienting transversals need a nondegenerate multimatroid")
    z._check_enum_bounds(ORDER_ORT, "orienting_transversals")
    return list(_deletion_tables(z).transversals)


def _deletion_tables(z: Multimatroid) -> "_DeletionTables":
    """The deletion tables of a nondegenerate z, kept in its memo."""
    if "deletion" not in z._kept:
        z._kept["deletion"] = _DeletionTables(z)
    return z._kept["deletion"]


class _DeletionTables:
    """The deletion test on a nondegenerate z, bit-parallel: bit i of a bit
    set is the i-th transversal of z in product (canonical) order.  z - T
    is tight exactly when every near-transversal S of z avoiding T has
    exactly one element of its missing class, other than T's own, in the
    closure of S.  For each class miss, ok[miss] has T's bit when the
    closure of T's picks on the other classes, less T's slot at miss, is one
    element; they are read from the closure table z keeps for miss.  "Every
    pick avoiding T passes" is an AND over a product set, taken one axis at
    a time.  A minor z/f has the closures of z at picks extended by f, so
    its orienting transversals are the bits passing the test on the classes
    f leaves free, sliced at f."""

    def __init__(self, z: Multimatroid):
        sizes = z.carrier.class_sizes
        self.axes = [(k, prod(sizes[c + 1:])) for c, k in enumerate(sizes)]  # (size, stride)
        self.full = (1 << z.carrier.transversal_count()) - 1
        self.slot = _slot_masks(sizes)
        self._passing: dict[tuple, int] = {}
        for miss, (k, s) in enumerate(self.axes):
            oks = bytes((1 << k) - 1 & ~m if m.bit_count() == 1 else m if m.bit_count() == 2 else 0
                        for m in _closure_masks(z, miss))
            masks = bytes(range(1 << k))
            cols = [oks.translate(bytes.maketrans(masks, bytes(48 + (m >> t & 1) for m in masks)))
                    for t in range(k)]  # per slot t: "1" at each pick that allows t
            # T's index is hi * k * s + t * s + lo, and its pick's hi * s + lo
            self._passing[miss, ()] = int(b"".join(
                col[hi * s:hi * s + s] for hi in range(len(oks) // s) for col in cols)[::-1], 2)
        self.bits = self.orienting()
        self.transversals = [tuple((c, i // s % k) for c, (k, s) in enumerate(self.axes))
                             for i, bit in enumerate(format(self.bits, "b")[::-1]) if bit == "1"]

    def passing(self, miss: int, axes: tuple) -> int:
        """ok[miss] after the AND along each axis, kept for the minors that
        share a prefix: T passes axis c when each other slot there passes."""
        if (miss, axes) not in self._passing:
            bits, (k, s) = self.passing(miss, axes[:-1]), self.axes[axes[-1]]
            out = 0
            for t, acc in enumerate(self.slot[axes[-1]]):
                for p in range(k):
                    if p != t:
                        acc &= bits << (t - p) * s if t > p else bits >> (p - t) * s
                out |= acc
            self._passing[miss, axes] = out
        return self._passing[miss, axes]

    def orienting(self, fixed: frozenset = frozenset()) -> int:
        """The bits of the T whose picks off the fixed classes form an
        orienting transversal of the minor by their picks on them."""
        free = [c for c in range(len(self.axes)) if c not in fixed]
        bits = self.full
        for miss in free:
            bits &= self.passing(miss, tuple(c for c in free if c != miss))
        return bits

    def minor_count(self, f: tuple[Element, ...]) -> int:
        """len(orienting_transversals(z.minor(f)))."""
        bits = self.orienting(frozenset(c for c, _ in f))
        for c, s in f:
            bits &= self.slot[c][s]
        return bits.bit_count()


def disjoint_orienting(z: Multimatroid, t: Iterable[Element]) -> list[tuple[Element, ...]]:
    """Orienting transversals avoiding the given transversal."""
    tt = set(as_subtransversal(z.carrier, t))
    return [y for y in orienting_transversals(z) if tt.isdisjoint(y)]


def is_orienting(z: Multimatroid, t: Iterable[Element]) -> bool:
    """Circuit-intersection test on a tight nondegenerate multimatroid: a
    transversal is orienting iff it never meets a circuit in exactly one
    element, read on bit masks.  Anything but a transversal raises
    NotOrienting."""
    if not z.is_nondegenerate():
        raise Degenerate("is_orienting needs a nondegenerate multimatroid")
    if not tight_quick(z):
        raise NotTight("is_orienting needs a tight multimatroid")
    tt = as_subtransversal(z.carrier, t)
    if len(tt) != z.order:
        raise NotOrienting("tested set must be a transversal")
    (tmask,) = _masks(z.carrier, [tt])
    return all((m & tmask).bit_count() != 1 for m in _masks(z.carrier, z.circuits()))


def orienting_from_seed(z: Multimatroid, seed: Iterable[Element]) -> list[tuple[Element, ...]]:
    """Coset route: seed plus each cycle of the deletion of the seed, under
    the triple-carrier sum.  It holds on binary tight 3-matroids only, so
    after the seed check z must pass _validate_binary_tight3.  A cycle
    avoids the seed, so the sum flips the seed's slot s0 to 3 - s0 - s at
    each element (c, s) of the cycle and keeps it elsewhere."""
    if not z.is_nondegenerate():
        raise Degenerate("orienting transversals need a nondegenerate multimatroid")
    z._check_enum_bounds(ORDER_ORT, "orienting_from_seed")
    t0 = as_subtransversal(z.carrier, seed)
    if len(t0) != z.order:
        raise NotOrienting("seed must be a transversal")
    tables = _deletion_tables(z)
    if not tables.bits >> sum(s * stride for (_, s), (_, stride) in zip(t0, tables.axes)) & 1:
        raise NotOrienting("seed transversal is not orienting")
    if not z.carrier.is_uniform(3):
        raise NotTriple("sum needs class size 3 everywhere")
    _validate_binary_tight3(z)
    out = []
    for cycle in cycle_space_avoiding(z, t0):
        slots = [s for _, s in t0]
        for c, s in cycle:
            slots[c] = 3 - slots[c] - s
        out.append(tuple(enumerate(slots)))
    return sorted(out)


# -- evaluation suite ------------------------------------------------------------


@dataclass
class EvalIdentity:
    name: str
    lhs: Fraction
    rhs: Fraction
    passed: bool
    odd_factor: int | None = None


@dataclass
class EvalReport:
    order: int
    transversal: tuple
    ort_count: int
    identities: list[EvalIdentity] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.identities)

    def to_dict(self) -> dict:
        out = {
            "order": self.order,
            "transversal": [element_label(e) for e in self.transversal],
            "ort_count": self.ort_count,
            "pass": self.passed,
            "identities": [],
        }
        for i in self.identities:
            rec = {"name": i.name, "lhs": fraction_str(i.lhs), "rhs": fraction_str(i.rhs),
                   "pass": i.passed}
            if i.odd_factor is not None:
                rec["odd_factor"] = str(i.odd_factor)
            out["identities"].append(rec)
        return out


def _validate_binary_tight3(z: Multimatroid) -> None:
    """Raise NotBinaryTight3 unless z is a binary tight 3-matroid.  One
    near_transversal_scan, or the one kept on z, tells "not tight" from "not
    a multimatroid"; odd_skew_pair, also kept on z, tests binarity."""
    if not z.carrier.is_uniform(3):
        raise NotBinaryTight3("carrier must have class size 3 throughout")
    excess, loose = near_transversal_scan(z, "is_tight")
    if loose is not None:
        raise NotBinaryTight3("not tight" if excess is None else "not a multimatroid")
    if odd_skew_pair(z) is not None:
        raise NotBinaryTight3("circuit union with an odd number of skew pairs")


def _scaled_weights(weights: Mapping[Element, Fraction]) -> tuple[int, dict]:
    """(L, integer weights): L is the lcm of the weight denominators and
    each weight is scaled by L, so a product of k weights is scaled by L^k."""
    scale = lcm(*(w.denominator for w in weights.values()))
    return scale, {e: w.numerator * (scale // w.denominator) for e, w in weights.items()}


def _transition_eval(z: Multimatroid, weights, ys,
                     banned: frozenset = frozenset()) -> list:
    """The weighted transition polynomial of z without the banned elements,
    built once and evaluated at each y; int weights and ys give ints."""
    p = Polynomial(z.nullity_histogram(banned, weights))
    return [p(y) for y in ys]


def _q1_eval(z: Multimatroid, ys, banned: frozenset = frozenset()) -> list:
    """The unweighted case of _transition_eval."""
    return _transition_eval(z, None, ys, banned)


def evaluation_suite(z: Multimatroid, t: Iterable[Element]) -> EvalReport:
    """Exact cross-checks of the transversal-sum evaluations against the
    orienting-transversal side, on a validated binary tight 3-matroid.

    The weights are rationals, scaled to integers by their common
    denominator L: every weighted sum is a sum of products of one weight
    per class, so both of its sides are ints scaled by L^order, and only the
    reported lhs and rhs are Fractions."""
    check_order(z.order, ORDER_EVALS, "evaluation_suite")
    _validate_binary_tight3(z)
    tt = as_subtransversal(z.carrier, t)
    if len(tt) != z.order:
        raise NotBinaryTight3("reference transversal must be total")

    ell, nullities = z.order, _nullity_table(z)
    tables = _deletion_tables(z)
    ort_all = [frozenset(y) for y in tables.transversals]
    report = EvalReport(order=ell, transversal=tt, ort_count=len(ort_all))
    ids = report.identities

    def nullity(y) -> int:
        """n(y) of a transversal y, in class order, read from z's nullity table."""
        return nullities[_table_indices(z.carrier, [[s] for _, s in y])[0]]

    def check(name: str, lhs: int, rhs: int, scale: int = 1) -> None:
        ids.append(EvalIdentity(name, Fraction(lhs, scale), Fraction(rhs, scale),
                                lhs == rhs))

    rng = random.Random(_WEIGHT_SEED + 7 * ell)
    lcd, weights = _scaled_weights(
        {e: Fraction(rng.randint(1, 9), rng.randint(1, 4))
         for e in sorted(z.carrier.elements())})
    scale = lcd ** ell
    halving_ys = [2 * rng.randint(-12, 12) for _ in range(5)]
    at_2, at_4, *at_halving_ys = _transition_eval(z, weights, [2, 4] + halving_ys)
    q1_at_2, q1_at_4, q1_at_m4 = _q1_eval(z, (2, 4, -4))

    totals = [sum(weights[x] for x in z.carrier.skew_class(c)) for c in range(ell)]

    @cache  # the unions y1 | y2 repeat
    def class_product(excluded: frozenset) -> int:
        """The product over the classes of their weight totals less the
        excluded elements' weights."""
        sums = totals[:]
        for c, s in excluded:
            sums[c] -= weights[c, s]
        return prod(sums)

    # weighted power-of-two evaluations, one and two orienting layers deep
    layers = (ort_all, [y1 | y2 for y1 in ort_all for y2 in ort_all])
    for level, lhs, merged in zip((1, 2), (at_2, at_4), layers):
        check(f"weighted_pow2_depth{level}", lhs,
              sum(class_product(m) for m in merged), scale)

    # the depth-one evaluation, reformulated per orienting transversal
    check("weighted_at_2_per_class", at_2,
          sum(prod(totals[c] - weights[c, s] for c, s in y1) for y1 in ort_all),
          scale)

    # unweighted evaluation at 2
    check("q1_at_2", q1_at_2, len(ort_all) * 2 ** ell)

    # deleted evaluation at 2 against intersection sizes
    tset = frozenset(tt)
    lhs_del2, lhs_delm2 = _q1_eval(z, (2, -2), banned=tset)
    check("q1_deleted_at_2_vs_meets", lhs_del2, sum(2 ** len(y & tset) for y in ort_all))

    # minor expansion of the same value, and the odd cofactor
    rank_t = ell - nullity(tt)
    rhs5 = 0
    k = 0
    for size in range(ell + 1):
        for sub in combinations(tt, size):
            cnt = tables.minor_count(sub)
            rf = z._rank(frozenset(sub))
            rhs5 += (-1) ** size * cnt * 2 ** (ell - rf)
            k += (-1) ** size * cnt * 2 ** (rank_t - rf)
    check("q1_deleted_at_2_minor_expansion", lhs_del2, rhs5)

    n_t = ell - rank_t
    ids.append(EvalIdentity("odd_cofactor_times_2pow", Fraction(lhs_del2),
                            Fraction(k * 2 ** n_t),
                            lhs_del2 == k * 2 ** n_t and k % 2 == 1,
                            odd_factor=k))
    ids.append(EvalIdentity("odd_cofactor_times_abs_at_minus2", Fraction(lhs_del2),
                            Fraction(k * abs(lhs_delm2)),
                            lhs_del2 == k * abs(lhs_delm2) and k % 2 == 1,
                            odd_factor=k))

    # residue of the deleted sum at -2
    check("deleted_residue_at_minus2", lhs_delm2, (-1) ** ell * (-2) ** n_t)

    # evaluation at 4 against pairwise intersections
    check("q1_at_4_pairwise", q1_at_4,
          sum(2 ** len(y1 & y2) for y1 in ort_all for y2 in ort_all))

    # signed evaluation at -4 against orienting nullities
    check("q1_at_minus4_signed", q1_at_m4,
          (-1) ** ell * sum((-2) ** nullity(y) for y in tables.transversals))

    # halving decomposition at five random even integers
    halved = [_transition_eval(z, weights, [y // 2 for y in halving_ys], banned=y1)
              for y1 in ort_all]
    for i, (y, lhs) in enumerate(zip(halving_ys, at_halving_ys)):
        check(f"halving_at_{y}", lhs, sum(vals[i] for vals in halved), scale)

    return report
