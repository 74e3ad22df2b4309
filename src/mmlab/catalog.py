"""Fixed fixtures, minor scanning, strongly-binary reconstruction,
classification of tight 3-matroids, tight-extension search, and basis
parity counts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import prod
from typing import Iterable

from .bounds import (ORDER_CLASSIFY, ORDER_EXTENSION, ORDER_MINOR_SCAN,
                     ORDER_STRONGLY_BINARY, check_order)
from .errors import (Degenerate, GroundMismatch, InternalInconsistency,
                     NoBasis, NotClassUnion, NotTight, NotTriple, UnknownElement)
from .fields import GF2, GF4, GFMatrix
from .isotropic import IsotropicBuild, isotropic_multimatroid, pair_multimatroid
from .matroids import Matroid, minimal_sets
from .multimatroids import (Carrier, Element, Multimatroid, _nullity_table, _rank_table,
                            _rank_table_index, _table_indices, as_subtransversal,
                            carrier_elements, check_iso_bounds, dual_pair, is_tight,
                            isomorphic, odd_skew_pair, same_rank_oracle, tight_quick)

_A = 0
_B = 1


def _two_carrier_circuits(order: int, families) -> Multimatroid:
    return Multimatroid(Carrier.uniform(order, 2),
                        circuits=[frozenset(c) for c in families])


def fixture_s1() -> Multimatroid:
    return _two_carrier_circuits(3, [
        {(0, _A), (1, _B), (2, _B)},
        {(0, _B), (1, _A), (2, _B)},
        {(0, _B), (1, _B), (2, _A)},
    ])


def fixture_s2() -> Multimatroid:
    return _two_carrier_circuits(3, [{(0, _A), (1, _A), (2, _A)}])


def fixture_s3() -> Multimatroid:
    return _two_carrier_circuits(3, [
        {(0, _A), (1, _A), (2, _A)},
        {(0, _B), (1, _B), (2, _B)},
    ])


def fixture_s4() -> Multimatroid:
    return _two_carrier_circuits(4, [
        {(0, _A), (1, _B), (2, _B), (3, _B)},
        {(0, _B), (1, _A), (2, _B), (3, _B)},
        {(0, _B), (1, _B), (2, _A), (3, _B)},
        {(0, _B), (1, _B), (2, _B), (3, _A)},
        {(0, _A), (1, _A), (2, _A)},
        {(0, _A), (1, _A), (3, _A)},
        {(0, _A), (2, _A), (3, _A)},
        {(1, _A), (2, _A), (3, _A)},
    ])


def fixture_s5() -> Multimatroid:
    circuits = []
    for slot in (_A, _B):
        whole = {(c, slot) for c in range(4)}
        for drop in range(4):
            circuits.append(whole - {(drop, slot)})
    return _two_carrier_circuits(4, circuits)


@cache  # the classifier's minor pattern; a build is never mutated
def fixture_h33() -> IsotropicBuild:
    a = GFMatrix.from_entries(GF4, [[0, 1, 2], [1, 0, 1], [3, 1, 0]])
    return isotropic_multimatroid(a)


def u24_quaternary() -> Matroid:
    mat = GFMatrix.from_entries(GF4, [[1, 0, 1, 1], [0, 1, 1, 2]])
    return Matroid.from_matrix(mat)


def fixture_z_u24() -> Multimatroid:
    return dual_pair(u24_quaternary())


def fixture_z_u24_triple() -> IsotropicBuild:
    from .isotropic import z_quaternary
    return z_quaternary(u24_quaternary())


FIXTURE_NAMES = ("s1", "s2", "s3", "s4", "s5", "h33", "z-u24", "z-u24-3")


def fixture(name: str) -> Multimatroid:
    builders = {
        "s1": fixture_s1, "s2": fixture_s2, "s3": fixture_s3,
        "s4": fixture_s4, "s5": fixture_s5,
    }
    if name in builders:
        return builders[name]()
    if name == "h33":
        return fixture_h33().multimatroid
    if name == "z-u24":
        return fixture_z_u24()
    if name == "z-u24-3":
        return fixture_z_u24_triple().multimatroid
    raise UnknownElement(f"no fixture named {name!r}")


# -- minor scanning ---------------------------------------------------------------


def _minor_histograms(z: Multimatroid):
    """The map from a subtransversal X of z to the histogram of n(T) over the
    transversals T of z that hold X, read from z's nullity table: the nullity
    histogram of z/X shifted up by n(X).  A position in the table is linear
    in the slots, so T sits at X's position, the sum of its slots times their
    classes' strides, plus that of T - X (slot 0 on X's classes), which is
    kept per set of touched classes."""
    sizes, table, order = z.carrier.class_sizes, _nullity_table(z), z.order
    strides = [prod(sizes[c + 1:]) for c in range(order)]
    offsets: dict[frozenset, list[int]] = {}

    def histogram(x) -> list[int]:
        touched = frozenset(c for c, _ in x)
        if touched not in offsets:
            offsets[touched] = _table_indices(
                z.carrier, [(0,) if c in touched else range(k) for c, k in enumerate(sizes)])
        base, hist = sum(s * strides[c] for c, s in x), [0] * (order + 1)
        for o in offsets[touched]:
            hist[table[base + o]] += 1
        return hist

    return histogram


def has_minor(z: Multimatroid, pattern: Multimatroid):
    """First subtransversal X (lexicographically) whose minor is isomorphic
    to the pattern, with the witness map from pattern elements into original
    elements of z; None when no minor matches.  q1 is an isomorphism
    invariant, so a minor is built and searched only when its carrier and
    its histogram, sliced from z's nullity table, equal the pattern's from
    the first nonzero entry of each.  Only the subtransversals of size
    order(z) - order(pattern) are made: one slot per class of each set of
    that many classes."""
    z._check_enum_bounds(ORDER_MINOR_SCAN, "has_minor")
    drop = z.order - pattern.order
    if drop < 0:
        return None
    want, histogram, sizes = pattern.nullity_histogram(), None, z.carrier.class_sizes
    want = want[next(i for i, n in enumerate(want) if n):]
    for x in sorted(tuple(zip(cs, ss)) for cs in combinations(range(z.order), drop)
                    for ss in product(*[range(sizes[c]) for c in cs])):
        touched = {c for c, _ in x}
        if tuple(k for c, k in enumerate(sizes)
                 if c not in touched) != pattern.carrier.class_sizes:
            continue
        if histogram is None:  # the first carrier match
            check_iso_bounds(pattern)  # as isomorphic(pattern, z.minor(x)) would
            histogram = _minor_histograms(z)
        hist = histogram(x)
        low = next(i for i, n in enumerate(hist) if n)
        if hist[low:low + len(want)] != want:
            continue
        iso = isomorphic(pattern, z.minor(x))
        if iso is not None:
            back = z.minor_class_map(x)
            witness = {pe: (back[ze[0]], ze[1]) for pe, ze in iso.items()}
            return tuple(sorted(x)), witness
    return None


# -- strongly binary reconstruction --------------------------------------------


@dataclass(frozen=True)
class StrongBinaryCertificate:
    matrix: GFMatrix
    basis: tuple[Element, ...]

    def build_pair(self) -> Multimatroid:
        return pair_multimatroid(self.matrix, self.basis)


def is_strongly_binary(z: Multimatroid):
    """Reconstruct the symmetric GF(2) matrix of a pair representation, or
    report that none exists.

    Picks the lexicographically first basis transversal, reads the candidate
    matrix off the one- and two-class swaps, both from z's rank table, then
    compares that table with the candidate's: a StrongBinaryCertificate or None.
    """
    if not z.is_nondegenerate():
        raise Degenerate("strong binarity needs a nondegenerate multimatroid")
    if not z.carrier.is_uniform(2):
        raise GroundMismatch("strong binarity is defined for class size 2")
    check_order(z.order, ORDER_STRONGLY_BINARY, "is_strongly_binary")
    n, ranks = z.order, _rank_table(z)  # n - r(S) for each subtransversal S

    def is_basis(t) -> bool:
        return ranks[_rank_table_index(z.carrier, t)] == 0

    basis = next((t for t in z.carrier.transversals() if is_basis(t)), None)
    if basis is None:
        raise NoBasis("no transversal basis")
    other = tuple((c, 1 - s) for c, s in basis)

    def swap_is_basis(swap_classes) -> bool:
        return is_basis([other[c] if c in swap_classes else basis[c] for c in range(n)])

    entries = [[0] * n for _ in range(n)]
    for v in range(n):
        entries[v][v] = 1 if swap_is_basis({v}) else 0
    for u in range(n):
        for v in range(u + 1, n):
            prod_diag = entries[u][u] & entries[v][v]
            val = prod_diag ^ 1 if swap_is_basis({u, v}) else prod_diag
            entries[u][v] = entries[v][u] = val
    a = GFMatrix.from_entries(GF2, entries, cols=n)
    cert = StrongBinaryCertificate(a, basis)
    if same_rank_oracle(z, cert.build_pair()):
        return cert
    return None


# -- classification of tight 3-matroids -----------------------------------------


@dataclass
class ClassifyReport:
    binary: bool
    strong_certificate: StrongBinaryCertificate | None
    h33_witness: tuple | None
    parity_witness: tuple | None

    def to_dict(self) -> dict:
        from .multimatroids import element_label
        out = {"binary": self.binary,
               "tests": {
                   "strongly_binary_after_deletion": self.strong_certificate is not None,
                   "no_h33_minor": self.h33_witness is None,
                   "even_skew_pairs": self.parity_witness is None,
               }}
        if self.h33_witness is not None:
            x, _wit = self.h33_witness
            out["h33_minor_at"] = [element_label(e) for e in x]
        if self.parity_witness is not None:
            c1, c2, count = self.parity_witness
            out["odd_skew_pair_circuits"] = {
                "first": [element_label(e) for e in sorted(c1)],
                "second": [element_label(e) for e in sorted(c2)],
                "skew_pairs": count,
            }
        return out


def classify_binary_tight3(z: Multimatroid) -> ClassifyReport:
    """Three independent binarity tests on a tight 3-matroid, demanded to be
    unanimous: strong binarity of one transversal deletion, absence of the
    order-3 quaternary excluded minor, and skew-pair parity of circuit
    unions."""
    check_order(z.order, ORDER_CLASSIFY, "classify_binary_tight3")
    if not z.carrier.is_uniform(3):
        raise NotTriple("classification needs class size 3 throughout")
    ok, _ = is_tight(z)
    if not ok:
        raise NotTight("classification needs a tight multimatroid")

    t = tuple((c, 0) for c in range(z.order))
    cert = is_strongly_binary(z.delete(t))

    witness = has_minor(z, fixture_h33().multimatroid)
    parity = odd_skew_pair(z)

    votes = [cert is not None, witness is None, parity is None]
    if len(set(votes)) != 1:
        raise InternalInconsistency(f"binarity tests disagree: {votes}")
    return ClassifyReport(binary=votes[0], strong_certificate=cert,
                          h33_witness=witness, parity_witness=parity)


# -- tight extension search -------------------------------------------------------


def tight_extension(z: Multimatroid) -> Multimatroid | None:
    """Search for the tight 3-matroid whose third-slot deletion equals the
    given nondegenerate 2-matroid.

    Works over integer rank functions: on a triple carrier, tightness plus
    the one-changing-element exclusion force the three extension nullities
    of every near-transversal into the pattern {m, m, m+1}, so the
    transversal nullity function of any extension is determined level by
    level in the number of new elements used.  The propagated function is
    then verified against the full rank-function axioms (unit increments,
    local exchange per transversal, the exclusion at every subtransversal,
    tightness, agreement with the given ranks); any failure means no tight
    extension exists.  Returns a circuit-list multimatroid or None.
    """
    if not z.is_nondegenerate():
        raise Degenerate("tight extension needs a nondegenerate multimatroid")
    if not z.carrier.is_uniform(2):
        raise GroundMismatch("tight extension lifts a 2-matroid")
    check_order(z.order, ORDER_EXTENSION, "tight_extension")
    ell = z.order
    carrier = Carrier.uniform(ell, 3)

    def elems_of(code):
        return tuple((c, s) for c, s in enumerate(code) if s >= 0)

    # ell - r(S) for every subtransversal S of z, read from one table
    ranks = dict(zip(product(range(-1, 2), repeat=ell), _rank_table(z)))

    # transversal nullities, propagated by the number of new slots used
    nu: dict[tuple, int] = {}
    by_level: dict[int, list[tuple]] = {}
    for code in product(range(3), repeat=ell):
        by_level.setdefault(sum(s == 2 for s in code), []).append(code)
    for code in by_level.get(0, []):
        nu[code] = ranks[code]
    for level in range(1, ell + 1):
        for code in by_level.get(level, []):
            forced = None
            for c, s in enumerate(code):
                if s != 2:
                    continue
                va = nu[code[:c] + (0,) + code[c + 1:]]
                vb = nu[code[:c] + (1,) + code[c + 1:]]
                if abs(va - vb) > 1:
                    return None
                want = va + 1 if va == vb else min(va, vb)
                if forced is None:
                    forced = want
                elif forced != want:
                    return None
            nu[code] = forced

    # derive all subtransversal nullities: every completion passes through
    # any fixed absent class, so a one-class minimum suffices
    null: dict[tuple, int] = {}
    for code in sorted(product(range(-1, 3), repeat=ell),
                       key=lambda cd: -sum(s >= 0 for s in cd)):
        if all(s >= 0 for s in code):
            null[code] = nu[code]
            continue
        c = next(i for i, s in enumerate(code) if s < 0)
        null[code] = min(null[code[:c] + (s,) + code[c + 1:]] for s in range(3))

    def extensions(code):
        for c, s in enumerate(code):
            if s < 0:
                for s2 in range(3):
                    yield c, s2, code[:c] + (s2,) + code[c + 1:]

    for code, n_s in null.items():
        size = sum(s >= 0 for s in code)
        if code in ranks and n_s != size - ell + ranks[code]:  # agreement with z
            return None
        raising: dict[int, list[tuple]] = {}
        for c, s2, ext in extensions(code):
            step = null[ext] - n_s
            if step not in (0, 1):  # unit increments
                return None
            if step == 1:
                raising.setdefault(c, []).append(ext)
        for c, exts in raising.items():
            if len(exts) > 1:  # one-changing-element exclusion
                return None
        if size == ell - 1:  # tightness at near-transversals
            c = next(i for i, s in enumerate(code) if s < 0)
            if c not in raising:
                return None
        # local exchange: rank-flat extensions (nullity up) stay flat jointly
        flat = [(c, exts[0]) for c, exts in raising.items()]
        for (c1, e1), (c2, e2) in combinations(flat, 2):
            joint = e1[:c2] + (e2[c2],) + e1[c2 + 1:]
            if null[joint] != n_s + 2:
                return None

    # nullity only grows along extensions (checked above), so the minimal
    # sets of positive nullity are the circuits
    by_set = {frozenset(elems_of(code)): n for code, n in null.items()}
    circuits = minimal_sets(s for s, n in by_set.items() if n > 0)
    ext = Multimatroid(carrier, circuits=circuits, validate=False)
    third = [(c, 2) for c in range(ell)]
    if not tight_quick(ext) or not same_rank_oracle(ext.delete(third), z):
        raise InternalInconsistency("extension search produced a bad witness")
    return ext


# -- basis parity -----------------------------------------------------------------


def basis_parity(z: Multimatroid, x: Iterable[Element],
                 y: Iterable[Element]) -> tuple[int, int]:
    """Counts of bases inside x and inside x symmetric-difference y (y a
    union of skew classes), asserted to have equal parity on tight
    multimatroids of odd class size at least 3."""
    xs = set(x)
    ys = set(y)
    carrier_elements(z.carrier, xs | ys)
    touched = {c for c, _ in ys}
    for c in touched:
        if not set(z.carrier.skew_class(c)) <= ys:
            raise NotClassUnion(f"class {c} only partially covered")
    k = z.carrier.class_sizes[0] if z.order else 3
    if not (z.carrier.is_uniform(k) and k >= 3 and k % 2 == 1):
        raise GroundMismatch("basis parity needs odd class size at least 3")
    if not tight_quick(z):
        raise NotTight("basis parity needs a tight multimatroid")
    bases = [frozenset(b) for b in z.bases()]
    flipped = xs ^ ys
    b1 = sum(1 for b in bases if b <= xs)
    b2 = sum(1 for b in bases if b <= flipped)
    if (b1 - b2) % 2:
        raise InternalInconsistency("basis parity violated")
    return b1, b2


def bases_within_class_extension(z: Multimatroid, t: Iterable[Element],
                                 cls: int) -> int:
    """Number of bases inside a transversal widened by one full class."""
    tt = as_subtransversal(z.carrier, t)
    widened = set(tt) | set(z.carrier.skew_class(cls))
    return sum(1 for b in z.bases() if set(b) <= widened)
