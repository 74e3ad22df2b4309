"""Carriers, subtransversals and multimatroids.

Elements are (class_index, slot) pairs, canonically ordered lexicographically.
A multimatroid is a carrier plus one of two realizations: sheltered by a
represented matroid whose ground set is exactly the element set, or an
explicit family of circuit subtransversals.  A sheltered multimatroid keeps
only its field, row count and packed columns; minors and restrictions are
built straight from those, and the sheltering matroid is rebuilt from them on
demand.  A sheltering matroid given by circuits is kept as its subtransversal
circuits, and a circuit list's minors read theirs from that list, not from
the rank oracle.  The rank oracle computes each rank it is asked and keeps
none.  Algorithms read two tables instead: the nullity of every transversal
and the rank of every subtransversal, each from one walk on packed
realizations, which also read their circuits from one subtransversal walk.
Every transversal sum (q1, the transition polynomials, the minor scan's
histograms) and the closures of near-transversals, which the validators and
the orienting test read, slice the nullity table, on either realization.
The validators check each closure against the loops of the order-one minor
there, read from the circuits: x is in the closure of S exactly when some
circuit C has x in C and C <= S + x.  Structural equality, bases and strong
binarity read the rank table.  The two realizations are interchangeable.
The skew-pair parity, the cycle spaces and the orienting test read the
circuits as ints with one bit per ground element (_masks).  A cycle space
is spanned by XOR over z's own circuits; those of a deletion are z's
circuits inside the kept set, so `cycle_space_avoiding` builds no deletion.

Besides its carrier and realization, an object keeps one memo,
`Multimatroid._kept`, of every derived answer (listed there), each computed
on its first read; a build that raises keeps nothing.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations, permutations, product
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from . import fields
from .bounds import (ISO_CLASS_SIZE, MAX_CLASS_SIZE, ORDER_CYCLE_SPACE,
                     ORDER_GENERAL, ORDER_ISO, ORDER_ORT, check_order)
from .errors import (GroundMismatch, InternalInconsistency, MalformedInput,
                     NotSubtransversal, NotTriple, TooLarge, UnknownElement)
from .matroids import Matroid, minimal_sets, rank_from_circuits

Element = tuple[int, int]

_SLOT_LETTERS = "abcd"


def element_label(e: Element) -> str:
    """Human-facing element label: 1-based class plus slot letter."""
    return f"{e[0] + 1}{_SLOT_LETTERS[e[1]]}"


def parse_element_label(text: str) -> Element:
    """The element named by a label: ASCII digits naming a class from 1 up,
    then a slot letter."""
    text = text.strip()
    digits, slot = text[:-1], text[-1:]
    try:  # int() also refuses more digits than the interpreter's limit
        cls = int(digits) if digits.isascii() and digits.isdigit() else 0
    except ValueError:
        cls = 0
    if cls < 1 or not slot or slot not in _SLOT_LETTERS:
        raise MalformedInput(f"bad element label {text!r}")
    return cls - 1, _SLOT_LETTERS.index(slot)


class Carrier:
    """A partition of a finite ground set into skew classes."""

    __slots__ = ("class_sizes",)

    def __init__(self, class_sizes: Sequence[int]):
        sizes = tuple(class_sizes)
        if any(k < 1 for k in sizes):
            raise MalformedInput("class sizes must be positive")
        self.class_sizes = sizes

    @classmethod
    def uniform(cls, order: int, k: int) -> "Carrier":
        return cls((k,) * order)

    @property
    def order(self) -> int:
        return len(self.class_sizes)

    @property
    def ground_size(self) -> int:
        return sum(self.class_sizes)

    def is_nondegenerate(self) -> bool:
        return all(k >= 2 for k in self.class_sizes)

    def is_uniform(self, k: int) -> bool:
        return all(s == k for s in self.class_sizes)

    def elements(self) -> list[Element]:
        return [(c, s) for c, k in enumerate(self.class_sizes) for s in range(k)]

    def skew_class(self, c: int) -> tuple[Element, ...]:
        return tuple((c, s) for s in range(self.class_sizes[c]))

    def contains(self, e) -> bool:
        """Whether e is an element: a pair of ints naming a class and one of
        its slots."""
        return (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int
                and 0 <= e[0] < self.order and 0 <= e[1] < self.class_sizes[e[0]])

    def transversal_count(self) -> int:
        n = 1
        for k in self.class_sizes:
            n *= k
        return n

    def transversals(self) -> Iterator[tuple[Element, ...]]:
        """All transversals in canonical (lexicographic slot) order."""
        ranges = [range(k) for k in self.class_sizes]
        for slots in product(*ranges):
            yield tuple((c, s) for c, s in enumerate(slots))

    def subtransversals(self) -> Iterator[tuple[Element, ...]]:
        """All subtransversals; per class either absent or one slot."""
        ranges = [range(-1, k) for k in self.class_sizes]
        for slots in product(*ranges):
            yield tuple((c, s) for c, s in enumerate(slots) if s >= 0)

    def near_transversals(self) -> Iterator[tuple[tuple[Element, ...], int]]:
        """Pairs (S, missing_class) with S touching every class but one."""
        for miss in range(self.order):
            others = [c for c in range(self.order) if c != miss]
            for slots in product(*[range(self.class_sizes[c]) for c in others]):
                yield tuple((c, s) for c, s in zip(others, slots)), miss

    def classes_with_pair(self, w: Iterable[Element]) -> frozenset:
        """Classes containing at least two elements of w."""
        counts: dict[int, int] = {}
        for c, _ in set(w):
            counts[c] = counts.get(c, 0) + 1
        return frozenset(c for c, n in counts.items() if n >= 2)

    def __eq__(self, other) -> bool:
        return isinstance(other, Carrier) and self.class_sizes == other.class_sizes

    def __hash__(self) -> int:
        return hash(self.class_sizes)

    def __repr__(self) -> str:
        return f"Carrier({list(self.class_sizes)})"


def element_name(e) -> str:
    """How a message names a would-be element: a pair of ints by its label
    when both are non-negative and the slot has a letter, else in the
    .mm.json form [c, s]; anything else by its repr."""
    if isinstance(e, tuple) and len(e) == 2 and all(type(v) is int for v in e):
        if min(e) >= 0 and e[1] < len(_SLOT_LETTERS):
            return element_label(e)
        return f"[{e[0]}, {e[1]}]"
    return repr(e)


def carrier_elements(carrier: Carrier, elems: Iterable[Element]) -> frozenset:
    """The elements as a set; UnknownElement names the first that is not a
    carrier element."""
    es = frozenset(elems)
    for e in es:
        if not carrier.contains(e):
            raise UnknownElement(f"{element_name(e)} is not a carrier element")
    return es


def as_subtransversal(carrier: Carrier, elems: Iterable[Element]) -> tuple[Element, ...]:
    """Normalize to a sorted element tuple; reject unknown elements and
    repeated skew classes."""
    es = sorted(carrier_elements(carrier, elems))
    seen = set()
    for e in es:
        if e[0] in seen:
            raise NotSubtransversal(f"two elements in skew class {e[0]}")
        seen.add(e[0])
    return tuple(es)


def sum_subtransversals(carrier: Carrier, x: Iterable[Element],
                        y: Iterable[Element]) -> tuple[Element, ...]:
    """Triple-carrier sum: symmetric difference, then flip the doubly-hit
    classes to their third slot."""
    if not carrier.is_uniform(3):
        raise NotTriple("sum needs class size 3 everywhere")
    xs = set(as_subtransversal(carrier, x))
    ys = set(as_subtransversal(carrier, y))
    diff = xs ^ ys
    doubled = carrier.classes_with_pair(diff)
    flipped = set(diff)
    for c in doubled:
        slots = {s for cc, s in diff if cc == c}
        flipped -= {(c, s) for s in slots}
        flipped.add((c, ({0, 1, 2} - slots).pop()))
    return as_subtransversal(carrier, flipped)


class Multimatroid:
    """A carrier plus a rank oracle, realized as sheltered or circuit-list."""

    # All z keeps past its realization; `key in z._kept` tells "not built" from None:
    #   ("closures", miss)  _closure_masks's table for missing class miss,
    #                       sliced from "nullities"
    #   "scan"              near_transversal_scan's cross-checked pair
    #   "odd_pair"          odd_skew_pair's answer, None when every union is even
    #   "circuits"          a packed realization's circuits
    #   "deletion"          mmlab.orienting's deletion tables
    #   "nullities"         _nullity_table's per-transversal nullities, which
    #                       every transversal sum reads
    #   "ranks"             _rank_table's per-subtransversal ranks
    __slots__ = ("carrier", "_circuits", "_field", "_rows", "_colvec", "_kept")

    def __init__(self, carrier: Carrier, matroid: Matroid | None = None,
                 circuits: Iterable[frozenset] | None = None, validate: bool = True):
        self.carrier = carrier
        self._circuits = None  # a circuit-list realization's circuits
        self._field = self._rows = self._colvec = None
        self._kept: dict = {}
        if (matroid is None) == (circuits is None):
            raise MalformedInput("exactly one of matroid/circuits required")
        if matroid is not None:
            if (len(matroid.ground) != carrier.ground_size
                    or set(matroid.ground) != set(carrier.elements())):
                raise GroundMismatch("sheltering matroid must be grounded on the carrier")
            if matroid.is_represented:
                mat = matroid.matrix
                self._field, self._rows = mat.field, mat.rows
                self._colvec = dict(zip(matroid.ground, mat.columns_packed()))
                return
            # No matrix: the given circuits lying in subtransversals fix the
            # rank of every subtransversal, so they become the circuit list.
            circuits = [c for c in matroid._circuits
                        if not carrier.classes_with_pair(c)]
            validate = False
        fam = tuple(sorted({frozenset(c) for c in circuits}, key=sorted))
        for c in fam:
            if not c:
                raise MalformedInput("empty circuit")
            as_subtransversal(carrier, c)
        self._circuits = fam
        if validate:
            self._validate_semi_axioms()

    @classmethod
    def _sheltered(cls, carrier: Carrier, field: int, rows: int,
                   colvec: dict[Element, tuple[int, int]]) -> "Multimatroid":
        """Sheltered multimatroid on packed columns over `rows` rows, keyed
        by exactly the carrier's elements in the sheltering matroid's ground
        order."""
        z = cls.__new__(cls)
        z.carrier, z._circuits = carrier, None
        z._field, z._rows, z._colvec, z._kept = field, rows, colvec, {}
        return z

    def _validate_semi_axioms(self):
        """Per-transversal circuit axioms, via compatible pairs: antichain
        plus circuit elimination whenever two circuits fit one transversal."""
        fam = self._circuits
        for c1, c2 in combinations(fam, 2):
            if c1 <= c2 or c2 <= c1:
                raise MalformedInput("nested circuits")
        for c1, c2 in combinations(fam, 2):
            union = c1 | c2
            if self.carrier.classes_with_pair(union):
                continue  # not inside a common transversal
            for e in c1 & c2:
                if not any(c3 <= union - {e} for c3 in fam):
                    raise MalformedInput("circuit elimination fails within a transversal")

    # -- realization access --------------------------------------------------

    @property
    def kind(self) -> str:
        return "sheltered" if self._colvec is not None else "circuits"

    @property
    def sheltering_matroid(self) -> Matroid | None:
        """The represented matroid on the packed columns, rebuilt on each
        access; None for a circuit-list realization."""
        if self._colvec is None:
            return None
        mat = fields.GFMatrix.from_columns(self._field, self._rows, list(self._colvec.values()))
        return Matroid(list(self._colvec), matrix=mat)

    @property
    def order(self) -> int:
        return self.carrier.order

    def is_nondegenerate(self) -> bool:
        return self.carrier.is_nondegenerate()

    # -- rank oracle ---------------------------------------------------------

    def rank(self, elems: Iterable[Element]) -> int:
        s = frozenset(as_subtransversal(self.carrier, elems))
        return self._rank(s)

    def _rank(self, s: frozenset) -> int:
        if self._colvec is not None:
            cv = self._colvec
            return fields.rank_of_vectors(self._field, (cv[e] for e in s))
        return self._rank_circuits(s)

    def _rank_circuits(self, s: frozenset) -> int:
        return rank_from_circuits(self._circuits, s)

    def nullity(self, elems: Iterable[Element]) -> int:
        s = frozenset(as_subtransversal(self.carrier, elems))
        return len(s) - self._rank(s)

    # -- enumeration ---------------------------------------------------------

    def _check_enum_bounds(self, default: int, op: str) -> None:
        check_order(self.order, default, op)
        if self.carrier.class_sizes and max(self.carrier.class_sizes) > MAX_CLASS_SIZE:
            raise TooLarge(f"{op}: class size exceeds {MAX_CLASS_SIZE}")

    def circuits(self) -> list[frozenset]:
        """All minimal dependent subtransversals, lexicographically sorted;
        a packed realization enumerates them on the first call and keeps them."""
        self._check_enum_bounds(ORDER_GENERAL, "circuits")
        if self._circuits is not None:
            return list(self._circuits)
        if "circuits" not in self._kept:
            # a pick (class, slot) is its element, and picks run in class
            # order, so sorting them sorts the circuits as key=sorted would
            found = fields.circuit_picks(self._field, self._packed(
                map(self.carrier.skew_class, range(self.order))))
            self._kept["circuits"] = tuple(map(frozenset, sorted(found)))
        return list(self._kept["circuits"])

    def _packed(self, groups: Iterable[Iterable[Element]]) -> list[list]:
        """The packed columns of each group of elements, as the fields walks
        take them: ints over GF(2), (lo, hi) pairs over GF(4)."""
        cv, gf2 = self._colvec, self._field == fields.GF2
        return [[cv[e][0] if gf2 else cv[e] for e in es] for es in groups]

    def bases(self) -> list[tuple[Element, ...]]:
        """All maximal independent subtransversals, canonically ordered, read
        from _rank_table: S is one when its entry, order - r(S), is
        order - |S| and no slot x of a class S misses lowers it at S + x."""
        self._check_enum_bounds(ORDER_GENERAL, "bases")
        table, out = _rank_table(self), []
        for i, s in enumerate(self.carrier.subtransversals()):
            touched = {c for c, _ in s}
            if table[i] == self.order - len(s) and not any(
                    table[_rank_table_index(self.carrier, (*s, x))] < table[i]
                    for c in range(self.order) if c not in touched
                    for x in self.carrier.skew_class(c)):
                out.append(s)
        if self.is_nondegenerate() and any(len(b) != self.order for b in out):
            raise InternalInconsistency("non-transversal basis in a "
                                        "nondegenerate multimatroid")
        return sorted(out)

    def nullity_histogram(self, banned: Iterable[Element] = (),
                          weights: Mapping[Element, object] | None = None) -> list:
        """hist[n]: the number of transversals avoiding the banned elements
        with nullity n or, given element weights, the sum of their weight
        products, read from _nullity_table.  Counts are the byte counts of
        the table, or of its slice at the unbanned transversals; only
        weighted sums multiply.  A zero weight acts as a ban, so an entry
        that no transversal reaches stays int 0; a class emptied by the bans
        leaves every entry zero.  The first sum on an object builds the
        table over every transversal, banned or not, so a one-off banned sum
        pays for transversals it then skips; later sums only read."""
        bans = carrier_elements(self.carrier, banned)
        slots = [[s for s in range(k) if (c, s) not in bans and (weights is None or weights[c, s])]
                 for c, k in enumerate(self.carrier.class_sizes)]
        table = _nullity_table(self)
        if weights is None:
            if bans:
                table = bytes(map(table.__getitem__, _table_indices(self.carrier, slots)))
            return [table.count(n) for n in range(self.order + 1)]
        hist, products = [0] * (self.order + 1), [1]  # products in _table_indices's order
        for c, ss in enumerate(slots):
            products = [w * weights[c, s] for w in products for s in ss]
        for i, w in zip(_table_indices(self.carrier, slots), products):
            hist[table[i]] += w
        return hist

    # -- restriction, deletion, minors ---------------------------------------

    def _shrink(self, kept: Iterable[tuple[int, Sequence[int]]]
                ) -> tuple[Carrier, dict[Element, Element]]:
        """The carrier of the kept slots, given as (class, nonempty slots)
        pairs in ground order, and the map from each kept element to its new
        label, in ground order."""
        classes = list(kept)
        emap = {(c, s): (i, j) for i, (c, ss) in enumerate(classes) for j, s in enumerate(ss)}
        return Carrier([len(ss) for _, ss in classes]), emap

    def restrict(self, keep_elems: Iterable[Element]) -> "Multimatroid":
        """Restriction to a subset of the ground set; classes shrink and may
        vanish."""
        keep = carrier_elements(self.carrier, keep_elems)
        carrier, emap = self._shrink(_slots_by_class(keep))
        if self._colvec is not None:
            return self._sheltered(carrier, self._field, self._rows,
                                   {emap[e]: self._colvec[e] for e in sorted(keep)})
        circuits = [frozenset(emap[e] for e in c)
                    for c in self._circuits if c <= keep]
        return Multimatroid(carrier, circuits=circuits, validate=False)

    def delete(self, elems: Iterable[Element]) -> "Multimatroid":
        return self.restrict(set(self.carrier.elements()) - carrier_elements(self.carrier, elems))

    def minor(self, x: Iterable[Element]) -> "Multimatroid":
        """Minor induced by a subtransversal: contract it and drop the
        touched classes entirely."""
        xs = frozenset(as_subtransversal(self.carrier, x))
        touched = {c for c, _ in xs}
        carrier, emap = self._shrink((c, range(k)) for c, k in enumerate(self.carrier.class_sizes)
                                     if c not in touched)
        if self._colvec is not None:
            cv = self._colvec
            kept = [e for e in cv if e in emap]
            r, cols = fields.contract_columns(self._field, [cv[e] for e in cv if e in xs],
                                              [cv[e] for e in kept])
            return self._sheltered(carrier, self._field, self._rows - r,
                                   dict(zip((emap[e] for e in kept), cols)))
        allowed = xs.union(emap)
        found = minimal_sets(c - xs for c in self._circuits if c <= allowed)
        return Multimatroid(carrier, circuits=[frozenset(emap[e] for e in c) for c in found],
                            validate=False)

    def minor_class_map(self, x: Iterable[Element]) -> list[int]:
        """Original indices of the classes surviving the minor by x."""
        xs = as_subtransversal(self.carrier, x)
        touched = {c for c, _ in xs}
        return [c for c in range(self.order) if c not in touched]

    def __repr__(self) -> str:
        return f"Multimatroid({self.carrier!r}, {self.kind})"


def _slots_by_class(elems: Iterable[Element]) -> Iterable[tuple[int, list[int]]]:
    """(class, sorted slots) for each class the elements meet, in ground order."""
    slots: dict[int, list[int]] = {}
    for c, s in sorted(elems):
        slots.setdefault(c, []).append(s)
    return slots.items()


# -- validators ---------------------------------------------------------------


def _closure_masks(z: Multimatroid, miss: int) -> bytes:
    """For every pick S of one element per other class, in ground and
    product order, the bit mask of the slots x of class miss in the closure
    of S (r(S + x) = r(S)), kept on z from the first call.  Each is read
    from _nullity_table: n(S + x) is n(S) or n(S) + 1, and x is in the
    closure when it is n(S) + 1.  So when the k entries of S differ, the
    closure is the slots at their maximum; when they are all equal, it is
    empty or the whole class, and the rank oracle's n(S) tells which."""
    key = "closures", miss
    if key not in z._kept:
        sizes, table = z.carrier.class_sizes, _nullity_table(z)
        k, step = sizes[miss], prod(sizes[miss + 1:])
        bases = _table_indices(z.carrier, [(0,) if c == miss else range(n)
                                           for c, n in enumerate(sizes)])
        differing = _closures_of_steps(k, z.order)
        found = [differing.get(table[b:b + k * step:step]) for b in bases]
        if None in found:
            others = [c for c in range(z.order) if c != miss]
            picks = product(*[range(sizes[c]) for c in others])
            for i, (slots, mask) in enumerate(zip(picks, found)):
                if mask is None:
                    s = frozenset(zip(others, slots))
                    found[i] = (1 << k) - 1 if table[bases[i]] > len(s) - z._rank(s) else 0
        z._kept[key] = bytes(found)
    return z._kept[key]


@cache
def _closures_of_steps(k: int, order: int) -> dict[bytes, int]:
    """Each way the k entries n(S + x) of a near-transversal S can differ,
    for a missing class of size k in a carrier of the given order, mapped
    to the closure of S: the bit mask of the slots at their maximum, n(S) + 1."""
    return {bytes(m + (mask >> x & 1) for x in range(k)): mask
            for m in range(order) for mask in range(1, (1 << k) - 1)}


def _table_indices(carrier: Carrier, slots: Sequence[Sequence[int]]) -> list[int]:
    """The positions in _nullity_table of the transversals that pick a slot
    of slots[c] in each class c, in product order."""
    out = [0]
    for k, ss in zip(carrier.class_sizes, slots):
        out = [i * k + s for i in out for s in ss]
    return out


def _rank_table_index(carrier: Carrier, x: Iterable[Element]) -> int:
    """The position in _rank_table of the subtransversal x."""
    slots, i = dict(x), 0
    for c, k in enumerate(carrier.class_sizes):
        i = i * (k + 1) + slots.get(c, -1) + 1
    return i


def _nullity_table(z: Multimatroid) -> bytes:
    """The nullity of every transversal of z, one byte each in product order
    (class 0 slowest, slots in ground order), kept on z from the first call.
    Packed realizations read them from one walk of fields.leaf_nullities;
    circuit-list ones ask the rank oracle at each transversal."""
    if "nullities" not in z._kept:
        classes = [z.carrier.skew_class(c) for c in range(z.order)]
        if z._colvec is not None:
            found = fields.leaf_nullities(z._field, z._packed(classes))
        else:
            found = (len(t) - z._rank(t) for t in map(frozenset, product(*classes)))
        z._kept["nullities"] = bytes(found)
    return z._kept["nullities"]


def _slot_masks(sizes: Sequence[int]) -> list[list[int]]:
    """Bit sets over the picks of one slot per class of the given sizes, bit
    i for the i-th pick in product order: entry [c][t] holds the picks with
    slot t at class c."""
    picks = prod(sizes)
    full, stride, out = (1 << picks) - 1, picks, []
    for k in sizes:
        stride //= k
        out.append([((1 << stride) - 1 << t * stride) * (full // ((1 << k * stride) - 1))
                    for t in range(k)])
    return out


def _order_one_minor_loops(z: Multimatroid, miss: int) -> bytes:
    """For every pick S of one element per other class, laid out as
    _closure_masks(z, miss), the bit mask of the loops of the order-one
    minor by S: the slots x of class miss on some circuit C of z with
    C <= S + x.  Read from z's circuits on bit sets over the picks
    (_slot_masks): a circuit through slot x adds to x's set the picks that
    hold its other elements, the AND of their slot masks."""
    sizes = z.carrier.class_sizes
    others = [c for c in range(z.order) if c != miss]
    slot = {(c, t): m for c, ms in zip(others, _slot_masks([sizes[c] for c in others]))
            for t, m in enumerate(ms)}
    n = prod(sizes[c] for c in others)
    loops = [0] * sizes[miss]
    for circuit in z.circuits():
        acc, at = (1 << n) - 1, None
        for e in circuit:
            if e[0] == miss:
                at = e[1]
            else:
                acc &= slot[e]
        if at is not None:
            loops[at] |= acc
    # byte i gets bit x when bit i of loops[x] is set
    return sum(int.from_bytes(format(bits, f"0{n}b")[::-1].encode().translate(
        bytes.maketrans(b"01", bytes((0, 1 << x)))), "little")
        for x, bits in enumerate(loops)).to_bytes(n, "little")


_ONE_BIT = bytes(1 << i for i in range(8))  # the bytes with exactly one bit set


def near_transversal_scan(z: Multimatroid, op: str):
    """Both validators from one scan: (exclusion witness (S, x1, x2),
    tightness witness (S, missing_class)), each None when its check passes.
    The scan stops at the first closure of two or more elements, where the
    exclusion fails; the tightness witness is the first near-transversal
    whose closure is not exactly one element.

    Each closure (the slots x of the missing class with r(S + x) = r(S)) is
    read from the class's _closure_masks table, sliced from the nullity
    table, and must equal the loops of the order-one minor by S, read from
    z's circuits by _order_one_minor_loops, or the scan raises
    InternalInconsistency.  On packed realizations the two routes are the
    nullity walk and the circuit walk, so the scan checks each against the
    other.  A class's picks S are walked, to find the first that fails,
    only when its two tables differ or a closure is not one slot.

    The bounds are checked under op on every call.  The pair is kept on z
    for later calls; a scan that raises keeps none."""
    z._check_enum_bounds(ORDER_GENERAL, op)
    if "scan" not in z._kept:
        excess = loose = None
        for miss in range(z.order):
            masks, loops = _closure_masks(z, miss), _order_one_minor_loops(z, miss)
            if masks == loops and not masks.translate(None, _ONE_BIT):
                continue
            others = [c for c in range(z.order) if c != miss]
            picks = product(*[range(z.carrier.class_sizes[c]) for c in others])
            for slots, mask, loop in zip(picks, masks, loops):
                s = tuple(zip(others, slots))
                if mask != loop:
                    raise InternalInconsistency(f"{op}: the order-one minor by {list(s)} "
                                                "disagrees with the closure")
                if mask.bit_count() >= 2:
                    flat = [x for x in z.carrier.skew_class(miss) if mask >> x[1] & 1]
                    excess, loose = (s, flat[0], flat[1]), loose or (s, miss)
                    break
                if not mask and loose is None:
                    loose = (s, miss)
            if excess:
                break
        z._kept["scan"] = excess, loose
    return z._kept["scan"]


def is_multimatroid(z: Multimatroid):
    """Check the defining exclusion (at most one element of a missing class
    may change the nullity of a near-transversal).

    Returns (True, None) or (False, (S, x1, x2)), read from
    near_transversal_scan, which checks every closure against the loops of
    its order-one minor, read from the circuits of z.
    """
    excess = near_transversal_scan(z, "is_multimatroid")[0]
    return excess is None, excess


def is_tight(z: Multimatroid):
    """Check tightness: every near-transversal has exactly one element of its
    missing class that raises nullity.  Tightness implies the exclusion
    checked by is_multimatroid.

    Returns (True, None) or (False, (S, missing_class)), read from
    near_transversal_scan, as in is_multimatroid.  Degenerate multimatroids
    are allowed.
    """
    loose = near_transversal_scan(z, "is_tight")[1]
    return loose is None, loose


def tight_quick(z: Multimatroid) -> bool:
    """Tightness read from z's closure tables alone, sliced from its nullity
    table, with is_tight's bound check: every closure is exactly one slot.
    No cross-check, no witness."""
    z._check_enum_bounds(ORDER_GENERAL, "is_tight")
    return all(not _closure_masks(z, miss).translate(None, _ONE_BIT) for miss in range(z.order))


def _masks(carrier: Carrier, sets: Iterable[Iterable[Element]]) -> list[int]:
    """Each set of elements as an int with one bit per ground element: bit
    o + s for element (c, s), where o is the size of the classes before c
    (3c on class size 3)."""
    offsets = list(accumulate(carrier.class_sizes, initial=0))
    return [sum(1 << offsets[c] + s for c, s in es) for es in sets]


def _skew_pair_counts(masks: Sequence[int], order: int) -> Iterator[int]:
    """For each pair of subtransversals given as masks over 3-bit classes
    (_masks on class size 3), in combinations order, the number of classes
    their union meets twice: bit 3c of the majority of class c's three bits,
    one popcount per pair."""
    low = (1 << 3 * order) // 7  # bit 3c of every class c
    for m1, m2 in combinations(masks, 2):
        u = m1 | m2
        yield ((u & (u >> 1 | u >> 2) | u >> 1 & u >> 2) & low).bit_count()


def odd_skew_pair(z: Multimatroid):
    """The first two circuits whose union has an odd number of skew pairs
    (classes it meets twice), with that number; None when every union is
    even.  Class size 3 only (NotTriple otherwise): the pairs are counted on
    the circuits' bit masks by _skew_pair_counts.  The answer is kept on z
    from the first call."""
    if not z.carrier.is_uniform(3):
        raise NotTriple("skew-pair parity needs class size 3 everywhere")
    if "odd_pair" not in z._kept:
        circuits = z.circuits()
        counts = _skew_pair_counts(_masks(z.carrier, circuits), z.order)
        z._kept["odd_pair"] = next(((c1, c2, pairs) for (c1, c2), pairs
                                    in zip(combinations(circuits, 2), counts) if pairs % 2), None)
    return z._kept["odd_pair"]


# -- free sums and matroid pairs ----------------------------------------------


def free_sum(matroids: Sequence[Matroid]) -> Multimatroid:
    """The semi-multimatroid sheltered by the direct sum of the relabeled
    matroids; slot i holds copy i of the common ground set."""
    if not matroids:
        raise GroundMismatch("free sum needs at least one matroid")
    common = matroids[0].ground
    for m in matroids[1:]:
        if set(m.ground) != set(common):
            raise GroundMismatch("matroids must share a ground set")
    carrier = Carrier.uniform(len(common), len(matroids))
    class_of = {e: c for c, e in enumerate(common)}
    if all(m.is_represented for m in matroids) and \
            len({m.matrix.field for m in matroids}) == 1:
        cols = {}
        row0 = 0
        for i, m in enumerate(matroids):
            for e, (clo, chi) in zip(m.ground, m.matrix.columns_packed()):
                cols[(class_of[e], i)] = (clo << row0, chi << row0)
            row0 += m.matrix.rows
        return Multimatroid._sheltered(carrier, matroids[0].matrix.field, row0,
                                       {e: cols[e] for e in carrier.elements()})
    circuits = []
    for i, m in enumerate(matroids):
        for c in m.circuits():
            circuits.append(frozenset((class_of[e], i) for e in c))
    return Multimatroid(carrier, circuits=circuits, validate=False)


def dual_pair(m: Matroid) -> Multimatroid:
    """The tight 2-matroid of a matroid: free sum of its dual (slot 0) and
    itself (slot 1)."""
    if m.is_represented:
        m = m.standard_form()
    return free_sum([m.dual(), m])


def transversal_slot(z: Multimatroid, slot: int) -> tuple[Element, ...]:
    return tuple((c, slot) for c in range(z.order))


# -- cycle space ----------------------------------------------------------------


def _cycle_space(z: Multimatroid, avoid: Iterable[Element] = ()) -> list[frozenset]:
    """Union over the transversals t of z avoiding `avoid` of the
    symmetric-difference span of the circuits of z inside t, on bit masks
    (_masks); a class avoided whole leaves no transversal, so no cycle."""
    avoid = carrier_elements(z.carrier, avoid)
    ground = z.carrier.elements()
    picks = [[1 << i for i, e in enumerate(ground) if e[0] == c and e not in avoid]
             for c in range(z.order)]
    if not all(picks):
        return []
    (banned,) = _masks(z.carrier, [avoid])
    circuits = [m for m in _masks(z.carrier, z.circuits()) if not m & banned]
    out: set[int] = set()
    for t in map(sum, product(*picks)):
        space = {0}
        for m in circuits:
            if m & t == m and m not in space:
                space |= {s ^ m for s in space}
        out |= space
    cycles = (frozenset(e for i, e in enumerate(ground) if m >> i & 1) for m in out)
    return sorted(cycles, key=lambda c: (len(c), sorted(c)))


def cycle_space(z: Multimatroid) -> list[frozenset]:
    """Union over all transversals of the per-transversal cycle spaces."""
    check_order(z.order, ORDER_CYCLE_SPACE, "cycle_space")
    return _cycle_space(z)


def cycle_space_avoiding(z: Multimatroid, avoid: Iterable[Element]) -> list[frozenset]:
    """Cycle space of the deletion of `avoid`: the union over the
    transversals avoiding it of the spans of z's own circuits inside them,
    which are exactly the deletion's circuits, so no deletion is built."""
    check_order(z.order, ORDER_ORT, "cycle_space_avoiding")
    return _cycle_space(z, avoid)


# -- equality and isomorphism ----------------------------------------------------


def _rank_table(z: Multimatroid) -> bytes:
    """order - r(S) for every subtransversal S, one byte each in the order
    of Carrier.subtransversals, kept on z from the first call.  Packed
    realizations read them from one walk of fields.leaf_nullities whose
    levels put a zero vector, the absent class, before each class's columns;
    circuit-list ones ask the rank oracle at each S."""
    if "ranks" not in z._kept:
        if z._colvec is not None:
            zero = 0 if z._field == fields.GF2 else (0, 0)
            classes = z._packed(map(z.carrier.skew_class, range(z.order)))
            found = fields.leaf_nullities(z._field, [[zero, *cols] for cols in classes])
        else:
            found = bytes(z.order - z._rank(frozenset(s)) for s in z.carrier.subtransversals())
        z._kept["ranks"] = found
    return z._kept["ranks"]


def same_rank_oracle(z1: Multimatroid, z2: Multimatroid) -> bool:
    """Structural equality: same carrier and same rank on every
    subtransversal, compared as the two objects' _rank_table bytes."""
    return z1.carrier == z2.carrier and _rank_table(z1) == _rank_table(z2)


def check_iso_bounds(*zs: Multimatroid) -> None:
    """isomorphic's bounds, on the order and class sizes of its arguments."""
    check_order(max(z.order for z in zs), ORDER_ISO, "isomorphic")
    sizes = [k for z in zs for k in z.carrier.class_sizes]
    if sizes and max(sizes) > ISO_CLASS_SIZE:
        raise TooLarge(f"isomorphism search handles class sizes up to {ISO_CLASS_SIZE}")


def isomorphic(z1: Multimatroid, z2: Multimatroid):
    """Search for an isomorphism (class permutation plus per-class slot
    bijections) carrying circuits onto circuits; returns the element map or
    None."""
    check_iso_bounds(z1, z2)
    if sorted(z1.carrier.class_sizes) != sorted(z2.carrier.class_sizes):
        return None
    cs1, cs2 = z1.circuits(), z2.circuits()
    # the invariants below imply this, but it ends a miss sooner
    if sorted(map(len, cs1)) != sorted(map(len, cs2)):
        return None
    set2 = set(cs2)

    def elem_inv(circuits, e):
        return tuple(sorted(len(c) for c in circuits if e in c))

    def class_inv(z, circuits, c):
        return (z.carrier.class_sizes[c],
                tuple(sorted(elem_inv(circuits, (c, s))
                             for s in range(z.carrier.class_sizes[c]))))

    inv1 = [class_inv(z1, cs1, c) for c in range(z1.order)]
    inv2 = [class_inv(z2, cs2, c) for c in range(z2.order)]
    if sorted(inv1) != sorted(inv2):
        return None
    einv1 = {e: elem_inv(cs1, e) for e in z1.carrier.elements()}
    einv2 = {e: elem_inv(cs2, e) for e in z2.carrier.elements()}

    n = z1.order
    closing = [[] for _ in range(n)]  # closing[c]: z1's circuits whose last class is c
    for c in cs1:
        closing[max(c)[0]].append(c)
    emap: dict[Element, Element] = {}
    used = [False] * n

    def assign(c1: int) -> bool:
        """Map classes c1, c1 + 1, ... in order, each by an unused class and
        slot bijection with equal invariants, checking each circuit once,
        when its last class is mapped; emap's entries of the classes from
        c1 on are stale until then."""
        if c1 == n:
            return True
        k = z1.carrier.class_sizes[c1]
        for c2 in range(n):
            if used[c2] or inv2[c2] != inv1[c1]:
                continue
            for perm in permutations(range(k)):
                if any(einv1[c1, s] != einv2[c2, perm[s]] for s in range(k)):
                    continue
                for s in range(k):
                    emap[c1, s] = (c2, perm[s])
                used[c2] = True
                if all(frozenset(map(emap.get, c)) in set2 for c in closing[c1]) \
                        and assign(c1 + 1):
                    return True
                used[c2] = False
        return False

    return dict(emap) if assign(0) else None
