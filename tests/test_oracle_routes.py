"""Property tests for the routes that read the parent's columns or rank
oracle.

orienting_transversals tests each transversal's deletion through closures
sliced from the table of transversal nullities (a pick whose entries are
all equal asks the rank oracle), and the evaluation suite reads the
orienting counts of minors from the same tables, sliced; packed minors and
restrictions are built straight from the parent's columns, and the
validator reads the loops of the order-one minors from z's circuits, one
table per missing class laid out like the closure table.  Each is
checked against a labelled reference (the oracle route) that builds the
deletion or the minor, against the rank comparisons of
conftest.closure_in_class, against an echelon walk per missing class
(conftest.span_masks), or against the circuit-list route.
The evaluation suite's integer weights, scaled by their common denominator,
are checked against the Fraction histogram of the circuit-list route.  The
cycle spaces, spanned by bit masks of z's own circuits, are checked against
the built deletion's cycle space and the per-transversal frozenset span, the
skew-pair popcounts against the carrier's frozenset count, and their parity
against an alternating form on a basis of the circuits' span.  The
isomorphism search, which checks each circuit once, when its last class is
mapped, is checked against an exhaustive search over every element map.
The minor histograms that has_minor slices from z's table of transversal
nullities are checked against q1 of the built minors, and has_minor, which
builds only the minors whose slice matches the pattern's, against the scan
that builds every minor and searches each for an isomorphism.  q1 and the
q1 of the third-slot deletion of a graph build, read from that table, are
checked against kernel counting: the nullity of each transversal from the
number of vertex sets the adjacency matrix, with its loops toggled, sends to
zero, found by bit parity with no elimination.  same_rank_oracle, which
compares two tables of subtransversal ranks, is checked against one
rank-oracle call per subtransversal, and near_transversal_scan, which
compares each class's two tables whole, against a step per near-transversal,
also with a disagreement injected at a chosen pick.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_graphs, build, closure_in_class, deletion_map, random_graph,
                      random_standard_form, same_matroid, scalar_mul, span_masks)
from mmlab import catalog, multimatroids
from mmlab.bounds import ISO_CLASS_SIZE
from mmlab.catalog import _minor_histograms, has_minor
from mmlab.errors import InternalInconsistency, NotTriple
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import Graph, from_graph, isotropic_multimatroid
from mmlab.matroids import Matroid
from mmlab.multimatroids import (Carrier, Multimatroid, _closure_masks, _masks,
                                 _nullity_table, _order_one_minor_loops, _skew_pair_counts, cycle_space,
                                 cycle_space_avoiding, dual_pair, free_sum, isomorphic,
                                 near_transversal_scan, odd_skew_pair, same_rank_oracle,
                                 tight_quick, transversal_slot)
from mmlab.orienting import _DeletionTables, _scaled_weights, orienting_transversals
from mmlab.polynomials import Polynomial, q1, q1_avoiding

seeds = st.integers(0, 2 ** 32 - 1)
ORT_KINDS = ("gf2", "gf4", "gf4_pair", "gf2_pair", "free4", "mixed", "circuits",
             "matroid_circuits", "fixture")


def build_any(kind: str, rng: random.Random, n: int) -> Multimatroid:
    """Class sizes 2 (pairs), 3 (isotropic builds, fixtures), 4 (free sums
    of four matroids) and 2-4 mixed (restrictions of those)."""
    if kind == "gf2_pair":
        return dual_pair(random_standard_form(rng, GF2, n))
    if kind in ("free4", "mixed"):
        n = min(n, 3)  # 4^n transversals, each with a deletion in the reference
        field = rng.choice((GF2, GF4))
        z = free_sum([random_standard_form(rng, field, n) for _ in range(4)])
        if kind == "free4":
            return z
        keep = [e for c in range(n)
                for e in rng.sample(z.carrier.skew_class(c), rng.randint(2, 4))]
        return z.restrict(keep)
    return build(kind, rng, n)


def restrict_half_the_time(rng: random.Random, z: Multimatroid,
                           least: int = 1) -> Multimatroid:
    """z, or half the time its restriction to least to k elements of each
    class of size k."""
    if rng.random() >= 0.5:
        return z
    return z.restrict([e for c in range(z.order)
                       for e in rng.sample(z.carrier.skew_class(c),
                                           rng.randint(least, z.carrier.class_sizes[c]))])


def reference_orienting(z: Multimatroid) -> list:
    """Labelled reference: build each deletion and test its tightness."""
    return [t for t in z.carrier.transversals() if tight_quick(z.delete(t))]


@given(st.sampled_from(ORT_KINDS), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_orienting_matches_deletion_reference(kind, seed, n):
    z = build_any(kind, random.Random(seed), n)
    assert orienting_transversals(z) == reference_orienting(z)


@given(st.sampled_from(ORT_KINDS), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_sliced_minor_counts_match_built_minors(kind, seed, n):
    """The suite's minor counts, read from z's own tables sliced at each
    subtransversal f of a random transversal, against the oracle route:
    build z.minor(f) and enumerate its orienting transversals.  The builds
    stay nondegenerate, restricted to 2 to k elements of each class half
    the time."""
    rng = random.Random(seed)
    z = restrict_half_the_time(rng, build_any(kind, rng, n), least=2)
    assert z.is_nondegenerate()
    tables = _DeletionTables(z)
    t = [(c, rng.randrange(k)) for c, k in enumerate(z.carrier.class_sizes)]
    for size in range(z.order + 1):
        for f in combinations(t, size):
            assert tables.minor_count(f) == len(orienting_transversals(z.minor(f))), f


def maximal_independent_subtransversals(z: Multimatroid) -> list:
    """Labelled reference (oracle route) for bases: the subtransversals S
    with r(S) = |S| to whose rank no element of a class S misses adds, one
    rank-oracle call each."""
    return sorted(s for s in z.carrier.subtransversals()
                  if z.rank(s) == len(s) and all(
                      z.rank((*s, x)) == len(s) for c in range(z.order) if c not in dict(s)
                      for x in z.carrier.skew_class(c)))


def random_circuit_family(rng: random.Random, n: int) -> Multimatroid:
    """An unvalidated circuit list on class sizes 1 to 3: up to four random
    nonempty subtransversals, so its ranks need not be a matroid's."""
    carrier = Carrier([rng.randint(1, 3) for _ in range(n)])
    subs = [frozenset(s) for s in carrier.subtransversals() if s]
    return Multimatroid(carrier, circuits=rng.sample(subs, min(len(subs), rng.randint(0, 4))),
                        validate=False)


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "free4", "mixed", "circuits", "family")),
       seeds, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_bases_match_the_rank_oracle(kind, seed, n):
    """bases, read from the rank table, against the rank oracle, on builds
    restricted to 1 to k elements of each class half the time, so some are
    degenerate, and on random circuit families, which need not be
    multimatroids.  A nondegenerate input with a maximal independent set
    that is not a transversal raises."""
    rng = random.Random(seed)
    z = (random_circuit_family(rng, n) if kind == "family"
         else restrict_half_the_time(rng, build_any(kind, rng, n)))
    want = maximal_independent_subtransversals(z)
    if z.is_nondegenerate() and any(len(b) != z.order for b in want):
        with pytest.raises(InternalInconsistency, match="^non-transversal basis"):
            z.bases()
    else:
        assert z.bases() == want


def closure_mask(z: Multimatroid, s, miss: int) -> int:
    return sum(1 << x for _, x in closure_in_class(z, frozenset(s), miss))


def check_order_one_minor_loops(z: Multimatroid) -> None:
    """Every byte of every class's table of order-one minor loops, against
    the sliced closure table, the loops of the minor built at that
    near-transversal and the rank-comparison closure there; each table has
    one byte per pick."""
    tables = {miss: _order_one_minor_loops(z, miss) for miss in range(z.order)}
    assert tables == {miss: _closure_masks(z, miss) for miss in range(z.order)}
    tables = {miss: iter(table) for miss, table in tables.items()}
    for s, miss in z.carrier.near_transversals():
        loops = next(tables[miss])
        assert loops == sum(1 << x for c in z.minor(s).circuits() for _, x in c), (s, miss)
        assert loops == closure_mask(z, s, miss), (s, miss)
    assert all(next(rest, None) is None for rest in tables.values())


@given(st.sampled_from(ORT_KINDS), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_order_one_minor_loops_match_minor_and_closure(kind, seed, n):
    """The validator's loops read from z's circuits, on class sizes 1-4
    through a restriction half the time, GF(2), GF(4) and circuit lists,
    against the built minors and the rank-comparison closures."""
    rng = random.Random(seed)
    check_order_one_minor_loops(restrict_half_the_time(rng, build_any(kind, rng, n)))


def sheltered(sizes, field: int, entries) -> Multimatroid:
    """The multimatroid on the carrier of the class sizes sheltered by the
    matrix of the entry rows, its columns in ground order."""
    carrier = Carrier(sizes)
    mat = GFMatrix.from_entries(field, entries, cols=carrier.ground_size)
    return Multimatroid(carrier, matroid=Matroid.from_matrix(mat, ground=carrier.elements()))


# Explicit matrices whose rows reduce against each other: rows that differ
# by a scalar at a column, rows that are multiples of others or zero, and
# zero columns, over GF(4) and GF(2).
ROW_WALK_BUILDS = [
    # every other row differs from row 0 at column (0, 0), by a and by b
    sheltered((2, 2, 2), GF4, [[1, 2, 0, 1, 3, 1], [2, 1, 1, 0, 1, 0], [3, 3, 2, 1, 0, 2]]),
    # more rows than rank: row 1 is a times row 0, and row 2 is zero
    sheltered((2, 2), GF4, [[1, 2, 1, 3], [2, 3, 2, 1], [0, 0, 0, 0], [0, 1, 1, 0]]),
    # zero columns (0, 1) and (1, 0); the rows differ by b at column (0, 0)
    sheltered((2, 2, 2), GF4, [[1, 0, 0, 1, 2, 3], [3, 0, 0, 2, 1, 1]]),
    # classes of size 3, every entry of row 1 differs from row 0's
    sheltered((3, 3), GF4, [[1, 2, 3, 1, 2, 3], [2, 2, 1, 2, 3, 1], [3, 1, 2, 1, 0, 0]]),
    # GF(2): a repeated row, a zero row, and zero columns (0, 1) and (1, 0)
    sheltered((2, 2, 2), GF2, [[1, 0, 0, 1, 1, 0], [1, 0, 0, 1, 1, 0],
                               [0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 1]]),
]


def explicit_builds():
    """Builds of orders 0 to 3, packed and as circuit lists, with classes of
    size 1 and 2 through restriction: isolated vertices (zero adjacency
    columns) over GF(2) and GF(4), a free sum of rank-0 matroids, whose
    columns are all zero, and ROW_WALK_BUILDS."""
    zero = GFMatrix.from_entries(GF4, [[0, 0], [0, 0]], cols=2)
    packed = [from_graph(Graph(n, edges), validate=False).multimatroid
              for n, edges in ((0, []), (1, []), (3, [(0, 1)]))]
    packed += [isotropic_multimatroid(zero, validate=False).multimatroid,
               free_sum([random_standard_form(random.Random(0), GF2, 2, 0)] * 4)]
    packed += ROW_WALK_BUILDS
    for z in packed:
        yield z
        yield Multimatroid(z.carrier, circuits=z.circuits(), validate=False)
        for keep in (1, 2):
            yield z.restrict([e for e in z.carrier.elements() if e[1] < keep])


def test_order_one_minor_loops_on_zero_columns_and_low_orders():
    """Order 0 has no table; order 1 has one pick, the empty one, and every
    circuit of z there is a loop of class 0 alone."""
    orders = set()
    for z in explicit_builds():
        orders.add(z.order)
        check_order_one_minor_loops(z)
    assert orders == {0, 1, 2, 3}


@given(st.sampled_from((GF2, GF4)), seeds)
@settings(max_examples=40, deadline=None)
def test_order_one_minor_loops_on_random_matrices(field, seed):
    """Random matrices of up to six rows over class sizes 1-3, orders 0-3,
    with zero columns, zero rows and rows that are multiples of others."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
    vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
    zero_cols = {j for j in range(sum(sizes)) if rng.random() < 0.2}
    entries = []
    for _ in range(rng.randint(0, 6)):
        if entries and rng.random() < 0.3:
            c = rng.choice(vals[1:])
            entries.append([scalar_mul(c, v) for v in rng.choice(entries)])
        else:
            entries.append([0 if j in zero_cols or rng.random() < 0.2 else rng.choice(vals)
                            for j in range(sum(sizes))])
    check_order_one_minor_loops(sheltered(sizes, field, entries))


@given(st.sampled_from(("gf2", "gf4", "free4", "mixed")), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_span_masks_match_closure_in_class(kind, seed, n):
    """The echelon walk of the span oracle (span_masks) and the closure
    tables sliced from the nullity table, on class sizes 1-4 through a
    restriction half the time, against the rank comparisons of
    closure_in_class at every near-transversal of z, read straight from
    span_masks and from the table _closure_masks keeps.  At order 1 the walk
    has one empty leaf."""
    rng = random.Random(seed)
    z = restrict_half_the_time(rng, build_any(kind, rng, n))
    assert z.kind == "sheltered"
    sizes = z.carrier.class_sizes
    gf2 = z._field == GF2
    cols = [[z._colvec[e][0] if gf2 else z._colvec[e] for e in z.carrier.skew_class(c)]
            for c in range(z.order)]
    leaves = {miss: iter(span_masks(z._field, cols[:miss] + cols[miss + 1:], cols[miss]))
              for miss in range(z.order)}
    for s, miss in z.carrier.near_transversals():
        assert next(leaves[miss]) == closure_mask(z, s, miss), (s, miss)
    assert all(next(rest, None) is None for rest in leaves.values())
    for miss in range(z.order):
        others = [c for c in range(z.order) if c != miss]
        picks = list(product(*[range(sizes[c]) for c in others]))
        assert list(_closure_masks(z, miss)) == \
            [closure_mask(z, zip(others, p), miss) for p in picks]
        assert z._kept["closures", miss] is _closure_masks(z, miss)


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_sliced_closures_match_closure_in_class(field, seed, n, as_circuits):
    """The closure tables sliced from the nullity table, against the rank
    comparisons of closure_in_class at every pick, on a random matrix over
    a random carrier of class sizes 1 to 3, packed or as a circuit list.
    Few rows give whole-class closures and many give empty ones: the picks
    whose entries n(S + x) are all equal, which ask the rank oracle."""
    rng = random.Random(seed)
    carrier = Carrier([rng.randint(1, 3) for _ in range(n)])
    ground = carrier.elements()
    rng.shuffle(ground)
    z = sheltered_by(carrier, ground, field, [[rng.randrange(field) for _ in ground]
                                              for _ in range(rng.randint(0, n + 1))])
    if as_circuits:
        z = circuit_rebuild(z)
    for miss in range(z.order):
        others = [c for c in range(z.order) if c != miss]
        picks = product(*[range(carrier.class_sizes[c]) for c in others])
        assert list(_closure_masks(z, miss)) == \
            [closure_mask(z, zip(others, p), miss) for p in picks]


# (class sizes, GF(2) rows over the ground order, each missing class's
# closure table, the picks whose entries n(S + x) are all equal)
CLOSURE_BRANCHES = {
    "entries differ": ((2, 2), [[1, 0, 1, 0], [0, 1, 0, 1]], [b"\1\2", b"\1\2"], 0),
    "empty": ((2, 2), [[1 << i >> j & 1 for j in range(4)] for i in range(4)],
              [b"\0\0", b"\0\0"], 4),
    "whole class": ((2, 2), [], [b"\3\3", b"\3\3"], 4),
    "class size 1": ((1, 2), [[1, 1, 0]], [b"\1\0", b"\3"], 3),
}


@pytest.mark.parametrize("as_circuits", [False, True])
@pytest.mark.parametrize("branch", CLOSURE_BRANCHES)
def test_each_closure_branch_asks_the_rank_oracle_only_at_equal_entries(
        monkeypatch, branch, as_circuits):
    # a pick whose entries differ reads its closure off them; one whose
    # entries are all equal asks the rank oracle for n(S) once
    sizes, rows, want, equal = CLOSURE_BRANCHES[branch]
    z = sheltered(sizes, GF2, rows)
    if as_circuits:
        z = circuit_rebuild(z)
    _nullity_table(z)  # a circuit list's table asks the oracle once per transversal
    asked = []
    rank = Multimatroid._rank

    def counted(self, s):
        asked.append(s)
        return rank(self, s)

    monkeypatch.setattr(Multimatroid, "_rank", counted)
    assert [_closure_masks(z, miss) for miss in range(z.order)] == want
    assert len(asked) == equal


@given(st.sampled_from(ORT_KINDS), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_scaled_weights_match_fraction_histogram(kind, seed, n):
    """Random rational weights, negative and zero ones included, with
    denominators up to 9: the int histogram over the weights scaled by L is
    L^order times the Fraction histogram of the circuit-list route."""
    rng = random.Random(seed)
    z = restrict_half_the_time(rng, build_any(kind, rng, n))
    weights = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for e in z.carrier.elements()}
    banned = [e for e in z.carrier.elements() if rng.random() < 0.2]
    scale, scaled = _scaled_weights(weights)
    assert all(type(scaled[e]) is int and scaled[e] == w * scale for e, w in weights.items())
    got = z.nullity_histogram(banned, scaled)
    assert all(type(h) is int for h in got)
    ref = circuit_rebuild(z).nullity_histogram(banned, weights)
    assert [Fraction(h, scale ** z.order) for h in got] == ref


def circuit_rebuild(z: Multimatroid) -> Multimatroid:
    return Multimatroid(z.carrier, circuits=z.circuits(), validate=False)


def random_subtransversal(rng: random.Random, z: Multimatroid, circuits) -> tuple:
    """Half the time a circuit padded with further classes, so that the
    contraction set is dependent whenever z has a circuit."""
    picks = {}
    if circuits and rng.random() < 0.5:
        picks = dict(rng.choice(circuits))
    for c in range(z.order):
        if c not in picks and rng.random() < 0.3:
            picks[c] = rng.randrange(z.carrier.class_sizes[c])
    return tuple(sorted(picks.items()))


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "free4", "mixed")), seeds,
       st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_packed_minor_and_restrict_match_circuit_lists(kind, seed, n):
    rng = random.Random(seed)
    z = build_any(kind, rng, n)
    zc = circuit_rebuild(z)
    circuits = zc.circuits()
    for _ in range(3):
        x = random_subtransversal(rng, z, circuits)
        zx = z.minor(x)
        assert zx.sheltering_matroid.is_represented
        assert zx.sheltering_matroid.matrix.rows == \
            z.sheltering_matroid.matrix.rows - z.rank(x)
        assert same_rank_oracle(zx, zc.minor(x))
        keep = [e for e in z.carrier.elements() if rng.random() < 0.7]
        zr = z.restrict(keep)
        assert zr.sheltering_matroid.is_represented
        assert same_rank_oracle(zr, zc.restrict(keep))


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "free4", "mixed")), seeds,
       st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_packed_minor_and_restrict_shelter_the_matroid_minor(kind, seed, n):
    """A packed minor is sheltered, label for label and matrix for matrix,
    by the relabelled minor of the parent's sheltering matroid.  A
    restriction keeps the parent's columns unscaled (Matroid.minor scales
    GF(4) columns) and lists them in label order.  This fixes the .mm.json
    bytes of both."""
    rng = random.Random(seed)
    z = build_any(kind, rng, n)
    m = z.sheltering_matroid
    col = dict(zip(m.ground, m.matrix.columns_packed()))
    circuits = z.circuits()
    for _ in range(3):
        x = random_subtransversal(rng, z, circuits)
        touched = {c for c, _ in x}
        ref = m.minor(contract=x, delete=[e for e in z.carrier.elements()
                                          if e[0] in touched and e not in x])
        survivors = z.minor_class_map(x)
        zx = z.minor(x).sheltering_matroid
        assert zx.ground == tuple((survivors.index(c), s) for c, s in ref.ground)
        assert zx.matrix == ref.matrix
        emap = deletion_map(z, [e for e in z.carrier.elements() if rng.random() < 0.3])
        kept = sorted(emap)
        zr = z.restrict(kept).sheltering_matroid
        assert zr.ground == tuple(emap[e] for e in kept)
        assert zr.matrix == GFMatrix.from_columns(m.matrix.field, m.matrix.rows,
                                                  [col[e] for e in kept])


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_matroid_minor_rows_dual_and_standard_form(field, seed, n):
    rng = random.Random(seed)
    m = random_standard_form(rng, field, n)
    ground = list(m.ground)
    dep = [frozenset(c) for c in m.circuits()]
    con = set(rng.choice(dep)) if dep and rng.random() < 0.5 else set()
    con |= {e for e in ground if rng.random() < 0.3}
    dele = {e for e in ground if e not in con and rng.random() < 0.3}
    mm = m.minor(contract=con, delete=dele)
    assert mm.matrix.rows == m.matrix.rows - m.rank_of(con)
    by_circuits = Matroid(m.ground, circuits=m.circuits(), validate=False)
    assert same_matroid(mm, by_circuits.minor(contract=con, delete=dele))
    std = mm.standard_form()
    r = mm.rank_of(mm.ground)
    assert std.matrix.rows == r
    assert same_matroid(std, mm)
    dual = std.dual()
    for b in product((0, 1), repeat=mm.size):
        sub = frozenset(e for e, bit in zip(mm.ground, b) if bit)
        if len(sub) == r and mm.rank_of(sub) == r:  # a basis: its complement is independent
            rest = frozenset(mm.ground) - sub
            assert dual.rank_of(rest) == len(rest)


def frozenset_cycle_space(z: Multimatroid) -> list:
    """Labelled reference (oracle route): the union over the transversals t
    of the symmetric-difference span of the circuits inside t, on
    frozensets, in cycle_space's order."""
    circuits = z.circuits()
    out = set()
    for t in z.carrier.transversals():
        ts, space = frozenset(t), {frozenset()}
        for c in circuits:
            if c <= ts and c not in space:
                space |= {s ^ c for s in space}
        out |= space
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def deletion_cycle_space(z: Multimatroid, avoid) -> list:
    """Labelled reference (oracle route): the cycle space of the built
    deletion, from the deletion's own circuits, mapped back through
    deletion_map; a class deleted whole leaves no transversal of z."""
    d = z.delete(avoid)
    if d.order < z.order:
        return []
    back = {v: k for k, v in deletion_map(z, avoid).items()}
    return [frozenset(map(back.get, c)) for c in frozenset_cycle_space(d)]


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "mixed", "circuits")), seeds,
       st.integers(0, 4), st.sampled_from(("random", "class", "empty")))
@settings(max_examples=40, deadline=None)
def test_cycle_spaces_match_the_deletion_and_frozenset_routes(kind, seed, n, avoiding):
    """The cycle spaces spanned by z's own circuit masks: cycle_space
    against the per-transversal frozenset span, and cycle_space_avoiding,
    on random sets, a whole class with more, and the empty set, against the
    cycle space of the built deletion, in the same order."""
    rng = random.Random(seed)
    z = build_any(kind, rng, n)
    avoid = [e for e in z.carrier.elements() if avoiding == "random" and rng.random() < 0.4]
    if avoiding == "class" and z.order:
        avoid = sorted({*avoid, *z.carrier.skew_class(rng.randrange(z.order)),
                        *rng.sample(z.carrier.elements(), 2)})
    assert cycle_space(z) == frozenset_cycle_space(z)
    got = cycle_space_avoiding(z, avoid)
    assert got == deletion_cycle_space(z, avoid)
    assert (got == []) == any(set(z.carrier.skew_class(c)) <= set(avoid)
                              for c in range(z.order))


def frozenset_odd_pair(z: Multimatroid):
    """Labelled reference (oracle route): odd_skew_pair from the carrier's
    frozenset count of the classes each union meets twice."""
    return next(((c1, c2, pairs) for c1, c2 in combinations(z.circuits(), 2)
                 if (pairs := len(z.carrier.classes_with_pair(c1 | c2))) % 2), None)


def check_skew_pair_counts(z: Multimatroid) -> None:
    """Every pair's popcount against classes_with_pair, and the first odd
    witness against the frozenset route."""
    circuits = z.circuits()
    counts = _skew_pair_counts(_masks(z.carrier, circuits), z.order)
    assert list(counts) == [len(z.carrier.classes_with_pair(c1 | c2))
                            for c1, c2 in combinations(circuits, 2)]
    assert odd_skew_pair(z) == frozenset_odd_pair(z)


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "circuits", "matroid_circuits", "fixture")),
       seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_skew_pair_counts_match_classes_with_pair(kind, seed, n):
    """On class size 3 the popcount route; on any other carrier NotTriple."""
    z = build_any(kind, random.Random(seed), n)
    if z.carrier.is_uniform(3):
        check_skew_pair_counts(z)
    else:
        with pytest.raises(NotTriple):
            odd_skew_pair(z)


@pytest.mark.parametrize("name", ["z-u24-3", "h33"])
def test_skew_pair_counts_on_the_non_binary_fixtures(name):
    z = catalog.fixture(name)
    check_skew_pair_counts(z)
    assert odd_skew_pair(z) is not None


def symplectic_vector(subtransversal) -> int:
    """A subtransversal of a triple carrier in GF(2)^(2n), class c at bits
    2c and 2c + 1: slots 0, 1 and 2 as (1, 0), (0, 1) and (1, 1), and an
    absent class as (0, 0)."""
    return sum((0b01, 0b10, 0b11)[s] << 2 * c for c, s in subtransversal)


def symplectic_form(u: int, w: int, order: int) -> int:
    """B(u, w) = the sum over the classes of a1·b2 + a2·b1, mod 2: 1 on one
    class exactly when u and w hold different slots there."""
    return sum((u >> 2 * c & 1) * (w >> 2 * c + 1 & 1) + (u >> 2 * c + 1 & 1) * (w >> 2 * c & 1)
               for c in range(order)) % 2


def even_skew_pairs_by_symplectic_form(z: Multimatroid) -> bool:
    """Labelled reference (oracle route), after Bouchet's isotropic systems:
    B(C1, C2) is the parity of the classes C1 | C2 meets twice, and B is
    bilinear and alternating, so every union is even exactly when B vanishes
    on a basis of the span of the circuit vectors, found by elimination."""
    basis: list[int] = []  # distinct leading bits, highest first
    for v in map(symplectic_vector, z.circuits()):
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted([*basis, v], reverse=True)
    return all(symplectic_form(u, w, z.order) == 0 for u, w in combinations(basis, 2))


@given(st.sampled_from(("gf2", "gf4")), seeds, st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_skew_pair_parity_matches_the_symplectic_form(kind, seed, n):
    z = build_any(kind, random.Random(seed), n)
    assert even_skew_pairs_by_symplectic_form(z) == (odd_skew_pair(z) is None)


def exhaustive_isomorphism(z1: Multimatroid, z2: Multimatroid):
    """The oracle route for isomorphic: the first element map carrying z1's
    circuits onto z2's, each class c of z1 in turn taking a class of z2 of
    its size (in range order) and a slot bijection (in permutations order),
    the order in which the search backtracks; None when no map does."""
    if z1.order != z2.order:
        return None
    sizes1, sizes2 = z1.carrier.class_sizes, z2.carrier.class_sizes
    choices = [[(c2, perm) for c2 in range(z2.order) if sizes2[c2] == k
                for perm in permutations(range(k))] for k in sizes1]
    cs1, cs2 = z1.circuits(), set(z2.circuits())
    for picks in product(*choices):
        if len({c2 for c2, _ in picks}) < z1.order:
            continue
        emap = {(c1, s): (c2, perm[s]) for c1, (c2, perm) in enumerate(picks)
                for s in range(len(perm))}
        if {frozenset(emap[e] for e in c) for c in cs1} == cs2:
            return emap
    return None


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "circuits", "matroid_circuits")), seeds,
       st.integers(0, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_isomorphic_finds_the_first_map_of_an_exhaustive_search(kind, seed, n, relabel):
    """Against a relabelled copy (classes and slots permuted at random),
    which is always isomorphic, or against a second build of the kind."""
    rng = random.Random(seed)
    z1 = build(kind, rng, n)
    if relabel:
        to_class = rng.sample(range(n), n)
        to_slot = [rng.sample(range(k), k) for k in z1.carrier.class_sizes]
        sizes = [0] * n
        for c, k in enumerate(z1.carrier.class_sizes):
            sizes[to_class[c]] = k
        z2 = Multimatroid(Carrier(sizes), validate=False, circuits=[
            frozenset((to_class[c], to_slot[c][s]) for c, s in circuit)
            for circuit in z1.circuits()])
    else:
        z2 = build(kind, rng, n)
    found = isomorphic(z1, z2)
    assert found == exhaustive_isomorphism(z1, z2)
    assert (found is not None) >= relabel


@given(st.sampled_from(ORT_KINDS), seeds, st.integers(0, 4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_sliced_minor_histograms_match_q1_of_built_minors(kind, seed, n, as_circuits):
    """Every subtransversal X, drop 0 and drop = order included, on GF(2)
    and GF(4) packed builds and on circuit lists (rebuilt from those too, so
    with mixed class sizes): the histogram sliced from z's nullity table is
    q1 of the built minor z/X shifted up by n(X), padded to z's order + 1
    entries.  The table holds the nullity of every transversal, in carrier
    order."""
    rng = random.Random(seed)
    z = build_any(kind, rng, n)
    if as_circuits:
        z = circuit_rebuild(z)
    assert list(_nullity_table(z)) == [z.nullity(t) for t in z.carrier.transversals()]
    histogram = _minor_histograms(z)
    for x in z.carrier.subtransversals():
        hist = histogram(x)
        coeffs = [0] * (len(x) - z._rank(frozenset(x))) + list(q1(z.minor(x)).coeffs)
        assert hist == coeffs + [0] * (z.order + 1 - len(coeffs)), x


def scan_every_minor(z: Multimatroid, pattern: Multimatroid):
    """The oracle route for has_minor: build the minor by every
    subtransversal X of the right size, in sorted order, and search each
    one of the pattern's carrier for an isomorphism; the first X found, with
    the witness map into z's elements, or None."""
    drop = z.order - pattern.order
    if drop < 0:
        return None
    for x in sorted(s for s in z.carrier.subtransversals() if len(s) == drop):
        zx = z.minor(x)
        if zx.carrier != pattern.carrier:
            continue
        iso = isomorphic(pattern, zx)
        if iso is not None:
            back = z.minor_class_map(x)
            return x, [(pe, (back[ze[0]], ze[1])) for pe, ze in iso.items()]
    return None


def check_has_minor(z: Multimatroid, pattern: Multimatroid) -> None:
    found = has_minor(z, pattern)
    if found is not None:
        found = found[0], list(found[1].items())
    assert found == scan_every_minor(z, pattern)


MINOR_PATTERNS = ("h33", "s4", "s5")


@pytest.mark.parametrize("name", catalog.FIXTURE_NAMES)
def test_has_minor_matches_the_scan_of_every_minor_on_the_fixtures(name):
    for pattern in MINOR_PATTERNS:
        check_has_minor(catalog.fixture(name), catalog.fixture(pattern))


@given(st.sampled_from(("gf2", "gf4", "circuits", "matroid_circuits", "gf4_pair", "gf2_pair",
                        "free4", "mixed")),
       seeds, st.integers(0, 5), st.booleans())
@settings(max_examples=80, deadline=None)
def test_has_minor_matches_the_scan_of_every_minor(kind, seed, n, as_circuits):
    """The classifier's tight 3-matroids (GF(2), GF(4) and circuit-list
    builds), pairs over GF(2) and GF(4), and free sums of four matroids and
    their restrictions, which need not be multimatroids, each also rebuilt
    as a circuit list, against the h33, s4 and s5 patterns and z's own minor
    z/X: the same first X and the same witness, entry for entry.  X takes a
    random slot of each class past the isomorphism bound and of half the
    others, so every example has a hit, and a pattern may have no
    independent transversal."""
    rng = random.Random(seed)
    z = build_any(kind, rng, n)
    if as_circuits:
        z = circuit_rebuild(z)
    own = z.minor([(c, rng.randrange(k)) for c, k in enumerate(z.carrier.class_sizes)
                   if k > ISO_CLASS_SIZE or rng.random() < 0.5])
    for pattern in MINOR_PATTERNS:
        check_has_minor(z, catalog.fixture(pattern))
    check_has_minor(z, own)
    assert has_minor(z, own) is not None


def q1_by_kernel_counting(g: Graph, avoid_slot: int | None = None) -> Polynomial:
    """The oracle route for q1 of a graph build, with no elimination (after
    Bouchet's isotropic systems).  Class v holds e_v, A's column v and their
    sum at slots 0, 1 and 2, so the transversal that picks slot 0 off X,
    slot 1 on X - D and slot 2 on D has nullity log2 of the number of
    W ⊆ X with (A + D)[X]·1_W = 0: each W is tested by the parity of its
    bits in every row.  Transversals holding avoid_slot are skipped."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    hist = [0] * (g.n + 1)
    for slots in product(range(3), repeat=g.n):
        if avoid_slot in slots:
            continue
        x = sum(1 << v for v, s in enumerate(slots) if s)
        rows = [(adj[v] ^ (s == 2) << v) & x for v, s in enumerate(slots) if s]
        kernel = sum(all((r & w).bit_count() % 2 == 0 for r in rows)
                     for w in range(1 << g.n) if not w & ~x)
        hist[kernel.bit_length() - 1] += 1
    return Polynomial(hist)


def check_q1_by_kernel_counting(g: Graph) -> None:
    z = from_graph(g, validate=False).multimatroid
    assert q1(z) == q1_by_kernel_counting(g), g
    assert q1_avoiding(z, transversal_slot(z, 2)) == q1_by_kernel_counting(g, 2), g


def test_q1_matches_kernel_counting_on_every_graph_up_to_4_vertices():
    graphs = [g for n in range(5) for g in all_graphs(n, loops=True)]
    assert len(graphs) == 1099
    for g in graphs:
        check_q1_by_kernel_counting(g)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_q1_matches_kernel_counting_on_random_5_vertex_graphs(seed):
    rng = random.Random(seed)
    check_q1_by_kernel_counting(random_graph(rng, 5, loops=True, p=rng.choice((0.25, 0.5, 0.75))))


def same_rank_by_subsets(z1: Multimatroid, z2: Multimatroid) -> bool:
    """The oracle route for same_rank_oracle: the carriers, then one
    rank-oracle call per subtransversal on each side, up to the first that
    differs."""
    if z1.carrier != z2.carrier:
        return False
    return all(z1._rank(frozenset(s)) == z2._rank(frozenset(s))
               for s in z1.carrier.subtransversals())


def sheltered_by(carrier: Carrier, ground, field: int, entries) -> Multimatroid:
    return Multimatroid(carrier, matroid=Matroid(ground, matrix=GFMatrix.from_entries(
        field, entries, cols=len(ground))))


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_rank_tables_match_the_ranks_of_each_subtransversal(field, seed, n):
    """Random matrices over a random carrier of class sizes 1 to 4, packed
    over GF(2) and GF(4) and as circuit lists, compared in equal pairs (a
    circuit-list rebuild; GF(2) entries read over GF(4)), in unequal ones
    (another matrix on the same carrier; another carrier), and in pairs that
    differ at one subtransversal only: a transversal that is a basis made a
    circuit, or a circuit that is a transversal dropped."""
    rng = random.Random(seed)
    carrier = Carrier([rng.randint(1, 4) for _ in range(n)])
    ground = carrier.elements()
    rng.shuffle(ground)

    def entries(values):
        return [[rng.randrange(values) for _ in ground] for _ in range(rng.randint(0, n + 1))]

    binary = entries(GF2)
    packed, over_gf4 = (sheltered_by(carrier, ground, f, binary) for f in (GF2, GF4))
    other = sheltered_by(carrier, ground, field, entries(field))
    listed, other_listed = circuit_rebuild(packed), circuit_rebuild(other)
    pairs = {(packed, listed): True, (packed, over_gf4): True, (over_gf4, listed): True,
             (packed, other): None, (listed, other_listed): None, (over_gf4, other_listed): None,
             (listed, Multimatroid(Carrier([1, *carrier.class_sizes]), circuits=[])): False}
    basis = next((t for t in carrier.transversals() if t and packed.nullity(t) == 0), None)
    if basis is not None:
        circuits = [*listed.circuits(), frozenset(basis)]
        pairs[packed, Multimatroid(carrier, circuits=circuits, validate=False)] = False
    whole = [c for c in listed.circuits() if len(c) == n]
    if whole:
        circuits = [c for c in listed.circuits() if c != whole[0]]
        pairs[Multimatroid(carrier, circuits=circuits, validate=False), over_gf4] = False
    for (z1, z2), want in pairs.items():
        found = same_rank_oracle(z1, z2)
        assert found == same_rank_by_subsets(z1, z2) == same_rank_oracle(z2, z1)
        assert want is None or found == want


def scan_each_near_transversal(z: Multimatroid, op: str):
    """The oracle route for near_transversal_scan: one step per
    near-transversal S, in canonical order, comparing S's closure mask with
    its order-one minor's loops (InternalInconsistency at the first that
    differ) and stopping at the first closure of two or more elements.
    Nothing is kept on z."""
    loose = last = None
    for s, miss in z.carrier.near_transversals():
        if miss != last:
            pairs = zip(_closure_masks(z, miss), multimatroids._order_one_minor_loops(z, miss))
            last = miss
        mask, loops = next(pairs)
        if mask != loops:
            raise InternalInconsistency(f"{op}: the order-one minor by {list(s)} "
                                        "disagrees with the closure")
        if mask.bit_count() >= 2:
            flat = [x for x in z.carrier.skew_class(miss) if mask >> x[1] & 1]
            return (s, flat[0], flat[1]), loose or (s, miss)
        if not mask and loose is None:
            loose = (s, miss)
    return None, loose


def random_scan_input(rng: random.Random, n: int) -> Multimatroid:
    """A tight build (GF(2), GF(4) or a circuit list), or a random matrix
    over a random carrier of class sizes 1 to 3, packed or as a circuit
    list: loose and non-multimatroid inputs too."""
    if rng.random() < 0.4:
        return build(rng.choice(("gf2", "gf4", "circuits")), rng, n)
    carrier = Carrier([rng.randint(1, 3) for _ in range(n)])
    ground = carrier.elements()
    rng.shuffle(ground)
    field = rng.choice((GF2, GF4))
    z = sheltered_by(carrier, ground, field, [[rng.randrange(field) for _ in ground]
                                              for _ in range(rng.randint(0, n + 1))])
    return circuit_rebuild(z) if rng.random() < 0.5 else z


def scan_outcome(scan, z: Multimatroid) -> tuple:
    try:
        return "returned", scan(z, "scan")
    except InternalInconsistency as e:
        return "raised", str(e)


@given(seeds, st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_scan_matches_the_loop_over_each_near_transversal(seed, n):
    z = random_scan_input(random.Random(seed), n)
    assert "scan" not in z._kept
    assert near_transversal_scan(z, "scan") == scan_each_near_transversal(z, "scan")


@given(seeds, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_an_injected_disagreement_is_named_by_both_scans(seed, n):
    """One bit of one class's table of order-one minor loops flipped at a
    chosen pick: both routes raise at the same first disagreement, or
    return the same pair when an excess ends the scan before it.  On a
    tight input nothing ends it first, so the chosen pick is named."""
    rng = random.Random(seed)
    z = random_scan_input(rng, n)
    miss = rng.randrange(n)
    picks = [s for s, m in z.carrier.near_transversals() if m == miss]
    at, bit = rng.randrange(len(picks)), 1 << rng.randrange(z.carrier.class_sizes[miss])
    original = multimatroids._order_one_minor_loops

    def loops(z, c):
        found = bytearray(original(z, c))
        if c == miss:
            found[at] ^= bit
        return bytes(found)

    tight = tight_quick(z)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multimatroids, "_order_one_minor_loops", loops)
        found = scan_outcome(near_transversal_scan, z)
        assert found == scan_outcome(scan_each_near_transversal, z)
    assert "scan" not in z._kept or found[0] == "returned"
    if tight:
        assert found == ("raised", f"scan: the order-one minor by {list(picks[at])} "
                                   "disagrees with the closure")
