"""Property tests for the prefix-echelon walks.

The walks eliminate over GF(2) alone: GF(4) vectors enter them doubled,
with their a-multiples (fields._doubled), while rank_of_vectors keeps the
two-plane GF(4) step, so every per-leaf reference below shares no GF(4)
arithmetic with the walk it checks.  The doubling itself is checked against
_scale_row and rank_of_vectors.  The nullity walk (fields.leaf_nullities)
is checked against one full elimination per leaf, and the sums read from it
(Multimatroid.nullity_histogram, which slices the table the walk writes, and
the graph polynomials) against one rank-oracle nullity per transversal and
one Graph.nullity_mask per (vertex mask, loop toggle); counting tests pin
one walk per vertex mask for the graph polynomials and no table indexing
for unbanned, unweighted sums.  The span walk
(conftest.span_masks, an oracle route for the closure tables) is checked
against one rank_of_vectors per leaf and target, on levels and targets of
unequal widths.  The circuit walk (fields.circuit_picks, behind the
circuits() of packed multimatroids and represented matroids) is checked
against the brute-force minimal-dependent-set enumeration under the rank
oracle.  The near-transversal scan, which reads its closures from the
nullity table, is checked against the rank oracle's closures.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (KINDS, build, closure_in_class, random_graph, random_standard_form,
                      span_masks)
from mmlab import catalog, multimatroids, orienting, polynomials
from mmlab.fields import (GF2, GF4, GFMatrix, _doubled, _scale_row, circuit_picks,
                          leaf_nullities, rank_of_vectors)
from mmlab.matroids import Matroid, minimal_sets
from mmlab.multimatroids import (Carrier, Multimatroid, is_multimatroid, is_tight,
                                 near_transversal_scan, tight_quick)
from mmlab.polynomials import (Polynomial, bracket, global_interlace,
                               interlace, q1, q1_avoiding, shifted_power_sum,
                               transition)

seeds = st.integers(0, 2 ** 32 - 1)
def reference_histogram(z: Multimatroid, banned=(), weights=None) -> list:
    hist = [0] * (z.order + 1)
    for t in z.carrier.transversals():
        if set(banned) & set(t):
            continue
        w = 1
        for e in t:
            w *= 1 if weights is None else weights[e]
        if w:
            hist[z.nullity(t)] += w
    return hist


def power_expand(counts: dict, shift: int) -> Polynomial:
    """sum of c_n * (y + shift)^n by repeated polynomial multiplication."""
    total = Polynomial.zero()
    for n, c in counts.items():
        power = Polynomial((1,))
        for _ in range(n):
            power = power * Polynomial((shift, 1))
        total = total + power.scale(c)
    return total


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_per_leaf_elimination(field, seed, depth):
    rng = random.Random(seed)
    pairs = [[(rng.getrandbits(4), rng.getrandbits(4) if field == GF4 else 0)
              for _ in range(rng.randint(0, 3))] for _ in range(depth)]
    levels = pairs if field == GF4 else [[lo for lo, _ in c] for c in pairs]
    leaves = [depth - rank_of_vectors(field, picked) for picked in product(*pairs)]
    assert leaf_nullities(field, levels) == bytes(leaves)


planes = st.tuples(st.integers(0, 255), st.integers(0, 255))


@given(st.lists(st.lists(planes, max_size=4), max_size=3), st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_doubled_vectors_span_the_gf4_span(groups, width):
    # each (lo, hi) packs as lo | hi << w, w the widest plane (at least
    # width), and the map is _scale_row(2, ...) on such ints, on the tag
    # block below the rows too
    doubled, w, amul = _doubled(GF4, groups, width)
    widest = max([0] + [(lo | hi).bit_length() for g in groups for lo, hi in g])
    assert w == max(width, widest) and _doubled(GF4, groups)[1] == widest
    assert doubled == [[lo | hi << w for lo, hi in g] for g in groups]
    vectors = [v for g in groups for v in g]
    for lo, hi in vectors + [(lo ^ hi, lo) for lo, hi in vectors]:
        alo, ahi = _scale_row(2, lo, hi)
        assert amul(lo | hi << w) == alo | ahi << w
        for tlo, thi in vectors[:2]:
            tags = tlo | thi << w
            assert amul((lo | hi << w) << 2 * w | tags) == (alo | ahi << w) << 2 * w | amul(tags)
    both = [v for g in doubled for v in g] + [amul(v) for g in doubled for v in g]
    assert rank_of_vectors(GF2, ((v, 0) for v in both)) == 2 * rank_of_vectors(GF4, vectors)
    assert _doubled(GF2, groups, width) == (groups, width, None)


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 4), st.integers(0, 5),
       st.integers(0, 7))
@settings(max_examples=80, deadline=None)
def test_span_walk_matches_per_leaf_rank(field, seed, depth, level_bits, target_bits):
    # narrow planes give zero vectors and empty levels often; targets may be
    # wider or narrower than every level vector
    rng = random.Random(seed)

    def vector(bits):
        return rng.getrandbits(bits), rng.getrandbits(bits) if field == GF4 else 0

    levels = [[vector(level_bits) for _ in range(rng.randint(0, 3))] for _ in range(depth)]
    targets = [vector(target_bits) for _ in range(rng.randint(0, 4))]
    want = []
    for picked in product(*levels):
        r = rank_of_vectors(field, picked)
        want.append(sum(1 << j for j, t in enumerate(targets)
                        if rank_of_vectors(field, picked + (t,)) == r))

    def packed(vs):
        return list(vs) if field == GF4 else [lo for lo, _ in vs]

    assert span_masks(field, [packed(c) for c in levels], packed(targets)) == want


def test_span_walk_packs_targets_wider_than_the_levels():
    # over GF(4), (1, 1) = b spans only multiples of the first unit vector
    assert span_masks(GF4, [[(1, 1)]], [(2, 0), (1, 0), (0, 1), (3, 3)]) == [0b0110]
    assert span_masks(GF4, [], [(0, 0), (4, 0)]) == [0b01]
    assert span_masks(GF4, [[(0, 0)], []], [(0, 0)]) == []
    assert span_masks(GF2, [[0, 1]], [8, 0, 1]) == [0b010, 0b110]


@given(st.sampled_from(KINDS), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_histogram_matches_per_transversal_nullity(kind, seed, n):
    rng = random.Random(seed)
    z = build(kind, rng, n)
    assert z.nullity_histogram() == reference_histogram(z)
    banned = [e for e in z.carrier.elements() if rng.random() < 0.3]
    assert z.nullity_histogram(banned) == reference_histogram(z, banned)
    weights = {e: Fraction(rng.randint(-2, 3), rng.randint(1, 4))
               for e in z.carrier.elements()}
    assert z.nullity_histogram(banned, weights) == \
        reference_histogram(z, banned, weights)
    # a zero weight prunes its element as a ban does: equal entries, of equal types
    zeroed = weights | {e: 0 for e in banned}
    for got, want in zip(z.nullity_histogram((), zeroed), z.nullity_histogram(banned, weights)):
        assert (got, type(got)) == (want, type(want))
    assert q1(z) == Polynomial(reference_histogram(z))
    assert q1_avoiding(z, banned) == Polynomial(reference_histogram(z, banned))


@given(st.sampled_from(KINDS), seeds, st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_emptied_class_gives_zero(kind, seed, n):
    rng = random.Random(seed)
    z = build(kind, rng, n)
    c = rng.randrange(z.order)
    assert z.nullity_histogram(z.carrier.skew_class(c)) == [0] * (z.order + 1)
    assert q1_avoiding(z, z.carrier.skew_class(c)) == Polynomial.zero()
    w = {e: 1 for e in z.carrier.elements()}
    assert z.nullity_histogram(z.carrier.skew_class(c), w) == [0] * (z.order + 1)


@given(st.sampled_from(KINDS), seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_unweighted_histogram_counts_what_unit_weights_sum(kind, seed, n):
    # the byte counts of the table (or its slice) equal the sums of unit
    # weight products, entry for entry and as ints: with no bans, random
    # bans and an emptied class
    rng = random.Random(seed)
    z = build(kind, rng, n)
    ones = {e: 1 for e in z.carrier.elements()}
    bans = [(), [e for e in z.carrier.elements() if rng.random() < 0.3]]
    if z.order:
        bans.append(z.carrier.skew_class(rng.randrange(z.order)))
    for banned in bans:
        got = z.nullity_histogram(banned)
        assert got == z.nullity_histogram(banned, ones)
        assert len(got) == z.order + 1 and all(type(c) is int for c in got)


@pytest.mark.parametrize("kind", KINDS)
def test_unbanned_sums_count_the_table_without_indexing_it(monkeypatch, kind):
    rng = random.Random(11)
    z = build(kind, rng, 3)
    want = Polynomial(reference_histogram(z))
    calls = []
    indices = multimatroids._table_indices
    monkeypatch.setattr(multimatroids, "_table_indices",
                        lambda *args: calls.append(args) or indices(*args))
    assert q1(z) == want
    assert orienting._q1_eval(z, (2, -1)) == [want(2), want(-1)]
    assert calls == []
    # a ban slices the table: one index list
    assert q1_avoiding(z, [(0, 0)]) == Polynomial(reference_histogram(z, [(0, 0)]))
    assert len(calls) == 1


def test_order_zero():
    z = Multimatroid(Carrier(()), circuits=[])
    assert z.nullity_histogram() == [1]
    assert type(z.nullity_histogram()[0]) is int
    assert z.nullity_histogram(weights={}) == [1]
    assert leaf_nullities(GF2, []) == leaf_nullities(GF4, []) == bytes(1)


@given(st.sampled_from(KINDS), seeds, st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_transition_zero_weights_and_coefficient_types(kind, seed, n):
    rng = random.Random(seed)
    z = build(kind, rng, n)
    weights = {e: rng.choice((0, 0, 1, 2, Fraction(1, 3)))
               for e in z.carrier.elements()}
    p = transition(z, weights)
    assert p == Polynomial(reference_histogram(z, weights=weights))
    # leaves with a nonzero weight product, per nullity
    landed = [0] * (z.order + 1)
    for t in z.carrier.transversals():
        if all(weights[e] for e in t):
            landed[z.nullity(t)] += 1
    for c, hits in zip(p.coeffs, landed):
        if hits:
            assert type(c) is Fraction
        else:
            assert type(c) is int and c == 0
    if not any(landed):
        assert p == Polynomial.zero()


@given(seeds, st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_graph_polynomials_match_nullity_mask_sums(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, loops=True, p=rng.choice((0.25, 0.5, 0.75)))
    full = (1 << n) - 1
    plain: dict[int, int] = {}
    toggled: dict[int, int] = {}
    loops: dict[int, int] = {}
    for xmask in range(1 << n):
        k = g.nullity_mask(xmask)
        plain[k] = plain.get(k, 0) + 1
        for toggle in range(1 << n):
            if toggle & ~xmask:
                continue
            k = g.nullity_mask(xmask, toggle)
            toggled[k] = toggled.get(k, 0) + 1
            if xmask == full:
                loops[k] = loops.get(k, 0) + 1
    assert interlace(g) == power_expand(plain, -1)
    assert global_interlace(g) == power_expand(toggled, -2)
    assert bracket(g) == power_expand(loops, 0)


def test_graph_polynomials_walk_each_vertex_mask(monkeypatch):
    # criterion 4 checks these against q1 and q1_avoiding, so they keep the
    # masked graph-side form: interlace and global_interlace walk each vertex
    # mask X once, with |X| levels of rows inside X (one candidate, or the
    # row and its loop toggle); bracket walks the full vertex set once
    walks = []
    walk = polynomials.leaf_nullities

    def counted(field, levels):
        walks.append((field, [list(level) for level in levels]))
        return walk(field, levels)

    monkeypatch.setattr(polynomials, "leaf_nullities", counted)
    rng = random.Random(5)
    for n in list(range(7)) * 3:
        g = random_graph(rng, n, loops=True, p=rng.choice((0.25, 0.5, 0.75)))
        for poly, width in ((interlace, 1), (global_interlace, 2)):
            walks.clear()
            poly(g)
            assert len(walks) == 1 << n
            for xmask, (field, levels) in zip(range(1 << n), walks):
                assert field == GF2 and len(levels) == xmask.bit_count()
                assert all(len(level) == width and all(row & ~xmask == 0 for row in level)
                           for level in levels)
        walks.clear()
        bracket(g)
        assert len(walks) == 1
        assert walks[0][0] == GF2 and [len(level) for level in walks[0][1]] == [2] * n


@given(st.dictionaries(st.integers(0, 7),
                       st.integers(-9, 9) | st.fractions(max_denominator=5),
                       max_size=6),
       st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_shifted_power_sum_matches_repeated_multiplication(counts, shift):
    assert shifted_power_sum(counts, shift) == power_expand(counts, shift)


def brute_circuits(z: Multimatroid) -> list:
    """The oracle route: the minimal dependent subtransversals, under the
    rank oracle."""
    found = minimal_sets(s for s in map(frozenset, z.carrier.subtransversals())
                         if z._rank(s) < len(s))
    return sorted(found, key=sorted)


def packed_builds(kind: str, rng: random.Random, n: int):
    """A packed build, or one of the fixtures h33 and z-u24-3, with a random
    restriction and a random deletion of it."""
    z = catalog.fixture(kind) if kind in ("h33", "z-u24-3") else build(kind, rng, n)
    keep = [e for e in z.carrier.elements() if rng.random() < 0.7]
    drop = [e for e in z.carrier.elements() if rng.random() < 0.3]
    return z, z.restrict(keep), z.delete(drop)


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_circuit_walk_matches_minimal_dependent_picks(field, seed, depth):
    rng = random.Random(seed)
    pairs = [[(rng.getrandbits(3), rng.getrandbits(3) if field == GF4 else 0)
              for _ in range(rng.randint(0, 3))] for _ in range(depth)]
    levels = pairs if field == GF4 else [[lo for lo, _ in c] for c in pairs]
    subsets = (frozenset(zip(ls, js)) for k in range(1, depth + 1)
               for ls in combinations(range(depth), k)
               for js in product(*[range(len(pairs[i])) for i in ls]))
    want = minimal_sets(s for s in subsets
                        if rank_of_vectors(field, [pairs[i][j] for i, j in s]) < len(s))
    got = circuit_picks(field, levels)
    assert all(list(p) == sorted(p) for p in got)  # level order
    assert sorted(map(frozenset, got), key=sorted) == sorted(want, key=sorted)


@given(st.sampled_from(("gf2", "gf4", "gf4_pair", "h33", "z-u24-3")), seeds,
       st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_packed_circuits_match_the_oracle_route(kind, seed, n):
    rng = random.Random(seed)
    for z in packed_builds(kind, rng, n):
        assert z.kind == "sheltered"
        want = brute_circuits(z)
        walked = circuit_picks(z._field, z._packed(map(z.carrier.skew_class, range(z.order))))
        assert sorted(map(frozenset, walked), key=sorted) == want
        assert z.circuits() == want


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_represented_matroid_circuits_match_the_oracle_route(field, seed, n):
    m = random_standard_form(random.Random(seed), field, n)
    want = minimal_sets(w for k in range(1, m.size + 1)
                        for w in map(frozenset, combinations(m.ground, k))
                        if m.rank_of(w) < len(w))
    assert m.circuits() == sorted(want, key=lambda c: tuple(sorted(map(m._key, c))))


def test_circuit_walk_on_empty_levels_and_a_loop():
    assert circuit_picks(GF2, []) == []
    assert circuit_picks(GF4, [[], []]) == []
    assert circuit_picks(GF2, [[0, 1]]) == [((0, 0),)]


def scan_by_definition(z: Multimatroid):
    """The oracle route for near_transversal_scan: each near-transversal's
    closure from the rank oracle, in canonical order, up to the first one
    of two or more elements."""
    loose = None
    for s, miss in z.carrier.near_transversals():
        flat = closure_in_class(z, frozenset(s), miss)
        if len(flat) != 1 and loose is None:
            loose = s, miss
        if len(flat) >= 2:
            return (s, flat[0], flat[1]), loose
    return None, loose


@given(st.sampled_from((GF2, GF4)), seeds, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_near_transversal_scan_matches_the_rank_oracle(field, seed, n):
    # a random matrix sheltering a random carrier: tight, loose and
    # non-multimatroid inputs, packed and as circuit lists
    rng = random.Random(seed)
    carrier = Carrier([rng.randint(1, 3) for _ in range(n)])
    ground = carrier.elements()
    rng.shuffle(ground)
    mat = GFMatrix.from_entries(field, [[rng.randrange(field) for _ in ground]
                                        for _ in range(rng.randint(0, n + 1))], cols=len(ground))
    packed = Multimatroid(carrier, matroid=Matroid(ground, matrix=mat))
    listed = Multimatroid(carrier, circuits=packed.circuits(), validate=False)
    excess, loose = want = scan_by_definition(packed)
    for z in (packed, listed):
        assert tight_quick(z) == (loose is None)
        assert near_transversal_scan(z, "scan") == want
        assert is_multimatroid(z) == (excess is None, excess)
        assert is_tight(z) == (loose is None, loose)
