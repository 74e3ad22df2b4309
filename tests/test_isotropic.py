import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_inv_symmetric, random_symmetric
from mmlab import catalog
from mmlab.errors import (HasLoops, MalformedInput, NotInvSymmetric,
                          NotSymmetric, TooLarge)
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import (Graph, bicycle_dimension, eulerian_subsets,
                             format_graph, from_graph, graph_nullity_bridge,
                             isotropic_multimatroid, neighborhood_parity,
                             ort_via_eulerian, pair_multimatroid, parse_graph,
                             z_quaternary)
from mmlab.matroids import Matroid
from mmlab.multimatroids import (Carrier, Multimatroid, cycle_space_avoiding,
                                 is_multimatroid, is_tight, isomorphic,
                                 same_rank_oracle, tight_quick, transversal_slot)
from mmlab.orienting import orienting_transversals


def test_graph_construction_and_io():
    g = Graph(3, [(1, 0), (2, 2), (0, 1)])
    assert g.edges == ((0, 1), (2, 2))
    assert not g.is_simple()
    text = format_graph(g)
    assert text == "3\n0 1\n2 2\n"
    assert parse_graph(text) == g
    with pytest.raises(MalformedInput):
        parse_graph("")
    with pytest.raises(MalformedInput):
        parse_graph("2\n0 5\n")
    with pytest.raises(MalformedInput):
        parse_graph("two\n")


def test_eulerian_subsets_examples():
    k2 = Graph(2, [(0, 1)])
    assert eulerian_subsets(k2) == [frozenset(), frozenset({0}), frozenset({1})]
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    subs = eulerian_subsets(k3)
    assert len(subs) == 5
    assert frozenset({0, 1, 2}) in subs
    empty = Graph(4, [])
    assert len(eulerian_subsets(empty)) == 16
    with pytest.raises(HasLoops):
        eulerian_subsets(Graph(1, [(0, 0)]))


def test_neighborhood_parity():
    k2 = Graph(2, [(0, 1)])
    assert neighborhood_parity(k2, []) == (frozenset(), frozenset({0, 1}))
    assert neighborhood_parity(k2, [0]) == (frozenset({1}), frozenset())


def test_neighborhood_parity_consistency(rng):
    for _ in range(15):
        g = random_graph(rng, 5, loops=True)
        x = {v for v in range(5) if rng.random() < 0.5}
        odd, even = neighborhood_parity(g, x)
        assert odd | even == frozenset(range(5)) - x
        assert not odd & even
        for v in odd:
            assert sum(1 for u in x if g.adj_masks[u] >> v & 1) % 2 == 1


def test_h33_build():
    build = catalog.fixture_h33()
    z = build.multimatroid
    assert z.order == 3
    assert is_multimatroid(z)[0] and is_tight(z)[0]
    # sheltering matroid: rank 3 on 9 elements, full row rank
    assert build.matroid.size == 9
    assert build.matroid.rank_of(build.matroid.ground) == 3


def test_a_validated_build_keeps_its_scan(monkeypatch, tightness_scans):
    # the validation scan answers every later validator, each of which
    # still checks its bounds; an unvalidated build keeps no verdict until
    # a validator scans it, and tight_quick scans nothing
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid
    assert is_tight(z) == is_multimatroid(z) == (True, None) and tight_quick(z)
    assert tightness_scans == ["is_tight"]
    y = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    assert tight_quick(y) and tight_quick(y) and is_multimatroid(y)[0] and is_tight(y)[0]
    assert tightness_scans[1:] == ["is_multimatroid"]
    monkeypatch.setenv("MMLAB_MAX_ORDER", "2")
    for w, check, op in ((z, is_multimatroid, "is_multimatroid"), (z, is_tight, "is_tight"),
                         (y, tight_quick, "is_tight")):
        with pytest.raises(TooLarge, match=f"^{op}: order 3 exceeds bound 2$"):
            check(w)


def test_zero_matrix_build_is_edgeless_graph():
    n = 3
    build = isotropic_multimatroid(GFMatrix.zero(GF2, n, n))
    ort = orienting_transversals(build.multimatroid)
    assert len(ort) == 2 ** n


def test_symmetry_validation():
    with pytest.raises(NotSymmetric):
        isotropic_multimatroid(GFMatrix.from_entries(GF2, [[0, 1], [0, 0]]))
    with pytest.raises(NotInvSymmetric):
        isotropic_multimatroid(GFMatrix.from_entries(GF4, [[0, 2], [2, 0]]))
    with pytest.raises(MalformedInput):
        isotropic_multimatroid(GFMatrix.zero(GF2, 2, 3))


@pytest.mark.parametrize("field, entries", [(GF2, [[0, 1], [0, 0]]),
                                            (GF4, [[0, 2], [3, 0]])])
def test_pair_multimatroid_names_the_field_of_an_asymmetric_source(field, entries):
    with pytest.raises(NotSymmetric, match=rf"^GF\({field}\) source must be symmetric$"):
        pair_multimatroid(GFMatrix.from_entries(field, entries))


def test_gf4_diagonal_normalization():
    # an inv-symmetric matrix with ones on the diagonal
    a = GFMatrix.from_entries(GF4, [[1, 2], [3, 0]])
    build = isotropic_multimatroid(a)
    assert build.swapped_classes == frozenset({0})
    assert build.matrix.entry(0, 0) == 0
    # the multimatroid equals the literal three-block build of the source
    ident = GFMatrix.identity(GF4, 2)
    big = ident.hstack(a).hstack(a.add(ident))
    labels = [(v, b) for b in range(3) for v in range(2)]
    literal = Multimatroid(Carrier.uniform(2, 3),
                           matroid=Matroid(labels, matrix=big))
    assert same_rank_oracle(build.multimatroid, literal)


def test_inv_symmetric_builds_are_tight_exhaustive_small():
    from itertools import product
    from mmlab.fields import conjugate
    for n in (1, 2):
        off_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for diag in product((0, 1), repeat=n):
            for offs in product((0, 1, 2, 3), repeat=len(off_pairs)):
                entries = [[0] * n for _ in range(n)]
                for i in range(n):
                    entries[i][i] = diag[i]
                for (i, j), v in zip(off_pairs, offs):
                    entries[i][j] = v
                    entries[j][i] = conjugate(v)
                a = GFMatrix.from_entries(GF4, entries, cols=n)
                isotropic_multimatroid(a)  # validates internally


def test_inv_symmetric_builds_are_tight_random(rng):
    for n in (3, 4):
        for _ in range(25):
            a = random_inv_symmetric(rng, n)
            isotropic_multimatroid(a)  # validates internally


def test_aprime_matches_quaternary_triple():
    aprime = GFMatrix.from_entries(
        GF4, [[0, 0, 2, 3], [0, 0, 3, 2], [3, 2, 0, 0], [2, 3, 0, 0]])
    build = isotropic_multimatroid(aprime)
    triple = catalog.fixture_z_u24_triple()
    assert isomorphic(build.multimatroid, triple.multimatroid) is not None


def test_z_quaternary_single_coloop():
    m = Matroid.from_matrix(GFMatrix.identity(GF4, 1))
    build = z_quaternary(m)
    z = build.multimatroid
    two = z.delete(build.block_transversal(3))
    assert two.nullity([(0, 0)]) == 1  # dual copy: a loop
    assert two.nullity([(0, 1)]) == 0  # the coloop itself


def test_z_quaternary_random_standard_forms(rng):
    from conftest import random_standard_form
    for _ in range(12):
        m = random_standard_form(rng, GF4, rng.randint(1, 4))
        build = z_quaternary(m)  # raises ConstructionMismatch on failure
        assert is_tight(build.multimatroid)[0]


def test_z_quaternary_minor_compatibility(rng):
    from conftest import random_standard_form
    for _ in range(6):
        m = random_standard_form(rng, GF4, rng.randint(2, 3))
        build = z_quaternary(m)
        z = build.multimatroid
        v = 0
        e = m.ground[v]
        # slot 0 carries the dual copy, so this minor is matroid deletion;
        # uniqueness of tight extensions makes the match exact
        left = z.minor([(v, 0)])
        right = z_quaternary(m.minor(delete={e})).multimatroid
        assert same_rank_oracle(left, right)
        left2 = z.minor([(v, 1)])
        right2 = z_quaternary(m.minor(contract={e})).multimatroid
        assert same_rank_oracle(left2, right2)


def test_bicycle_dimension_examples():
    assert bicycle_dimension(catalog.u24_quaternary()) == 1
    for n in (1, 2, 3):
        free = Matroid.from_matrix(GFMatrix.identity(GF2, n))
        d = bicycle_dimension(free)
        assert free.tutte(-1, -1) == (-1) ** n * (-2) ** d


def test_bicycle_dimension_vs_tutte(rng):
    from conftest import random_standard_form
    for _ in range(12):
        m = random_standard_form(rng, GF2, rng.randint(1, 6))
        d = bicycle_dimension(m)
        assert m.tutte(-1, -1) == (-1) ** m.size * (-2) ** d
        t33 = m.tutte(3, 3)
        assert t33 % 2 ** d == 0 and (t33 // 2 ** d) % 2 == 1


def test_ort_via_eulerian_examples(rng):
    empty = Graph(3, [])
    assert len(ort_via_eulerian(empty)) == 8
    k2 = Graph(2, [(0, 1)])
    build = from_graph(k2)
    assert ort_via_eulerian(k2) == orienting_transversals(build.multimatroid)
    with pytest.raises(HasLoops):
        ort_via_eulerian(Graph(1, [(0, 0)]))


def test_cycle_space_matches_eulerian_structure(rng):
    for _ in range(8):
        g = random_graph(rng, 4)
        build = from_graph(g, validate=False)
        z = build.multimatroid
        t3 = transversal_slot(z, 2)
        cs = set(cycle_space_avoiding(z, t3))
        expected = set()
        for x in eulerian_subsets(g):
            odd, _even = neighborhood_parity(g, x)
            expected.add(frozenset(build.phi(2, x) | build.phi(1, odd)))
        assert cs == expected
        assert len(cs) == len(eulerian_subsets(g))


def test_graph_nullity_bridge(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5), loops=True)
        build = from_graph(g, validate=False)
        z = build.multimatroid
        assert graph_nullity_bridge(g, transversal_slot(z, 0), build) == 0
        assert graph_nullity_bridge(g, transversal_slot(z, 1), build) == \
            g.adjacency_nullity(range(g.n))
        ts = list(z.carrier.transversals())
        for _ in range(8):
            t = ts[rng.randrange(len(ts))]
            graph_nullity_bridge(g, t, build)  # asserts internally


def test_pair_build_tight_iff_zero_diagonal(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_symmetric(rng, GF2, n)
        z = pair_multimatroid(a)
        ok, _ = is_multimatroid(z)
        assert ok
        zero_diag = all(a.entry(v, v) == 0 for v in range(n))
        assert is_tight(z)[0] == zero_diag


def test_builds_make_no_matroid(matroids_built):
    # a build packs its block columns straight into its multimatroid
    from_graph(Graph(3, [(0, 1), (1, 2)]))
    isotropic_multimatroid(random_symmetric(random.Random(1), GF2, 3))
    isotropic_multimatroid(random_inv_symmetric(random.Random(2), 3))
    assert matroids_built == []


@given(st.sampled_from((GF2, GF4)), st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_build_matroid_is_the_explicit_block_matrix(field, seed, n):
    """build.matroid against Matroid(labels, [I | A | A+I]) built here: a
    GF(4) source has its diagonal ones cleared, and those classes take
    blocks 2 and 3 in slots 2 and 1."""
    rng = random.Random(seed)
    source = random_symmetric(rng, GF2, n) if field == GF2 else random_inv_symmetric(rng, n)
    swapped = {v for v in range(n) if field == GF4 and source.entry(v, v) == 1}
    a = GFMatrix.from_entries(field, [[0 if i == j and i in swapped else source.entry(i, j)
                                       for j in range(n)] for i in range(n)], cols=n)
    ident = GFMatrix.identity(field, n)
    labels = [(v, 3 - b if b and v in swapped else b) for b in range(3) for v in range(n)]
    want = Matroid(labels, matrix=ident.hstack(a).hstack(a.add(ident)))
    got = isotropic_multimatroid(source, validate=False).matroid
    assert got.ground == want.ground and got.matrix == want.matrix
