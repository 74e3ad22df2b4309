import random
from fractions import Fraction

import pytest

from conftest import (basis_transversals, random_graph, random_inv_symmetric,
                      random_standard_form, random_symmetric)
from mmlab import catalog, fields, multimatroids, orienting
from mmlab.errors import Degenerate, NotBinaryTight3, NotOrienting, NotTight
from mmlab.fields import GF2, GF4
from mmlab.isotropic import Graph, from_graph, isotropic_multimatroid, z_quaternary
from mmlab.matroids import Matroid
from mmlab.multimatroids import (Carrier, Multimatroid, dual_pair, free_sum,
                                 is_multimatroid, is_tight, sum_subtransversals,
                                 transversal_slot)
from mmlab.orienting import (_WEIGHT_SEED, _validate_binary_tight3, disjoint_orienting,
                             evaluation_suite, is_orienting,
                             orienting_from_seed, orienting_transversals)
from mmlab.polynomials import q1, q1_avoiding, transition


def test_ort_of_empty_multimatroid():
    # the one transversal, (), is bit 0 of the kept orienting bit set
    z = Multimatroid(Carrier(()), circuits=[])
    assert orienting_transversals(z) == [()]
    assert z._kept["deletion"].bits == 1


def test_ort_of_h33_is_empty():
    assert orienting_transversals(catalog.fixture("h33")) == []


def test_third_block_is_orienting_for_quaternary_triples(rng):
    for _ in range(6):
        m = random_standard_form(rng, GF4, rng.randint(1, 3))
        build = z_quaternary(m)
        t3 = build.block_transversal(3)
        assert t3 in orienting_transversals(build.multimatroid)


def test_ort_rejects_degenerate():
    z = Multimatroid(Carrier((1, 2)), circuits=[])
    with pytest.raises(Degenerate):
        orienting_transversals(z)


def test_disjoint_orienting_counts(rng):
    for _ in range(6):
        g = random_graph(rng, 4)
        z = from_graph(g, validate=False).multimatroid
        ts = list(z.carrier.transversals())
        for _ in range(10):
            t = ts[rng.randrange(len(ts))]
            assert len(disjoint_orienting(z, t)) == 2 ** z.nullity(t)


def test_basis_has_at_most_one_disjoint_orienting(rng):
    # holds for any 3-matroid, binary or not
    zs = [catalog.fixture("h33"), catalog.fixture("z-u24-3")]
    for _ in range(3):
        zs.append(from_graph(random_graph(rng, 3), validate=False).multimatroid)
    for z in zs:
        for b in basis_transversals(z):
            assert len(disjoint_orienting(z, b)) <= 1


def test_is_orienting_circuit_test(rng):
    g = Graph(3, [(0, 1), (1, 2)])
    build = from_graph(g)
    z = build.multimatroid
    assert is_orienting(z, transversal_slot(z, 2))
    ort = set(orienting_transversals(z))
    for t in z.carrier.transversals():
        assert is_orienting(z, t) == (t in ort)
    with pytest.raises(NotTight):
        is_orienting(catalog.fixture("s2"), ((0, 0), (1, 0), (2, 0)))


def test_is_orienting_rejects_a_partial_subtransversal():
    # no circuit meets the empty set in one element, yet it is no transversal
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid
    for t in ([], [(0, 2)], transversal_slot(z, 2)[:2]):
        with pytest.raises(NotOrienting, match="must be a transversal"):
            is_orienting(z, t)


def test_is_orienting_three_routes_agree(rng):
    # deletion tightness, circuit intersections, and cycle parity
    from mmlab.multimatroids import cycle_space, tight_quick
    for _ in range(8):
        g = random_graph(rng, 4)
        z = from_graph(g, validate=False).multimatroid
        cycles = cycle_space(z)
        for t in z.carrier.transversals():
            tset = set(t)
            by_definition = tight_quick(z.delete(t))
            by_circuits = is_orienting(z, t)
            by_cycles = all(len(tset & c) % 2 == 0 for c in cycles)
            assert by_definition == by_circuits == by_cycles, (g, t)


def test_orienting_from_seed_agrees(rng):
    for _ in range(8):
        g = random_graph(rng, 4)
        build = from_graph(g, validate=False)
        z = build.multimatroid
        brute = orienting_transversals(z)
        fast = orienting_from_seed(z, build.block_transversal(3))
        assert brute == fast


@pytest.mark.parametrize("field", ["gf2", "gf4"])
def test_coset_route_holds_exactly_on_binary_tight_3_matroids(field):
    """Random isotropic builds, not validated: from every orienting seed the
    coset route gives brute force's list on a binary tight 3-matroid, and
    raises NotBinaryTight3 on the others, as the validator does."""
    rng = random.Random(15)
    rejected = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_symmetric(rng, GF2, n) if field == "gf2" else random_inv_symmetric(rng, n)
        z = isotropic_multimatroid(a, validate=False).multimatroid
        brute = orienting_transversals(z)
        try:
            _validate_binary_tight3(z)
        except NotBinaryTight3 as exc:
            reason = str(exc)
        else:
            reason = None
        for seed in brute:
            if reason is None:
                assert orienting_from_seed(z, seed) == brute
            else:
                with pytest.raises(NotBinaryTight3, match=f"^{reason}$"):
                    orienting_from_seed(z, seed)
        rejected += reason is not None and bool(brute)
    assert rejected > 0 if field == "gf4" else rejected == 0


def test_orienting_from_seed_trivial_cycle_space():
    # a graph whose pair deletion has trivial cycle space: one vertex
    g = Graph(1, [])
    build = from_graph(g)
    z = build.multimatroid
    seed = build.block_transversal(3)
    out = orienting_from_seed(z, seed)
    assert seed in out
    with pytest.raises(NotOrienting):
        orienting_from_seed(z, ((0, 1),))


def test_orienting_from_seed_rejects_degenerate():
    z = Multimatroid(Carrier((2, 1)), circuits=[frozenset({(0, 1)})])
    with pytest.raises(Degenerate, match="nondegenerate"):
        orienting_from_seed(z, ((0, 0), (1, 0)))


def test_orienting_coset_within_fixed_transversal(rng):
    for _ in range(6):
        g = random_graph(rng, 4)
        z = from_graph(g, validate=False).multimatroid
        ort = orienting_transversals(z)
        ts = list(z.carrier.transversals())
        for _ in range(6):
            t = ts[rng.randrange(len(ts))]
            inside = {frozenset(y) for y in ort if frozenset(y).isdisjoint(t)}
            seeds = [y for y in ort if frozenset(y).isdisjoint(t)]
            if not seeds:
                assert not inside
                continue
            tprime = seeds[0]
            m = z.sheltering_matroid
            within = m.minor(delete=set(m.ground) - set(t)).cycle_space()
            coset = {frozenset(sum_subtransversals(z.carrier, tprime, c)) for c in within}
            assert coset == inside


def test_each_multimatroid_enumerates_its_circuits_once(circuit_enumerations):
    # the coset route's parity check reads the circuits of z, and its cycle
    # space reads the same ones, as no deletion is built; a second read, the
    # suite's parity check included, enumerates nothing
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    ort = orienting_transversals(z)
    assert orienting_from_seed(z, ort[0]) == ort
    assert evaluation_suite(z, transversal_slot(z, 0)).passed
    assert circuit_enumerations == [z]
    z.circuits()
    assert circuit_enumerations == [z]
    # the minor scan reads the circuits of each minor it builds once and the
    # pattern's once: it builds only the minors whose sliced histogram is
    # h33's, none of the binary z4's 12 and one of the triple z-u24-3's 3.
    # The validated builds, the pattern and z-u24-3, read theirs at build
    # time, in the validators' scan
    circuit_enumerations.clear()
    z4 = from_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]), validate=False).multimatroid
    pattern = catalog.fixture_h33.__wrapped__().multimatroid
    triple = catalog.fixture("z-u24-3")
    assert circuit_enumerations == [pattern, triple]
    assert catalog.has_minor(z4, pattern) is None
    assert circuit_enumerations == [pattern, triple]
    assert catalog.has_minor(triple, pattern)[0] == ((0, 2),)
    assert len(circuit_enumerations) == 2 + 1
    assert None not in circuit_enumerations
    assert len({id(y) for y in circuit_enumerations}) == len(circuit_enumerations)
    assert sum(y is pattern for y in circuit_enumerations) == 1


def test_pair_swap_split_lemma(rng):
    for _ in range(5):
        g = random_graph(rng, 3)
        z = from_graph(g, validate=False).multimatroid
        for t in z.carrier.transversals():
            for x in t:
                cls = x[0]
                others = [(cls, s) for s in range(3) if (cls, s) != x]
                swaps = [tuple(sorted(set(t) - {x} | {o})) for o in others]
                if all(z.nullity(s) == z.nullity(t) - 1 for s in swaps):
                    e_t = set(map(frozenset, disjoint_orienting(z, t)))
                    e_1 = set(map(frozenset, disjoint_orienting(z, swaps[0])))
                    e_2 = set(map(frozenset, disjoint_orienting(z, swaps[1])))
                    assert not (e_1 & e_2)
                    assert e_t == e_1 | e_2


def test_singular_class_factorization(rng):
    # an isolated loopless vertex makes its adjacency column zero
    g = Graph(3, [(1, 2)])
    z = from_graph(g).multimatroid
    assert z.nullity([(0, 1)]) == 1  # singular element
    ort = orienting_transversals(z)
    smaller = orienting_transversals(z.delete(z.carrier.skew_class(0)))
    assert len(ort) == 2 * len(smaller)


def test_tight_iff_every_basis_has_disjoint_orienting(rng):
    # binary 3-matroids: graph builds are tight, a free sum with a repeated
    # summand is not
    for _ in range(4):
        g = random_graph(rng, 3)
        z = from_graph(g, validate=False).multimatroid
        assert all(disjoint_orienting(z, b) for b in basis_transversals(z))
    u12 = Matroid([0, 1], circuits=[{0, 1}])
    free = Matroid([0, 1], circuits=[])
    z = free_sum([free, u12, u12])
    assert not is_tight(z)[0]
    assert any(not disjoint_orienting(z, b) for b in basis_transversals(z))


def test_order_one_minor_characterization(rng):
    # orienting iff every order-one minor avoiding the transversal has a
    # circuit disjoint from it
    g = random_graph(rng, 3)
    z = from_graph(g, validate=False).multimatroid
    ort = set(orienting_transversals(z))
    for t in z.carrier.transversals():
        tset = set(t)
        ok = True
        for s, _miss in z.carrier.near_transversals():
            if not frozenset(s).isdisjoint(tset):
                continue
            minor = z.minor(s)
            cmap = z.minor_class_map(s)
            if not any(all((cmap[c], sl) not in tset for (c, sl) in circ)
                       for circ in minor.circuits()):
                ok = False
                break
        assert ok == (t in ort)


def test_eval_suite_k2():
    z = from_graph(Graph(2, [(0, 1)])).multimatroid
    rep = evaluation_suite(z, tuple((c, 0) for c in range(2)))
    assert rep.passed
    assert rep.ort_count == 3
    by_name = {i.name: i for i in rep.identities}
    assert by_name["q1_at_2"].lhs == 12
    k_id = by_name["odd_cofactor_times_2pow"]
    assert k_id.odd_factor % 2 == 1


def test_eval_suite_single_vertex():
    g = Graph(1, [])
    z = from_graph(g).multimatroid
    rep = evaluation_suite(z, ((0, 0),))
    assert rep.passed
    # the degree-4 global value counts Eulerian subsets times 2^|V|
    from mmlab.polynomials import global_interlace
    assert global_interlace(g)(4) == 2 * 2


def test_eval_suite_rejects_non_binary():
    with pytest.raises(NotBinaryTight3):
        evaluation_suite(catalog.fixture("h33"), ((0, 0), (1, 0), (2, 0)))
    with pytest.raises(NotBinaryTight3):
        evaluation_suite(catalog.fixture("s4"), ((0, 0), (1, 0), (2, 0), (3, 0)))


def test_eval_suite_names_the_failed_condition():
    carrier = Carrier.uniform(2, 3)
    t = ((0, 0), (1, 0))
    two_loops = Multimatroid(carrier, circuits=[frozenset({(0, 0)}),
                                                frozenset({(0, 1)})])
    with pytest.raises(NotBinaryTight3, match="not a multimatroid"):
        evaluation_suite(two_loops, t)
    free = Multimatroid(carrier, circuits=[])
    with pytest.raises(NotBinaryTight3, match="not tight"):
        evaluation_suite(free, t)


def test_validation_builds_one_minor_per_near_transversal(cross_check_calls):
    # the order-one minors of the 27 near-transversals, their loops read
    # from the circuits of z, one table per missing class: no Multimatroid
    # is built
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    loops_at, minors = cross_check_calls
    _validate_binary_tight3(z)
    assert loops_at == list(range(z.order)) == [0, 1, 2]
    assert minors == []


def test_eval_suite_report_dict():
    z = from_graph(Graph(2, [(0, 1)])).multimatroid
    rep = evaluation_suite(z, ((0, 0), (1, 0)))
    d = rep.to_dict()
    assert d["pass"] is True
    assert d["ort_count"] == 3
    assert all(set(i) >= {"name", "lhs", "rhs", "pass"} for i in d["identities"])


def test_validated_build_is_not_scanned_again_by_the_suite(cross_check_calls):
    # the build keeps its cross-checked verdict; the suite reads it
    loops_at, _ = cross_check_calls
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid
    assert len(loops_at) == 3
    assert evaluation_suite(z, transversal_slot(z, 0)).passed
    assert len(loops_at) == 3


@pytest.mark.parametrize("n", range(5))
def test_suite_builds_no_minor_and_one_closure_table_per_class(
        n, cross_check_calls, closure_mask_calls):
    # the minor expansion slices z's own tables; it built 2^n - 1 minors
    z = from_graph(Graph(n, [(v, v + 1) for v in range(n - 1)])).multimatroid
    _, minors = cross_check_calls
    closure_mask_calls.clear()
    assert evaluation_suite(z, [(c, c % 3) for c in range(n)]).passed
    assert minors == []
    assert sorted(closure_mask_calls) == list(range(n))


def test_one_kept_scan_answers_every_validator(cross_check_calls):
    # the build's cross-check (one loop table per class) is the only
    # one: classification, the suite and the exclusion check read the scan
    # kept on z
    loops_at, _ = cross_check_calls
    catalog.fixture("h33")  # the classifier's pattern, validated once per session
    loops_at.clear()
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid
    assert len(loops_at) == 3
    assert catalog.classify_binary_tight3(z).binary
    assert evaluation_suite(z, transversal_slot(z, 0)).passed
    assert is_multimatroid(z) == (True, None)
    assert len(loops_at) == 3


def test_each_class_closure_table_is_walked_once_per_object(monkeypatch, closure_mask_calls):
    # brute force, the coset route's seed check and validation, and the
    # suite's validation, minor counts and sums all read z's kept tables:
    # one closure table per class, each sliced from the one nullity table,
    # which one walk of fields.leaf_nullities writes
    walks = []
    walk = fields.leaf_nullities

    def counted(field, levels):
        walks.append(len(levels))
        return walk(field, levels)

    monkeypatch.setattr(fields, "leaf_nullities", counted)
    for n in range(1, 5):
        walks.clear()
        closure_mask_calls.clear()
        z = from_graph(Graph(n, [(v, v + 1) for v in range(n - 1)]), validate=False).multimatroid
        ort = orienting_transversals(z)
        assert walks == [n] and sorted(closure_mask_calls) == list(range(n))
        assert orienting_from_seed(z, ort[0]) == ort
        assert evaluation_suite(z, transversal_slot(z, 0)).passed
        assert walks == [n]


def test_one_deletion_table_per_object(monkeypatch):
    # brute force, the coset route's seed check and the suite's minor counts
    # read the deletion tables kept on z
    built = []
    init = orienting._DeletionTables.__init__

    def counted(self, z):
        built.append(z)
        init(self, z)

    monkeypatch.setattr(orienting._DeletionTables, "__init__", counted)
    for n in range(1, 4):
        built.clear()
        z = from_graph(Graph(n, [(v, v + 1) for v in range(n - 1)]), validate=False).multimatroid
        ort = orienting_transversals(z)
        assert orienting_from_seed(z, ort[0]) == ort
        assert evaluation_suite(z, transversal_slot(z, 0)).passed
        assert orienting_transversals(z) == ort
        assert built == [z]


def test_the_skew_pair_parity_is_kept_on_z(monkeypatch):
    # orienting_from_seed and evaluation_suite both validate z, and
    # classification tests the same parity: one pass over the circuit pairs
    passes = []
    count = multimatroids._skew_pair_counts

    def counted(masks, order):
        passes.append(len(masks))
        return count(masks, order)

    monkeypatch.setattr(multimatroids, "_skew_pair_counts", counted)
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    circuits = z.circuits()
    assert orienting_from_seed(z, transversal_slot(z, 2))
    assert passes == [len(circuits)]
    passes.clear()
    assert evaluation_suite(z, transversal_slot(z, 0)).passed
    assert catalog.classify_binary_tight3(z).binary
    assert passes == []


def test_suite_scans_a_z_that_is_not_tight_once(tightness_scans):
    free = Multimatroid(Carrier.uniform(2, 3), circuits=[])
    with pytest.raises(NotBinaryTight3, match="not tight"):
        evaluation_suite(free, ((0, 0), (1, 0)))
    assert tightness_scans == ["is_tight"]


@pytest.mark.parametrize("seed", range(6))
def test_suite_weighted_lhs_equal_transition_values(seed):
    """The scaled-integer lhs of the weighted identities, against
    polynomials.transition with the suite's Fraction weights rebuilt from
    its seed."""
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 4))
    z = from_graph(g).multimatroid
    rep = evaluation_suite(z, [(c, rng.randrange(3)) for c in range(g.n)])
    assert rep.passed
    wrng = random.Random(_WEIGHT_SEED + 7 * g.n)
    weights = {e: Fraction(wrng.randint(1, 9), wrng.randint(1, 4))
               for e in sorted(z.carrier.elements())}
    ys = [2 * wrng.randint(-12, 12) for _ in range(5)]
    p = transition(z, weights)
    got = [(i.name, i.lhs) for i in rep.identities
           if i.name.startswith(("weighted_pow2_depth", "halving_at_"))]
    assert got == [("weighted_pow2_depth1", p(2)), ("weighted_pow2_depth2", p(4))] + \
        [(f"halving_at_{y}", p(y)) for y in ys]
    assert all(type(i.lhs) is type(i.rhs) is Fraction for i in rep.identities)


def test_the_orienting_set_is_decoded_once_per_object(monkeypatch):
    # the deletion tables keep the orienting bit set and its decoded
    # transversals: brute force hands out copies, the seed check tests the
    # seed's bit and the suite reads the kept list
    decoded = []

    def counted_format(value, spec):
        decoded.append(value)
        return format(value, spec)

    monkeypatch.setattr(orienting, "format", counted_format, raising=False)
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    ort = orienting_transversals(z)
    kept = list(ort)
    ort.clear()
    assert orienting_transversals(z) == kept != []
    for t in z.carrier.transversals():
        if t in kept:
            assert orienting_from_seed(z, t) == kept
        else:
            with pytest.raises(NotOrienting, match="^seed transversal is not orienting$"):
                orienting_from_seed(z, t)
    assert evaluation_suite(z, transversal_slot(z, 0)).ort_count == len(kept)
    assert len(decoded) == 1


def test_every_transversal_sum_reads_one_nullity_walk(table_walks):
    # q1, the deletion's q1, the transition polynomial and the suite's
    # weighted and deleted sums all slice the one nullity table z keeps
    z = from_graph(Graph(4, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 0)]),
                   validate=False).multimatroid
    q1(z)
    q1_avoiding(z, transversal_slot(z, 2))
    transition(z, {e: Fraction(e[1] + 1, 2) for e in z.carrier.elements()})
    assert evaluation_suite(z, transversal_slot(z, 0)).passed
    assert table_walks == ["walk"]
