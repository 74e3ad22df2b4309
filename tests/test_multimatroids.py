import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (basis_transversals, deletion_map, matroid_bases_set, random_graph,
                      random_standard_form)
import mmlab
from mmlab import catalog, fields, multimatroids, serialize
from mmlab.errors import (GroundMismatch, InternalInconsistency, MalformedInput,
                          NotSubtransversal, NotTriple, TooLarge, UnknownElement)
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import Graph, from_graph
from mmlab.matroids import Matroid
from mmlab.multimatroids import (Carrier, Multimatroid, as_subtransversal,
                                 cycle_space, cycle_space_avoiding, dual_pair,
                                 element_label, element_name, free_sum, is_multimatroid,
                                 is_tight, isomorphic, parse_element_label,
                                 same_rank_oracle, sum_subtransversals,
                                 tight_quick, transversal_slot)
from mmlab.orienting import disjoint_orienting
from mmlab.polynomials import q1_avoiding


def free_mm(sizes):
    carrier = Carrier(sizes)
    ground = carrier.elements()
    return Multimatroid(carrier, matroid=Matroid(
        ground, matrix=GFMatrix.identity(GF2, len(ground))))


def test_carrier_basics():
    c = Carrier((2, 3, 2))
    assert c.order == 3
    assert c.ground_size == 7
    assert not c.is_uniform(2)
    assert c.transversal_count() == 12
    assert len(list(c.transversals())) == 12
    assert len(list(c.subtransversals())) == 3 * 4 * 3
    assert len(list(c.near_transversals())) == 6 + 4 + 6


def test_subtransversal_normalization():
    c = Carrier((2, 2))
    assert as_subtransversal(c, [(1, 0), (0, 1)]) == ((0, 1), (1, 0))
    with pytest.raises(NotSubtransversal):
        as_subtransversal(c, [(0, 0), (0, 1)])
    with pytest.raises(UnknownElement):
        as_subtransversal(c, [(5, 0)])


def test_element_labels():
    assert element_label((0, 0)) == "1a"
    assert element_label((2, 2)) == "3c"
    assert parse_element_label("3c") == (2, 2)
    # class numbers start at 1 and are ASCII digits ('\u00b2'.isdigit() holds),
    # fewer than int()'s digit limit
    for text in ("0a", "00b", "\u00b2a", "1e", "a", "", "1" * 5000 + "a"):
        with pytest.raises(MalformedInput, match="bad element label"):
            parse_element_label(text)


def test_sheltered_ground_size_is_checked_before_the_elements_are_listed():
    # listing 10**12 carrier elements would not finish
    carrier = Carrier([10 ** 12])
    with pytest.raises(GroundMismatch, match="grounded on the carrier"):
        Multimatroid(carrier, matroid=Matroid([(0, 0)], matrix=GFMatrix.identity(GF2, 1)))


@pytest.mark.parametrize("t", list(Carrier.uniform(3, 3).transversals()))
def test_circuit_list_cross_check_catches_a_wrong_rank(monkeypatch, t):
    """A circuit-list rank oracle off by one at one transversal of h33: the
    order-one minors come from the circuit list, not from the oracle, so
    the cross-check disagrees."""
    h = catalog.fixture("h33")
    real = multimatroids.rank_from_circuits
    wrong = frozenset(t)
    delta = -1 if real(h.circuits(), wrong) == 3 else 1
    monkeypatch.setattr(multimatroids, "rank_from_circuits",
                        lambda cs, s: real(cs, s) + (delta if s == wrong else 0))
    with pytest.raises(InternalInconsistency, match="disagrees with the closure"):
        is_tight(Multimatroid(h.carrier, circuits=h.circuits()))


def test_nullity_examples():
    z = from_graph(Graph(1, [])).multimatroid
    assert z.nullity([]) == 0
    assert z.nullity([(0, 1)]) == 1  # the adjacency column is zero
    assert z.nullity([(0, 0)]) == 0
    h = catalog.fixture("h33")
    for c in h.circuits():
        assert len(c) == h.order and h.nullity(c) == 1


def test_circuits_of_free_and_fixtures():
    assert free_mm((2, 2, 2)).circuits() == []
    s2 = catalog.fixture("s2")
    assert s2.circuits() == [frozenset({(0, 0), (1, 0), (2, 0)})]


def test_restrict_and_delete():
    z = catalog.fixture("s4")
    assert same_rank_oracle(z.delete([]), z)
    dropped = z.delete(z.carrier.skew_class(0))
    assert dropped.order == 3
    kept = z.restrict([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert kept.order == 2


_AT_ELEMENTS = {
    "q1_avoiding": lambda z, e: q1_avoiding(z, [e]),
    "nullity_histogram": lambda z, e: z.nullity_histogram([e]),
    "restrict": lambda z, e: z.restrict([e]),
    "delete": lambda z, e: z.delete([e]),
    "disjoint_orienting": lambda z, e: disjoint_orienting(z, [e]),
    "cycle_space_avoiding": lambda z, e: cycle_space_avoiding(z, [e]),
}


@pytest.mark.parametrize("realization", ["packed", "circuits"])
@pytest.mark.parametrize("e", ["junk", (7, 1), (9, 9), (0, 3), (-1, 0), ("1", 0), (0, 0, 0)])
@pytest.mark.parametrize("entry", sorted(_AT_ELEMENTS))
def test_elements_outside_the_carrier_are_named(realization, e, entry):
    # bans and deletions name an unknown element, as restrict does
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid
    if realization == "circuits":
        z = Multimatroid(z.carrier, circuits=z.circuits())
    with pytest.raises(UnknownElement, match=f"^{re.escape(element_name(e))} is not a carrier"):
        _AT_ELEMENTS[entry](z, e)


def test_delete_then_minor_commutes(rng):
    for _ in range(20):
        g = random_graph(rng, 4)
        z = from_graph(g, validate=False).multimatroid
        x = ((0, rng.randrange(3)),)
        u2 = {(2, rng.randrange(3))}
        left = z.delete(u2).minor(x)
        # the minor renumbers the surviving classes
        cmap = {old: new for new, old in enumerate(z.minor_class_map(x))}
        right = z.minor(x).delete({(cmap[c], s) for (c, s) in u2})
        assert same_rank_oracle(left, right)


def test_minor_nullity_identity(rng):
    for _ in range(20):
        g = random_graph(rng, 4)
        z = from_graph(g, validate=False).multimatroid
        x = tuple((c, rng.randrange(3)) for c in range(2))
        zx = z.minor(x)
        nx = z.nullity(x)
        for s in zx.carrier.subtransversals():
            back = tuple((c + 2, slot) for (c, slot) in s)
            assert zx.nullity(s) == z.nullity(back + x) - nx


def test_is_multimatroid_free_sums_and_failure(rng):
    for _ in range(10):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        z = dual_pair(m)
        ok, _ = is_multimatroid(z)
        assert ok
    bad = Multimatroid(Carrier((2, 2)),
                       circuits=[frozenset({(0, 0), (1, 0)}),
                                 frozenset({(0, 1), (1, 0)})])
    ok, witness = is_multimatroid(bad)
    assert not ok
    s, x1, x2 = witness
    assert {x1[0], x2[0]} == {x1[0]}  # both in the same skew class


def test_fixtures_are_multimatroids():
    for name in ("s1", "s2", "s3", "s4", "s5"):
        ok, _ = is_multimatroid(catalog.fixture(name))
        assert ok, name


def test_tightness():
    for name, expect in (("s1", False), ("s2", False), ("s3", False),
                         ("s4", True), ("s5", True)):
        assert is_tight(catalog.fixture(name))[0] == expect, name
    empty = free_mm(())
    assert is_tight(empty)[0]


def test_dual_pair_always_tight(rng):
    for _ in range(10):
        m = random_standard_form(rng, rng.choice((GF2, 4)), rng.randint(1, 4))
        assert is_tight(dual_pair(m))[0]


def test_bases_free_and_fixtures():
    z = free_mm((2, 2))
    assert len(z.bases()) == 4
    s2 = catalog.fixture("s2")
    bases = s2.bases()
    assert len(bases) == 7
    assert ((0, 0), (1, 0), (2, 0)) not in bases
    s4 = catalog.fixture("s4")
    bases4 = s4.bases()
    assert len(bases4) == 7
    for b in bases4:
        a_count = sum(1 for (_, s) in b if s == 0)
        assert a_count in (0, 2)


def test_bases_refuses_a_non_transversal_basis_of_a_nondegenerate_build():
    # 1a is independent and both slots of class 2 lie in its closure, which
    # no multimatroid allows, so {1a} is a maximal independent set
    z = Multimatroid(Carrier((2, 2)), validate=False,
                     circuits=[frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (1, 1)})])
    with pytest.raises(InternalInconsistency, match="^non-transversal basis in a nondegenerate"):
        z.bases()


def test_bases_add_one_element_of_one_missing_class_at_a_time():
    # with class 3 a loop, {1a} is not maximal; on a family that is no
    # matroid, {2a} is, though 1a and 3a together add to its rank
    loop = Multimatroid(Carrier((1, 1, 1)), circuits=[frozenset({(2, 0)})])
    assert loop.bases() == [((0, 0), (1, 0))]
    family = Multimatroid(Carrier((1, 1, 1)), validate=False,
                          circuits=[frozenset({(0, 0), (1, 0)}), frozenset({(1, 0), (2, 0)})])
    assert family.bases() == [((0, 0), (2, 0)), ((1, 0),)]


def test_isomorphic_self_and_dual(rng):
    z = catalog.fixture("s4")
    iso = isomorphic(z, z)
    assert iso is not None
    for _ in range(6):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        m_std = m.standard_form()
        z1 = dual_pair(m_std)
        z2 = dual_pair(m_std.dual())
        assert isomorphic(z1, z2) is not None


def test_isomorphic_checks_its_bounds(monkeypatch):
    # either argument's order, or either's largest class
    for z1, z2 in ((free_mm((2,) * 6), free_mm((2,) * 5)), (free_mm((2,) * 5), free_mm((2,) * 6))):
        with pytest.raises(TooLarge, match=r"^isomorphic: order 6 exceeds bound 5$"):
            isomorphic(z1, z2)
    monkeypatch.setenv("MMLAB_MAX_ORDER", "6")
    assert isomorphic(free_mm((2,) * 6), free_mm((2,) * 6)) is not None
    for z1, z2 in ((free_mm((4, 2)), free_mm((2, 2))), (free_mm((2, 2)), free_mm((2, 4)))):
        with pytest.raises(TooLarge, match=r"^isomorphism search handles class sizes up to 3$"):
            isomorphic(z1, z2)


def test_isomorphic_backtracks_to_a_class_it_tried():
    # the classes pair up as 0-3 and 1-2 in z1 and as 0-1 and 2-3 in z2:
    # class 1 onto class 1 fails a level deeper, and class 3 then needs it
    def paired(pairs):
        return Multimatroid(Carrier((2,) * 4), circuits=[
            frozenset({(a, s), (b, s)}) for a, b in pairs for s in range(2)])

    assert isomorphic(paired([(0, 3), (1, 2)]), paired([(0, 1), (2, 3)])) == {
        (0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (2, 0), (1, 1): (2, 1),
        (2, 0): (3, 0), (2, 1): (3, 1), (3, 0): (1, 0), (3, 1): (1, 1)}


def test_isomorphic_distinguishes():
    assert isomorphic(catalog.fixture("s1"), catalog.fixture("s3")) is None
    assert isomorphic(catalog.fixture("s2"), catalog.fixture("s3")) is None


def test_sum_subtransversals():
    c = Carrier.uniform(3, 3)
    x = ((0, 0), (1, 1))
    assert sum_subtransversals(c, x, ()) == x
    assert sum_subtransversals(c, x, x) == ()
    assert sum_subtransversals(c, ((0, 0),), ((0, 1),)) == ((0, 2),)
    with pytest.raises(NotTriple):
        sum_subtransversals(Carrier.uniform(2, 2), (), ())


@given(st.integers(0, 3 ** 6 - 1), st.integers(0, 3 ** 6 - 1))
@settings(max_examples=60, deadline=None)
def test_sum_subtransversals_commutes(a, b):
    c = Carrier.uniform(3, 3)

    def decode(v):
        out = []
        for cls in range(3):
            v, r = divmod(v, 9)
            if r % 3 != 0 or r // 3 == 1:
                out.append((cls, r % 3))
        return as_subtransversal(c, out)

    x, y = decode(a), decode(b)
    assert sum_subtransversals(c, x, y) == sum_subtransversals(c, y, x)


def test_classes_with_pair_and_difference_identity(rng):
    c = Carrier.uniform(4, 3)
    assert c.classes_with_pair([(0, 0), (1, 1)]) == frozenset()
    assert c.classes_with_pair(c.skew_class(2)) == frozenset({2})

    def rand_sub():
        return as_subtransversal(
            c, [(i, rng.randrange(3)) for i in range(4) if rng.random() < 0.6])

    for _ in range(80):
        s, s1, s2 = rand_sub(), rand_sub(), rand_sub()
        summed = sum_subtransversals(c, s1, s2)
        lhs = c.classes_with_pair(set(s) | set(summed))
        rhs = c.classes_with_pair(set(s) | set(s1)) ^ \
            c.classes_with_pair(set(s) | set(s2))
        assert lhs == rhs


def test_cycle_space_free_and_counts(rng):
    assert cycle_space(free_mm((2, 2))) == [frozenset()]
    for _ in range(8):
        g = random_graph(rng, 4)
        b = from_graph(g, validate=False)
        z = b.multimatroid
        cs = cycle_space(z)
        assert frozenset() in cs
        # closure under the triple sum
        pool = set(cs)
        for c1 in cs:
            for c2 in cs:
                assert frozenset(sum_subtransversals(z.carrier, c1, c2)) in pool


def test_cycle_space_avoiding_matches_deletion(rng):
    for _ in range(6):
        g = random_graph(rng, 3)
        z = from_graph(g, validate=False).multimatroid
        t3 = transversal_slot(z, 2)
        direct = cycle_space_avoiding(z, t3)
        deleted = z.delete(t3)
        emap = deletion_map(z, t3)
        inv = {v: k for k, v in emap.items()}
        relabeled = sorted(frozenset(inv[e] for e in c)
                           for c in cycle_space(deleted))
        assert sorted(direct) == relabeled
        # no transversal avoids a whole class
        assert cycle_space_avoiding(z, z.carrier.skew_class(0)) == []


def test_a_whole_class_avoided_enumerates_no_circuit(circuit_enumerations):
    # no transversal avoids a whole class, so there is nothing to span
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    for c in range(z.order):
        assert cycle_space_avoiding(z, [*z.carrier.skew_class(c), (0, 0)]) == []
    assert circuit_enumerations == []


def test_cycle_spaces_match_the_null_space_route(rng):
    # GF(2) builds: the cycles inside a transversal t are the cycles of the
    # sheltering matroid restricted to t, read from its null space
    for i in range(8):
        if i % 2:
            z = dual_pair(random_standard_form(rng, GF2, rng.randint(1, 4)))
        else:
            z = from_graph(random_graph(rng, 3, loops=True), validate=False).multimatroid
        m = z.sheltering_matroid

        def within(t):
            return set(m.minor(delete=set(m.ground) - set(t)).cycle_space())

        ts = list(z.carrier.transversals())
        t = ts[rng.randrange(len(ts))]
        avoided = [y for y in ts if set(t).isdisjoint(y)]
        for got, spanned in ((cycle_space(z), ts), (cycle_space_avoiding(z, t), avoided)):
            assert set(got) == set().union(*map(within, spanned))
            assert len(got) == len(set(got))


def test_circuits_are_kept_and_handed_out_as_copies():
    for z in (from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid,
              catalog.fixture("s4")):
        first = z.circuits()
        kept = list(first)
        first.clear()
        assert z.circuits() == kept == sorted(kept, key=sorted) != []
        assert (z._kept["circuits"] if z.kind == "sheltered" else z._circuits) == tuple(kept)


def test_kept_circuits_keep_the_bound_texts(monkeypatch):
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    z.circuits()
    t = transversal_slot(z, 0)
    calls = {"circuits": z.circuits, "cycle_space": lambda: cycle_space(z),
             "cycle_space_avoiding": lambda: cycle_space_avoiding(z, t)}
    texts = {"2": {op: f"{op}: order 3 exceeds bound 2" for op in calls},
             "many": dict.fromkeys(calls, "MMLAB_MAX_ORDER is not an integer: 'many'")}
    for value, expected in texts.items():
        monkeypatch.setenv("MMLAB_MAX_ORDER", value)
        for op, call in calls.items():
            with pytest.raises(TooLarge) as exc:
                call()
            assert str(exc.value) == expected[op]


def test_derived_packed_multimatroids_start_without_circuits():
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    z.circuits()
    assert "circuits" in z._kept and z._circuits is None
    m = Matroid.from_matrix(GFMatrix.from_entries(GF2, [[1, 0, 1], [0, 1, 1]]))
    derived = [z.minor([(0, 0)]), z.restrict([e for e in z.carrier.elements() if e != (1, 2)]),
               z.delete(transversal_slot(z, 0)), free_sum([m, m])]
    assert [(d._circuits, d._kept) for d in derived] == [(None, {})] * len(derived)
    for d in derived:
        assert same_rank_oracle(d, Multimatroid(d.carrier, circuits=d.circuits()))


def test_free_sum_basis_count_matches(rng):
    for _ in range(10):
        m = random_standard_form(rng, GF2, rng.randint(1, 5))
        z = dual_pair(m)
        assert len(basis_transversals(z)) == len(matroid_bases_set(m))


def test_free_sum_multimatroid_iff_orthogonal(rng):
    # two copies of the two-element circuit are mutually orthogonal
    u12 = Matroid([0, 1], circuits=[{0, 1}])
    ok, _ = is_multimatroid(free_sum([u12, u12]))
    assert ok
    # a loop next to a coloop is not orthogonal to itself
    loopy = Matroid([0, 1], circuits=[{0}])
    ok, _ = is_multimatroid(free_sum([loopy, loopy]))
    assert not ok
    with pytest.raises(GroundMismatch):
        free_sum([u12, Matroid([5], circuits=[])])
    # the equivalence on random pairs
    for _ in range(12):
        n = rng.randint(1, 3)
        m1 = random_standard_form(rng, GF2, n)
        m2c = random_standard_form(rng, GF2, n)
        m2 = Matroid(m1.ground, matrix=m2c.matrix)
        z = free_sum([m1, m2])
        ok, _ = is_multimatroid(z)
        assert ok == m1.orthogonal(m2)


def test_free_sum_takes_only_the_matroids():
    assert list(inspect.signature(free_sum).parameters) == ["matroids"]


def test_pair_minor_matches_matroid_deletion_and_contraction(rng):
    for _ in range(8):
        m = random_standard_form(rng, GF2, rng.randint(2, 5))
        z = dual_pair(m)
        e = m.ground[0]
        # slot 0 carries the dual copy: its minor deletes the element
        left = z.minor([(0, 0)])
        right = dual_pair(m.minor(delete={e}))
        assert same_rank_oracle(left, right)
        left2 = z.minor([(0, 1)])
        right2 = dual_pair(m.minor(contract={e}))
        assert same_rank_oracle(left2, right2)


def test_tightness_preserved_under_minors():
    for name in ("s4", "s5", "h33", "z-u24", "z-u24-3"):
        z = catalog.fixture(name)
        assert is_tight(z)[0]
        for s in z.carrier.subtransversals():
            if 0 < len(s) <= 2:
                assert is_tight(z.minor(s))[0], (name, s)


def test_basis_exchange(rng):
    zs = [catalog.fixture("s4"), catalog.fixture("s5"),
          catalog.fixture("h33")]
    for _ in range(4):
        zs.append(from_graph(random_graph(rng, 3), validate=False).multimatroid)
    for z in zs:
        bases = [set(b) for b in z.bases()]
        for t in bases:
            for t2 in bases:
                diff = {e for e in (t ^ t2)}
                pair_classes = z.carrier.classes_with_pair(diff)
                for cls in pair_classes:
                    p = {e for e in diff if e[0] == cls}
                    found = False
                    for cls2 in pair_classes:
                        q = {e for e in diff if e[0] == cls2}
                        if set(t2) ^ (p | q) in [set(b) for b in bases]:
                            found = True
                            break
                    assert found


def test_two_skew_pairs_lemma():
    for name in ("s4", "s5", "h33"):
        z = catalog.fixture(name)
        circuits = z.circuits()
        for c in circuits:
            touched = sorted({e[0] for e in c})
            for i, w1 in enumerate(touched):
                for w2 in touched[i + 1:]:
                    assert any(
                        z.carrier.classes_with_pair(c | c2) == {w1, w2}
                        for c2 in circuits), (name, c, w1, w2)


def test_dependent_when_no_single_pair_union():
    for name in ("s4", "s5", "h33"):
        z = catalog.fixture(name)
        circuits = z.circuits()
        for s in z.carrier.subtransversals():
            if not s:
                continue
            fs = frozenset(s)
            if all(len(z.carrier.classes_with_pair(fs | c)) != 1
                   for c in circuits):
                assert z.nullity(s) > 0, (name, s)


def test_even_skew_pairs_on_graph_builds(rng):
    from conftest import all_graphs
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for _ in range(8):
        graphs.append(random_graph(rng, 5))
    for g in graphs:
        z = from_graph(g, validate=False).multimatroid
        cs = cycle_space(z)
        for c1 in cs:
            for c2 in cs:
                assert len(z.carrier.classes_with_pair(c1 | c2)) % 2 == 0


def test_cycle_space_membership_characterization(rng):
    for _ in range(5):
        g = random_graph(rng, 3)
        z = from_graph(g, validate=False).multimatroid
        cs = set(cycle_space(z))
        for s in z.carrier.subtransversals():
            fs = frozenset(s)
            even_all = all(
                len(z.carrier.classes_with_pair(fs | c)) % 2 == 0 for c in cs)
            assert even_all == (fs in cs), (g, s)


def test_realizations_are_interchangeable(rng):
    # materializing the circuits of a sheltered multimatroid and rebuilding
    # from them reproduces the whole rank oracle
    for _ in range(6):
        g = random_graph(rng, 3, loops=True)
        z = from_graph(g, validate=False).multimatroid
        rebuilt = Multimatroid(z.carrier, circuits=z.circuits())
        assert same_rank_oracle(z, rebuilt)
    for _ in range(6):
        z = dual_pair(random_standard_form(rng, GF2, rng.randint(1, 4)))
        rebuilt = Multimatroid(z.carrier, circuits=z.circuits())
        assert same_rank_oracle(z, rebuilt)


def test_matroid_given_by_circuits_is_kept_as_circuit_list(rng):
    for _ in range(4):
        z = from_graph(random_graph(rng, 3, loops=True), validate=False).multimatroid
        m = z.sheltering_matroid
        by_matroid = Multimatroid(z.carrier, matroid=Matroid(
            m.ground, circuits=m.circuits(), validate=False))
        listed = Multimatroid(z.carrier, circuits=z.circuits())
        assert by_matroid.kind == "circuits" and by_matroid.sheltering_matroid is None
        assert by_matroid.circuits() == listed.circuits()
        assert same_rank_oracle(by_matroid, listed)
        assert same_rank_oracle(by_matroid, z)
        assert serialize.mm_to_dict(by_matroid) == serialize.mm_to_dict(listed)


def test_same_rank_oracle_reads_one_walk_per_packed_side(monkeypatch, table_walks):
    # packed builds over GF(2) and GF(4), equal and unequal: one nullity walk
    # each and no rank-oracle call; a circuit list asks the oracle once per
    # subtransversal.  Each side keeps its table, so g and u24, compared
    # twice, are walked once
    g = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    h = from_graph(Graph(3, [(0, 1)]), validate=False).multimatroid
    u24 = catalog.fixture("z-u24")
    parallel = Matroid.from_matrix(GFMatrix.from_entries(GF4, [[1, 0, 1, 0], [0, 1, 1, 2]]))
    ranks = []
    rank = Multimatroid._rank

    def counted(self, s):
        ranks.append(s)
        return rank(self, s)

    monkeypatch.setattr(Multimatroid, "_rank", counted)
    for z1, z2, want, walks in ((g, g.restrict(g.carrier.elements()), True, 2),
                                (g, h, False, 1),
                                (u24, dual_pair(catalog.u24_quaternary()), True, 2),
                                (u24, dual_pair(parallel), False, 1)):
        table_walks.clear()
        assert same_rank_oracle(z1, z2) == want
        assert table_walks == ["walk"] * walks and ranks == []
    listed = Multimatroid(g.carrier, circuits=g.circuits(), validate=False)
    fresh = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    table_walks.clear()
    assert same_rank_oracle(fresh, listed)
    assert table_walks.count("walk") == 1 and len(ranks) == 4 ** 3
    table_walks.clear()
    assert same_rank_oracle(listed, fresh)
    assert table_walks == [] and len(ranks) == 4 ** 3


def test_validators_cross_check_each_near_transversal(monkeypatch):
    # one extra loop at a single near-transversal leaves the tightness
    # verdicts of the two routes equal, but not their closures; z is built
    # unvalidated and first read on one route, so that no kept scan answers
    z = from_graph(Graph(2, [(0, 1)]), validate=False).multimatroid
    assert tight_quick(z)
    target = ((1, 0),)  # the first pick of class 0's table
    original = multimatroids._order_one_minor_loops

    def loops(z, miss):
        found = bytearray(original(z, miss))
        if miss == 0:
            found[0] |= ~found[0] & (found[0] + 1)  # the lowest slot not a loop
        return bytes(found)

    monkeypatch.setattr(multimatroids, "_order_one_minor_loops", loops)
    for _ in range(2):  # a failed scan stores no verdict
        with pytest.raises(InternalInconsistency, match=re.escape(f"by {list(target)} ")):
            is_tight(z)
    with pytest.raises(InternalInconsistency, match=re.escape(f"by {list(target)} ")):
        is_multimatroid(z)
    assert tight_quick(z) and "scan" not in z._kept


def test_cross_checked_scan_builds_no_matroid(matroids_built):
    # the cross-check's order-one minors are packed columns only
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    matroids_built.clear()
    assert is_tight(z) == (True, None)
    assert matroids_built == []
    assert not hasattr(z, "_matroid")


@pytest.mark.parametrize("realization", ["packed", "circuits"])
def test_cross_checked_scan_reads_one_closure_table_per_class(monkeypatch, realization):
    # three closure tables, sliced from one nullity table, and three loop
    # tables read from z's circuits; no minor is built.  Packed columns: no
    # rank-oracle call; circuit lists: one rank call per transversal for
    # the table, none for the closures.  Every closure is one slot, so no
    # pick's entries are all equal, and the scan walks no class's picks
    # (itertools.product): only the circuit-list nullity table does
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    if realization == "circuits":
        z = Multimatroid(z.carrier, circuits=z.circuits(), validate=False)
    calls = {}

    def counted(name, fn):
        def run(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return run

    for name in ("minor", "_rank"):
        monkeypatch.setattr(Multimatroid, name, counted(name, getattr(Multimatroid, name)))
    for name in ("_closure_masks", "_order_one_minor_loops", "product"):
        monkeypatch.setattr(multimatroids, name, counted(name, getattr(multimatroids, name)))
    assert is_tight(z) == (True, None)
    expected = {"_closure_masks": 3, "_order_one_minor_loops": 3}
    if realization == "circuits":
        expected["_rank"] = 27
        expected["product"] = 1  # the nullity table's transversals
    assert calls == expected


def test_validators_cross_check_the_closure_table(monkeypatch):
    # one bit dropped at the first pick of class 1's table
    z = from_graph(Graph(2, [(0, 1)]), validate=False).multimatroid
    original = multimatroids._closure_masks

    def masks(z, miss):
        found = list(original(z, miss))
        if miss == 1:
            found[0] &= found[0] - 1
        return found

    monkeypatch.setattr(multimatroids, "_closure_masks", masks)
    for check in (is_tight, is_multimatroid):
        with pytest.raises(InternalInconsistency, match=re.escape("by [(0, 0)] ")):
            check(z)


def test_validators_cross_check_the_circuit_walk(monkeypatch):
    # the first circuit the walk finds, {(0, 0), (1, 1)}, dropped: it is the
    # only circuit inside its transversal, so (0, 0) leaves the loops of the
    # order-one minor by [(1, 1)] while the closure table keeps it
    z = from_graph(Graph(2, [(0, 1)]), validate=False).multimatroid
    walk = fields.circuit_picks
    monkeypatch.setattr(fields, "circuit_picks", lambda *args: walk(*args)[1:])
    for check in (is_tight, is_multimatroid, is_tight):
        with pytest.raises(InternalInconsistency, match=re.escape(
                f"{check.__name__}: the order-one minor by [(1, 1)] disagrees with the closure")):
            check(z)
    assert len(z.circuits()) == 2 and "scan" not in z._kept


def test_enumeration_bounds():
    big = free_mm((2,) * 9)
    with pytest.raises(TooLarge):
        big.circuits()
    with pytest.raises(TooLarge):
        big.bases()
    with pytest.raises(TooLarge):
        is_tight(big)


def test_stored_verdict_keeps_the_bound_check(monkeypatch, tightness_scans):
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid  # validated
    assert tightness_scans == ["is_tight"]
    monkeypatch.setenv("MMLAB_MAX_ORDER", "2")
    with pytest.raises(TooLarge, match=r"^is_tight: order 3 exceeds bound 2$"):
        is_tight(z)
    with pytest.raises(TooLarge, match=r"^is_multimatroid: order 3 exceeds bound 2$"):
        is_multimatroid(z)
    monkeypatch.setenv("MMLAB_MAX_ORDER", "many")
    with pytest.raises(TooLarge, match=r"^MMLAB_MAX_ORDER is not an integer: 'many'$"):
        is_tight(z)
    monkeypatch.delenv("MMLAB_MAX_ORDER")
    assert is_tight(z) == is_multimatroid(z) == (True, None)
    assert tightness_scans == ["is_tight"]  # the build's scan, kept


def test_unchecked_scans_store_no_verdict(tightness_scans, cross_check_calls):
    # tight_quick reads the closure tables only: no scan, no cross-check,
    # no verdict; the first checked call scans once and keeps its pair
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    assert tight_quick(z) and tight_quick(z)
    assert tightness_scans == [] and cross_check_calls[0] == [] and "scan" not in z._kept
    assert is_tight(z) == (True, None)
    assert is_tight(z) == is_multimatroid(z) == (True, None)
    assert tight_quick(z)
    assert tightness_scans == ["is_tight"]
    assert cross_check_calls[0] == [0, 1, 2]


def test_derived_multimatroids_start_without_a_verdict(monkeypatch, tightness_scans):
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid
    assert tight_quick(z) and tightness_scans == ["is_tight"]
    m = z.sheltering_matroid
    derived = [z.minor([(0, 0)]), z.restrict([e for e in z.carrier.elements() if e != (1, 2)]),
               z.delete(transversal_slot(z, 0)), free_sum([m, m]),
               Multimatroid(z.carrier, matroid=m),
               Multimatroid(z.carrier, circuits=z.circuits(), validate=False).minor([(0, 0)])]
    monkeypatch.setenv("MMLAB_MAX_ORDER", "9")  # the free sum has one class per element
    assert all(d._kept == {} for d in derived)  # no scan, no closure table
    tightness_scans.clear()
    for d in derived:
        is_tight(d)
    assert tightness_scans == ["is_tight"] * len(derived)


def test_non_tight_witnesses_are_stored_unchanged(tightness_scans):
    z = from_graph(Graph(3, [(0, 1), (1, 2)]), validate=False).multimatroid
    packed = z.restrict([e for e in z.carrier.elements() if e != (1, 2)])
    by_circuits = catalog.fixture("s1")
    for y, witness in ((packed, (((0, 0), (2, 2)), 1)),
                       (by_circuits, (((1, 0), (2, 0)), 0))):
        assert not tight_quick(y)
        tightness_scans.clear()
        assert is_tight(y) == is_tight(y) == (False, witness) and not tight_quick(y)
        assert is_multimatroid(y) == (True, None)
        assert tightness_scans == ["is_tight"]


def test_sheltering_by_circuits_beyond_the_enumeration_bound(monkeypatch):
    # 18 elements: more than a matroid's circuits() may enumerate, but the
    # given circuit family is read as is
    carrier = Carrier.uniform(9, 2)
    circuits = [{(0, 0), (1, 0), (2, 0)}, {(3, 1), (4, 1)}, {(5, 0), (5, 1)}]
    z = Multimatroid(carrier, matroid=Matroid(carrier.elements(), circuits=circuits))
    assert carrier.ground_size == 18
    assert z.kind == "circuits"
    assert z.rank(circuits[0]) == 2
    # order 9 is past circuits()'s bound; lifted, the kept family comes back
    monkeypatch.setenv("MMLAB_MAX_ORDER", "9")
    assert z.circuits() == [frozenset(circuits[0]), frozenset(circuits[1])]


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class/static methods
                if inspect.isfunction(member) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_public_callable_takes_a_bound_or_seed():
    """Bounds are the constants in mmlab.bounds, overridden only by
    MMLAB_MAX_ORDER, and the evaluation report's seed is fixed."""
    offenders, seen = [], 0
    for info in pkgutil.iter_modules(mmlab.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"mmlab.{info.name}")
        for qual, fn in _public_callables(mod):
            seen += 1
            params = set(inspect.signature(fn).parameters)
            if params & {"order_bound", "bound", "rng_seed"}:
                offenders.append(f"{mod.__name__}.{qual}")
    assert seen > 100
    assert offenders == []


# The public names that no code in src/ or bench/ calls.  Each is a paper
# identity or a feature the README promises, and its README row says so.
PAPER_IDENTITIES = {
    "catalog.basis_parity", "catalog.bases_within_class_extension",
    "isotropic.bicycle_dimension", "isotropic.graph_nullity_bridge",
    "matroids.Matroid.cycle_space", "matroids.Matroid.direct_sum",
    "matroids.Matroid.orthogonal", "multimatroids.cycle_space",
    "multimatroids.sum_subtransversals", "orienting.disjoint_orienting",
    "orienting.is_orienting", "polynomials.q1_expansion", "polynomials.transition",
    "polynomials.tutte_diagonal",
}


def _identifiers(path: Path, strings: bool) -> set[str]:
    """The names and attributes a module's code uses and, with strings, the
    words of its string literals (the bench tracer names spans by string)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
    return found


def test_every_public_name_is_reached_or_a_paper_identity():
    """A public name whose identifier no src/ code (the CLI included) and no
    bench code uses is reached only by tests; it belongs in tests/ unless it
    is a paper identity."""
    bench = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    assert bench
    used = set().union(*(_identifiers(p, False) for p in Path(mmlab.__file__).parent.glob("*.py")),
                       *(_identifiers(p, True) for p in bench))
    unreached = set()
    for info in pkgutil.iter_modules(mmlab.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"mmlab.{info.name}")
        for qual, _ in _public_callables(mod):
            name = qual.split(".")[-1] if not qual.endswith(".__init__") else qual.split(".")[0]
            if name not in used:
                unreached.add(f"{info.name}.{qual}")
    assert unreached == PAPER_IDENTITIES
