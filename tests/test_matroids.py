import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (is_binary_matroid_oracle, matroid_bases_set,
                      random_standard_form, whitney_rank_sum)
from mmlab.errors import (GroundMismatch, LabelCollision, NotBinary,
                          NotStandardForm, OverlappingSets, TooLarge,
                          UnknownElement)
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.matroids import Matroid

PATH3 = GFMatrix.from_entries(GF2, [
    [1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 0],
])


def u24():
    return Matroid.uniform(2, 4)


def test_rank_of_empty_and_uniform():
    m = u24()
    assert m.rank_of([]) == 0
    assert m.rank_of(m.ground) == 2


def test_rank_of_path_representation():
    from conftest import naive_rank
    m = Matroid.from_matrix(PATH3)
    assert m.rank_of(m.ground) == 3
    # adjacency block alone: rows 0 and 2 of the path adjacency coincide
    assert naive_rank([[0, 1, 0], [1, 0, 1], [0, 1, 0]], GF2) == 2
    assert m.rank_of([3, 4, 5]) == 2
    with pytest.raises(UnknownElement):
        m.rank_of([9])


def test_circuits_free_loop_uniform():
    assert Matroid([0, 1, 2], circuits=[]).circuits() == []
    loop = Matroid.from_matrix(GFMatrix.zero(GF2, 1, 1), ground=["e"])
    assert loop.circuits() == [frozenset(["e"])]
    assert u24().circuits() == [
        frozenset({0, 1, 2}), frozenset({0, 1, 3}),
        frozenset({0, 2, 3}), frozenset({1, 2, 3}),
    ]


def test_circuits_bound():
    big = Matroid(range(17), circuits=[])
    with pytest.raises(TooLarge):
        big.circuits()


def test_dual_of_free_is_all_loops():
    m = Matroid.from_matrix(GFMatrix.identity(GF2, 2))
    d = m.dual()
    assert d.rank_of(d.ground) == 0
    assert sorted(map(set, d.circuits())) == [{0}, {1}]


def test_uniform_self_dual():
    m = u24()
    assert matroid_bases_set(m.dual()) == matroid_bases_set(m)


def test_double_dual_on_random_standard_forms(rng):
    for _ in range(20):
        m = random_standard_form(rng, GF2, rng.randint(1, 6))
        bases = matroid_bases_set(m)
        dd = m.dual().dual()
        assert matroid_bases_set(dd) == bases
        complements = {frozenset(set(m.ground) - b) for b in bases}
        assert matroid_bases_set(m.dual()) == complements


def test_dual_requires_standard_form():
    m = Matroid.from_matrix(GFMatrix.from_entries(GF2, [[1, 1], [1, 1]]))
    with pytest.raises(NotStandardForm):
        m.dual()
    assert m.standard_form().dual() is not None


def test_minor_trivial_and_uniform():
    m = u24()
    same = m.minor((), ())
    assert matroid_bases_set(same) == matroid_bases_set(m)
    contracted = m.minor(contract={0})
    u13 = Matroid.uniform(1, 3)
    assert sorted(len(c) for c in contracted.circuits()) == \
        sorted(len(c) for c in u13.circuits())
    with pytest.raises(OverlappingSets):
        m.minor({0}, {0})


def test_minor_nullity_additivity(rng):
    for _ in range(50):
        field = rng.choice((GF2, GF4))
        m = random_standard_form(rng, field, rng.randint(2, 6))
        ground = list(m.ground)
        x = {e for e in ground if rng.random() < 0.4}
        rest = [e for e in ground if e not in x]
        y = {e for e in rest if rng.random() < 0.5}
        minor = m.minor(contract=x)
        # nullity, |Y| - r(Y), is additive: n_{M/X}(Y) = n(X | Y) - n(X)
        assert len(y) - minor.rank_of(y) == \
            len(x | y) - m.rank_of(x | y) - (len(x) - m.rank_of(x))


def test_direct_sum():
    m = u24()
    empty = Matroid([], circuits=[])
    s = m.direct_sum(empty)
    assert s.rank_of(s.ground) == 2
    loop = Matroid.from_matrix(GFMatrix.zero(GF2, 1, 1), ground=["l"])
    coloop = Matroid.from_matrix(GFMatrix.identity(GF2, 1), ground=["c"])
    two = loop.direct_sum(coloop)
    assert two.rank_of(two.ground) == 1
    assert two.circuits() == [frozenset(["l"])]
    with pytest.raises(LabelCollision):
        m.direct_sum(u24())


def test_direct_sum_rank_additive(rng):
    for _ in range(15):
        a = random_standard_form(rng, GF2, rng.randint(1, 4))
        b = random_standard_form(rng, GF2, rng.randint(1, 4))
        b2 = Matroid(tuple(f"b{e}" for e in b.ground), matrix=b.matrix)
        s = a.direct_sum(b2)
        assert s.rank_of(s.ground) == a.rank_of(a.ground) + b2.rank_of(b2.ground)


def test_orthogonal_to_dual(rng):
    mats = [u24(), Matroid.from_matrix(PATH3).standard_form()]
    for _ in range(10):
        mats.append(random_standard_form(rng, GF2, rng.randint(1, 5)))
    for m in mats:
        assert m.orthogonal(m.dual())


def test_orthogonal_counterexample():
    # one loop and one coloop against the two-element circuit
    m1 = Matroid(["e1", "e2"], circuits=[{"e1"}])
    m2 = Matroid(["e1", "e2"], circuits=[{"e1", "e2"}])
    assert not m1.orthogonal(m2)
    single = Matroid(["e1"], circuits=[])
    assert single.orthogonal(single)
    with pytest.raises(GroundMismatch):
        m1.orthogonal(single)


def test_cycle_space():
    free = Matroid.from_matrix(GFMatrix.identity(GF2, 3))
    assert free.cycle_space() == [frozenset()]
    tri = Matroid.from_matrix(GFMatrix.from_entries(GF2, [[1, 0, 1], [0, 1, 1]]))
    assert tri.cycle_space() == [frozenset(), frozenset({0, 1, 2})]
    with pytest.raises(NotBinary):
        u24().cycle_space()


def test_cycle_space_size(rng):
    for _ in range(20):
        m = random_standard_form(rng, GF2, rng.randint(1, 6))
        assert len(m.cycle_space()) == 2 ** (m.size - m.rank_of(m.ground))


def test_tutte_base_cases():
    assert Matroid([], circuits=[]).tutte(5, 7) == 1
    coloop = Matroid.from_matrix(GFMatrix.identity(GF2, 1))
    assert coloop.tutte(3, 3) == 3
    assert u24().tutte(-1, -1) == -2


def test_tutte_matches_rank_sum_oracle(rng):
    for _ in range(25):
        field = rng.choice((GF2, GF4))
        m = random_standard_form(rng, field, rng.randint(1, 6))
        for (x, y) in ((-1, -1), (0, 2), (2, 0), (3, 3), (2, 2)):
            assert m.tutte(x, y) == whitney_rank_sum(m, x, y)
    assert u24().tutte(1, 1) == whitney_rank_sum(u24(), 1, 1)


def test_binary_circuit_cocircuit_parity(rng):
    for _ in range(25):
        m = random_standard_form(rng, GF2, rng.randint(1, 7))
        cocircuits = m.dual().circuits()
        for c in m.circuits():
            for cc in cocircuits:
                assert len(c & cc) % 2 == 0


def test_binary_characterization_against_representability(rng):
    catalog = [u24(), Matroid.uniform(1, 3), Matroid.uniform(2, 3),
               Matroid.uniform(3, 5)]
    for _ in range(10):
        m = random_standard_form(rng, GF2, rng.randint(1, 6))
        catalog.append(Matroid(m.ground, circuits=m.circuits()))
    for m in catalog:
        if m.size > 6:
            continue
        cocircuits = m.dual().circuits()
        no_triple = all(len(c & cc) != 3
                        for c in m.circuits() for cc in cocircuits)
        assert no_triple == is_binary_matroid_oracle(m)


def test_circuit_axiom_validation():
    with pytest.raises(Exception):
        Matroid([0, 1], circuits=[{0}, {0, 1}])  # nested
    with pytest.raises(Exception):
        # elimination fails: {0,1} and {1,2} force a circuit inside {0,2}
        Matroid([0, 1, 2], circuits=[{0, 1}, {1, 2}])


@given(st.sampled_from((GF2, GF4)), st.integers(0, 2 ** 32 - 1), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_circuit_list_minor_and_dual_match_the_represented_route(field, seed, n):
    """Circuit lists take their minors' and dual's circuits by set algebra;
    the contract set holds a circuit half the time."""
    rng = random.Random(seed)
    m = random_standard_form(rng, field, n)
    by_circuits = Matroid(m.ground, circuits=m.circuits(), validate=False)
    assert by_circuits.dual().circuits() == m.dual().circuits()
    dep = m.circuits()
    con = set(rng.choice(dep)) if dep and rng.random() < 0.5 else set()
    con |= {e for e in m.ground if rng.random() < 0.3}
    dele = {e for e in m.ground if e not in con and rng.random() < 0.3}
    minor = by_circuits.minor(contract=con, delete=dele)
    assert minor.ground == m.minor(contract=con, delete=dele).ground
    assert minor.circuits() == m.minor(contract=con, delete=dele).circuits()
