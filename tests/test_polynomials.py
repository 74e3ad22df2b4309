from fractions import Fraction
from itertools import combinations

import pytest

from conftest import basis_transversals, random_graph, random_standard_form
from mmlab import catalog
from mmlab.errors import Degenerate, IncompleteWeights, MalformedInput, TooLarge
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import Graph, from_graph
from mmlab.matroids import Matroid
from mmlab.multimatroids import Carrier, Multimatroid, dual_pair, transversal_slot
from mmlab.polynomials import (Polynomial, bracket, global_interlace,
                               interlace, q1, q1_avoiding, q1_expansion,
                               shifted_power_sum, transition, tutte_diagonal)


def test_polynomial_arithmetic():
    p = Polynomial((1, 2))
    q = Polynomial((0, 0, 3))
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert Polynomial((1, 0, 0)).coeffs == (1,)  # trailing zeros stripped
    assert p(10) == 21
    assert Polynomial.monomial(3, 5).coeffs == (0, 0, 0, 5)
    assert (p - p).coeffs == ()


def test_shifted_power_sum():
    # 2*(y-1)^2 + 3 = 2y^2 - 4y + 5
    p = shifted_power_sum({2: 2, 0: 3}, -1)
    assert p.coeffs == (5, -4, 2)


def test_q1_single_coloop_pair():
    m = Matroid.from_matrix(GFMatrix.identity(GF2, 1))
    z = dual_pair(m)
    p = q1(z)
    assert p.coeffs == (1, 1)  # y + 1
    for x in (-1, 0, 2, 3, 7):
        assert p(x - 1) == m.tutte(x, x)


def test_q1_counts():
    for name in ("s1", "s2", "s3", "s4", "s5", "h33"):
        z = catalog.fixture(name)
        p = q1(z)
        k = z.carrier.class_sizes[0]
        assert sum(p.coeffs) == k ** z.order
        assert all(c >= 0 for c in p.coeffs)
        assert p.degree <= z.order
        assert p(0) == len(basis_transversals(z))


def test_q1_empty():
    z = Multimatroid(Carrier(()), circuits=[])
    assert q1(z).coeffs == (1,)


def test_residue_at_one_minus_k(rng):
    # deleting any transversal from a tight structure pins the value at 1-k
    for _ in range(6):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        z = dual_pair(m)
        assert q1(z)(-1) == 0 or z.order == 0
        for t in z.carrier.transversals():
            val = q1_avoiding(z, t)(-1)
            assert val == (-1) ** z.order * (-1) ** z.nullity(t)
    for _ in range(4):
        g = random_graph(rng, 3)
        z = from_graph(g, validate=False).multimatroid
        assert q1(z)(-2) == 0 or z.order == 0
        for t in z.carrier.transversals():
            val = q1_avoiding(z, t)(-2)
            assert val == (-1) ** z.order * (-2) ** z.nullity(t)


def test_transition_all_ones_is_q1(rng):
    g = random_graph(rng, 3)
    z = from_graph(g, validate=False).multimatroid
    w = {e: 1 for e in z.carrier.elements()}
    assert transition(z, w) == q1(z)


def test_transition_zero_on_transversal(rng):
    for _ in range(6):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        z = dual_pair(m)
        t = next(iter(z.carrier.transversals()))
        w = {e: (0 if e in set(t) else 1) for e in z.carrier.elements()}
        assert transition(z, w) == q1_avoiding(z, t)


def test_transition_empty_and_missing_weight():
    z = Multimatroid(Carrier(()), circuits=[])
    assert transition(z, {}).coeffs == (1,)
    z2 = catalog.fixture("s2")
    with pytest.raises(IncompleteWeights):
        transition(z2, {(0, 0): 1})
    # weights are exact: a float or a string is named, not computed with
    weights = dict.fromkeys(z2.carrier.elements(), Fraction(1, 2))
    for bad in (0.5, "1/2"):
        with pytest.raises(MalformedInput, match=r"^weight for \(1, 0\) "):
            transition(z2, {**weights, (1, 0): bad})


def test_q1_expansion_agrees_with_direct(rng):
    for _ in range(8):
        if rng.random() < 0.5:
            z = from_graph(random_graph(rng, 3), validate=False).multimatroid
        else:
            z = dual_pair(random_standard_form(rng, GF2, rng.randint(1, 3)))
        if z.order == 0:
            continue
        ts = list(z.carrier.transversals())
        t = ts[rng.randrange(len(ts))]
        assert q1_expansion(z, t, "minus") == q1_avoiding(z, t)
        assert q1_expansion(z, t, "plus") == q1(z)


def test_q1_expansion_on_order_zero():
    z = Multimatroid(Carrier(()), circuits=[])
    assert q1_expansion(z, (), "minus").coeffs == (1,)
    assert q1_expansion(z, (), "plus").coeffs == (1,)


def test_q1_expansion_rejects_degenerate():
    z = Multimatroid(Carrier((1, 2)), circuits=[])
    with pytest.raises(Degenerate):
        q1_expansion(z, [(0, 0), (1, 0)], "minus")


def test_weight_split_over_classes(rng):
    # additive weight splits expand into per-class selections
    for _ in range(4):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        z = dual_pair(m)
        ell = z.order
        elems = sorted(z.carrier.elements())
        w1 = {e: Fraction(rng.randint(-4, 4)) for e in elems}
        w2 = {e: Fraction(rng.randint(-4, 4)) for e in elems}
        w = {e: w1[e] + w2[e] for e in elems}
        for y in (rng.randint(-5, 5) for _ in range(5)):
            lhs = transition(z, w)(y)
            rhs = 0
            for bits in range(1 << ell):
                wf = {e: (w1[e] if (bits >> e[0]) & 1 else w2[e]) for e in elems}
                rhs += transition(z, wf)(y)
            assert lhs == rhs


def test_weight_split_along_transversal(rng):
    for _ in range(4):
        m = random_standard_form(rng, GF2, rng.randint(1, 3))
        z = dual_pair(m)
        elems = sorted(z.carrier.elements())
        t = next(iter(z.carrier.transversals()))
        tset = set(t)
        w = {e: Fraction(rng.randint(-3, 3)) for e in elems}
        wp = {e: (Fraction(rng.randint(-3, 3)) if e in tset else Fraction(0))
              for e in elems}
        rest = {e: w[e] - wp[e] for e in elems}
        for y in (rng.randint(-4, 4) for _ in range(5)):
            lhs = transition(z, w)(y)
            rhs = 0
            for size in range(len(t) + 1):
                for sub in combinations(t, size):
                    f = frozenset(sub)
                    coeff = Fraction(1)
                    for u in sub:
                        coeff *= wp[u]
                    if not coeff:
                        continue
                    zf = z.minor(f)
                    back = z.minor_class_map(f)
                    wrest = {(c, s): rest[(back[c], s)]
                             for (c, s) in zf.carrier.elements()}
                    rhs += coeff * (Fraction(y) ** z.nullity(f)) * \
                        transition(zf, wrest)(y)
            assert lhs == rhs


def test_interlace_small_graphs():
    v1 = Graph(1, [])
    assert interlace(v1).coeffs == (0, 1)          # q = y
    assert global_interlace(v1).coeffs == (0, 1)   # Q = y
    k2 = Graph(2, [(0, 1)])
    assert interlace(k2).coeffs == (0, 2)          # q = 2y
    assert interlace(k2)(3) == 3 * abs(interlace(k2)(-1))


def test_interlace_odd_multiplier(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 4), loops=True)
        q3 = interlace(g)(3)
        qm1 = abs(interlace(g)(-1))
        assert qm1 != 0 and q3 % qm1 == 0 and (q3 // qm1) % 2 == 1


def test_global_interlace_matches_pair_polynomial(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 4), loops=True)
        z = from_graph(g, validate=False).multimatroid
        base = q1(z)
        glob = global_interlace(g)
        inter = interlace(g)
        avoid = q1_avoiding(z, transversal_slot(z, 2))
        for y in (-3, -1, 0, 2, 5, 9):
            assert glob(y) == base(y - 2)
            assert inter(y) == avoid(y - 1)


def test_bracket_theorem(rng):
    def induced(g, verts):
        verts = sorted(verts)
        idx = {v: i for i, v in enumerate(verts)}
        return Graph(len(verts), [(idx[u], idx[v]) for (u, v) in g.edges
                                  if u in idx and v in idx])

    for _ in range(6):
        g = random_graph(rng, rng.randint(0, 4), loops=True)
        glob = global_interlace(g)
        total = Polynomial.zero()
        for size in range(g.n + 1):
            for sub in combinations(range(g.n), size):
                b = bracket(induced(g, sub))
                total = total + shifted_compose(b)
        assert total == glob


def shifted_compose(p: Polynomial) -> Polynomial:
    """Substitute y - 2 into a polynomial, expanding to the standard basis."""
    return shifted_power_sum({i: c for i, c in enumerate(p.coeffs)}, -2)


def test_tutte_diagonal():
    m = Matroid.from_matrix(GFMatrix.identity(GF2, 1))
    assert tutte_diagonal(m, 2) == 2
    u24 = catalog.u24_quaternary()
    assert tutte_diagonal(u24, -1) == -2


def test_tutte_diagonal_matches_tutte(rng):
    for _ in range(10):
        m = random_standard_form(rng, rng.choice((GF2, GF4)), rng.randint(1, 5))
        for x in (-1, 0, 2, 3):
            assert tutte_diagonal(m, x) == m.tutte(x, x)


def test_graph_polynomial_bounds():
    with pytest.raises(TooLarge):
        interlace(Graph(13, []))
    with pytest.raises(TooLarge):
        global_interlace(Graph(10, []))
    with pytest.raises(TooLarge):
        bracket(Graph(13, []))
