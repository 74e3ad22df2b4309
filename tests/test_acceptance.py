"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact; equalities are bit-exact, there are no tolerances.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import time
from itertools import combinations

import pytest

from conftest import (all_graphs, binary_sheltering_exists, make_rng,
                      random_graph, random_inv_symmetric, random_standard_form,
                      random_symmetric)
from mmlab import catalog
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import (Graph, eulerian_subsets, from_graph,
                             neighborhood_parity, ort_via_eulerian,
                             pair_multimatroid, z_quaternary)
from mmlab.matroids import Matroid
from mmlab.multimatroids import (Carrier, Multimatroid, dual_pair,
                                 is_multimatroid, is_tight, isomorphic,
                                 same_rank_oracle, tight_quick, transversal_slot)
from mmlab.orienting import (evaluation_suite, orienting_from_seed,
                             orienting_transversals)
from mmlab.polynomials import (Polynomial, bracket, global_interlace,
                               interlace, q1, q1_avoiding, shifted_power_sum)


def report(number: int, passed: bool, elapsed: float, budget: float, text: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {verdict} ({elapsed:.1f}s / budget {budget:.0f}s): {text}")
    assert passed, f"criterion {number}: {text}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def graph_corpus_5v():
    """Exhaustive loopless graphs up to 4 vertices plus 200 random
    5-vertex ones."""
    corpus = []
    for n in range(5):
        corpus.extend(all_graphs(n))
    rng = make_rng(20260809)
    seen = set()
    while sum(1 for g in corpus if g.n == 5) < 200:
        g = random_graph(rng, 5, p=rng.choice((0.25, 0.5, 0.75)))
        if g not in seen:
            seen.add(g)
            corpus.append(g)
    return corpus


def compose_shift(p: Polynomial, shift: int) -> Polynomial:
    """Substitute (y + shift) for y, expanded to the standard basis."""
    return shifted_power_sum({i: c for i, c in enumerate(p.coeffs)}, shift)


def test_criterion_1_fixture_sanity():
    t0 = time.time()
    ok = True
    for name in ("s1", "s2", "s3", "s4", "s5"):
        z = catalog.fixture(name)
        ok &= z.carrier.is_uniform(2) and is_multimatroid(z)[0]
    for name in ("s1", "s2", "s3"):
        ok &= not is_tight(catalog.fixture(name))[0]
    ok &= isomorphic(catalog.fixture("s5"), catalog.fixture("z-u24")) is not None
    h = catalog.fixture("h33")
    ok &= h.carrier.is_uniform(3) and is_multimatroid(h)[0] and is_tight(h)[0]
    ok &= not catalog.classify_binary_tight3(h).binary
    ok &= orienting_transversals(h) == []
    s1, s3 = catalog.fixture("s1"), catalog.fixture("s3")
    for t in h.carrier.transversals():
        d = h.delete(t)
        ok &= (isomorphic(d, s1) is not None) or (isomorphic(d, s3) is not None)
    report(1, ok, time.time() - t0, 5.0,
           "fixtures validate; tightness pattern; S5 ~ pair of the 4-point "
           "rank-2 uniform matroid; the order-3 quaternary fixture is tight, "
           "non-binary, has no orienting transversal, and its deletions all "
           "land on S1 or S3")


@pytest.fixture(scope="module")
def corpus():
    return graph_corpus_5v()


def test_criterion_2_orienting_equivalences(corpus):
    t0 = time.time()
    rng = make_rng(17)
    checked_et = 0
    for g in corpus:
        build = from_graph(g, validate=False)
        z = build.multimatroid
        brute = orienting_transversals(z)
        eulerian = ort_via_eulerian(g)
        fast = orienting_from_seed(z, build.block_transversal(3))
        assert brute == eulerian == fast, g
        ort_sets = [frozenset(t) for t in brute]
        ts = list(z.carrier.transversals())
        for _ in range(20):
            t = ts[rng.randrange(len(ts))]
            tset = frozenset(t)
            count = sum(1 for y in ort_sets if y.isdisjoint(tset))
            assert count == 2 ** z.nullity(t), (g, t)
            checked_et += 1
    report(2, True, time.time() - t0, 600.0,
           f"brute-force, Eulerian-side and coset orienting sets agree on "
           f"{len(corpus)} graphs; disjoint-orienting counts hit "
           f"2^nullity at {checked_et} sampled transversals")


def test_criterion_3_evaluation_suite(corpus):
    t0 = time.time()
    rng = make_rng(23)
    identities = 0
    for g in corpus:
        z = from_graph(g, validate=False).multimatroid
        ts = list(z.carrier.transversals())
        t = ts[rng.randrange(len(ts))]
        rep = evaluation_suite(z, t)
        assert rep.passed, (g, t, [i.name for i in rep.identities if not i.passed])
        for ident in rep.identities:
            if ident.odd_factor is not None:
                assert ident.odd_factor % 2 == 1
        identities += len(rep.identities)
    report(3, True, time.time() - t0, 600.0,
           f"all evaluation identities exact on {len(corpus)} graphs "
           f"({identities} identities; odd cofactor odd every time)")


def _induced(g: Graph, verts) -> Graph:
    verts = sorted(verts)
    idx = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), [(idx[u], idx[v]) for (u, v) in g.edges
                              if u in idx and v in idx])


def test_criterion_4_polynomial_bridges():
    t0 = time.time()
    graphs = []
    for n in range(6):
        graphs.extend(all_graphs(n, loops=True))
    for g in graphs:
        build = from_graph(g, validate=False)
        z = build.multimatroid
        base = q1(z)
        glob = global_interlace(g)
        assert glob == compose_shift(base, -2), g
        inter = interlace(g)
        avoided = q1_avoiding(z, transversal_slot(z, 2))
        assert inter == compose_shift(avoided, -1), g
        total = Polynomial.zero()
        for size in range(g.n + 1):
            for sub in combinations(range(g.n), size):
                total = total + compose_shift(bracket(_induced(g, sub)), -2)
        assert total == glob, g
        q3, qm1 = inter(3), inter(-1)
        assert qm1 != 0 and q3 % abs(qm1) == 0 and (q3 // abs(qm1)) % 2 == 1, g
    simple = [g for g in graphs if g.is_simple()]
    for g in simple:
        glob = global_interlace(g)
        eul = eulerian_subsets(g)
        assert glob(4) == len(eul) * 2 ** g.n, g
        pn_total = 0
        masks = {x: sum(1 << v for v in x) for x in eul}
        parities = {}
        for x in eul:
            odd, even = neighborhood_parity(g, x)
            parities[x] = (sum(1 << v for v in odd), sum(1 << v for v in even))
        for x1 in eul:
            for x2 in eul:
                inside = (masks[x1] & masks[x2])
                odd_both = parities[x1][0] & parities[x2][0]
                even_both = parities[x1][1] & parities[x2][1]
                pn_total += 2 ** bin(inside | odd_both | even_both).count("1")
        assert glob(6) == pn_total, g
        signed = 0
        full = frozenset(range(g.n))
        for x in eul:
            _odd, even = neighborhood_parity(g, x)
            n_val = g.adjacency_nullity(full - x, toggle=even)
            signed += (-2) ** n_val
        assert glob(-2) == (-1) ** g.n * signed, g
    report(4, True, time.time() - t0, 600.0,
           f"pair-polynomial and bracket bridges hold as polynomial "
           f"identities on {len(graphs)} graphs (loops allowed); the three "
           f"Eulerian-side evaluations match on {len(simple)} simple graphs")


def test_criterion_5_tutte_bridge():
    t0 = time.time()
    rng = make_rng(31)
    for _ in range(100):
        m = random_standard_form(rng, GF2, rng.randint(1, 6))
        z = dual_pair(m)
        p = q1(z)
        for x in (-1, 0, 2, 3):
            assert m.tutte(x, x) == p(x - 1), m
        build = z_quaternary(m)
        d = build.multimatroid.nullity(build.block_transversal(3))
        assert m.tutte(-1, -1) == (-1) ** m.size * (-2) ** d, m
        t33 = m.tutte(3, 3)
        assert t33 % 2 ** d == 0 and (t33 // 2 ** d) % 2 == 1, m
    report(5, True, time.time() - t0, 300.0,
           "diagonal Tutte values equal the pair polynomial at shifted "
           "arguments on 100 random binary matroids; the signed and odd-"
           "cofactor forms hold with the computed bicycle dimension")


def _random_tight_two_matroids(count: int, rng):
    """Tight sheltered 2-matroids of order <= 4, from random shelterings
    (filtered) topped up with zero-diagonal pair builds and minors."""
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        ell = rng.randint(1, 4)
        field = rng.choice((GF2, GF4))
        r = rng.randint(0, 2 * ell)
        vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
        entries = [[rng.choice(vals) for _ in range(2 * ell)] for _ in range(r)]
        mat = GFMatrix.from_entries(field, entries, cols=2 * ell)
        labels = [(c, s) for c in range(ell) for s in range(2)]
        z = Multimatroid(Carrier.uniform(ell, 2),
                         matroid=Matroid(labels, matrix=mat))
        if tight_quick(z):
            out.append(z)
    while len(out) < count:
        ell = rng.randint(1, 4)
        a = random_symmetric(rng, rng.choice((GF2, GF4)), ell, zero_diag=True)
        out.append(pair_multimatroid(a))
    return out


def test_criterion_6_excluded_minor_agreement():
    t0 = time.time()
    rng = make_rng(41)
    zu24 = dual_pair(catalog.u24_quaternary())
    pairs = [zu24] + [zu24.minor([(c, s)]) for c in range(2) for s in range(2)]
    for _ in range(12):
        pairs.append(dual_pair(random_standard_form(rng, GF2, rng.randint(1, 4))))
    two_matroids = pairs + _random_tight_two_matroids(50, rng)
    s4, s5 = catalog.fixture("s4"), catalog.fixture("s5")
    for z in two_matroids:
        assert is_tight(z)[0]
        votes = {
            "binary": binary_sheltering_exists(z),
            "strongly_binary": catalog.is_strongly_binary(z) is not None,
        }
        circuits = z.circuits()
        votes["even_pairs"] = all(
            len(z.carrier.classes_with_pair(c1 | c2)) % 2 == 0
            for c1 in circuits for c2 in circuits)
        votes["no_three_pairs"] = all(
            len(z.carrier.classes_with_pair(c1 | c2)) != 3
            for c1 in circuits for c2 in circuits)
        votes["no_excluded_minor"] = (
            catalog.has_minor(z, s4) is None and catalog.has_minor(z, s5) is None)
        assert len(set(votes.values())) == 1, (votes, z)

    # unanimity of the three classification tests on tight 3-matroids
    triples = []
    while len(triples) < 50:
        ell = rng.randint(1, 4)
        if rng.random() < 0.5:
            a = random_symmetric(rng, GF2, ell)
            from mmlab.isotropic import isotropic_multimatroid
            triples.append(isotropic_multimatroid(a, validate=False).multimatroid)
        else:
            a = random_inv_symmetric(rng, ell)
            from mmlab.isotropic import isotropic_multimatroid
            triples.append(isotropic_multimatroid(a, validate=False).multimatroid)
    binary_count = 0
    for z in triples:
        rep = catalog.classify_binary_tight3(z)  # raises on disagreement
        binary_count += rep.binary
    report(6, True, time.time() - t0, 900.0,
           f"five binarity statements agree on {len(two_matroids)} tight "
           f"2-matroids; three classification tests unanimous on "
           f"{len(triples)} tight 3-matroids ({binary_count} binary)")


def test_criterion_7_tight_extension_and_quaternary_builds():
    t0 = time.time()
    rng = make_rng(53)
    assert catalog.tight_extension(catalog.fixture("s2")) is None
    assert catalog.tight_extension(catalog.fixture("s4")) is None
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_symmetric(rng, GF2, n)
        z = pair_multimatroid(a)
        cert = catalog.is_strongly_binary(z)
        assert cert is not None
        ext = catalog.tight_extension(z)
        assert ext is not None
        ident = GFMatrix.identity(GF2, n)
        big = ident.hstack(cert.matrix).hstack(cert.matrix.add(ident))
        labels = ([(v, cert.basis[v][1]) for v in range(n)]
                  + [(v, 1 - cert.basis[v][1]) for v in range(n)]
                  + [(v, 2) for v in range(n)])
        expected = Multimatroid(Carrier.uniform(n, 3),
                                matroid=Matroid(labels, matrix=big))
        assert same_rank_oracle(ext, expected)
    z_quaternary(catalog.u24_quaternary())  # verification is internal
    for _ in range(20):
        m = random_standard_form(rng, GF4, rng.randint(1, 4))
        z_quaternary(m)
    report(7, True, time.time() - t0, 900.0,
           "no tight extension for S2/S4; 30 strongly binary instances "
           "extend exactly to their three-block builds; the quaternary "
           "triple construction verifies on the uniform matroid and 20 "
           "random standard forms")


def test_criterion_8_structural_parity():
    t0 = time.time()
    graphs = []
    for n in range(4):
        graphs.extend(all_graphs(n, loops=True))
    # plus two order-4 builds swept exhaustively as well
    rng = make_rng(61)
    graphs.append(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    graphs.append(random_graph(rng, 4, loops=True))
    pairs_checked = 0
    exchanges = 0
    for g in graphs:
        z = from_graph(g, validate=False).multimatroid
        elems = sorted(z.carrier.elements())
        pos = {e: i for i, e in enumerate(elems)}
        base_masks = [sum(1 << pos[e] for e in b) for b in z.bases()]
        class_masks = [sum(1 << pos[e] for e in z.carrier.skew_class(c))
                       for c in range(z.order)]
        nu = len(elems)
        for xmask in range(1 << nu):
            b1 = sum(1 for bm in base_masks if bm & ~xmask == 0)
            for ybits in range(1 << z.order):
                ymask = 0
                for c in range(z.order):
                    if (ybits >> c) & 1:
                        ymask |= class_masks[c]
                flip = xmask ^ ymask
                b2 = sum(1 for bm in base_masks if bm & ~flip == 0)
                assert (b1 - b2) % 2 == 0, (g, xmask, ybits)
                pairs_checked += 1
        # the public counting operation agrees on a sample
        if z.order:
            u = set(elems)
            ally = set()
            for c in range(z.order):
                ally |= set(z.carrier.skew_class(c))
            catalog.basis_parity(z, u, ally)
        # basis exchange, exhaustively
        bases = [frozenset(b) for b in z.bases()]
        for t in bases:
            for t2 in bases:
                diff = t ^ t2
                pair_classes = z.carrier.classes_with_pair(diff)
                for cls in pair_classes:
                    p = {e for e in diff if e[0] == cls}
                    assert any(
                        t2 ^ (p | {e for e in diff if e[0] == cls2}) in bases
                        for cls2 in pair_classes), (g, t, t2, cls)
                    exchanges += 1
    report(8, True, time.time() - t0, 600.0,
           f"basis-count parity holds for every vertex-set/class-union pair "
           f"({pairs_checked} pairs over {len(graphs)} graph builds); basis "
           f"exchange verified at {exchanges} basis/skew-pair combinations")
