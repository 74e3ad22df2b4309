import json
from importlib import resources

import pytest

from conftest import (KINDS, basis_transversals, binary_sheltering_exists, build,
                      is_binary_matroid_oracle, random_graph,
                      random_standard_form, random_symmetric)
from mmlab import catalog, fields, serialize
from mmlab.errors import (Degenerate, GroundMismatch, NotClassUnion,
                          NotTight, NotTriple, TooLarge)
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import from_graph, isotropic_multimatroid, pair_multimatroid
from mmlab.matroids import Matroid
from mmlab.multimatroids import (Carrier, Multimatroid, dual_pair, is_tight,
                                 isomorphic, same_rank_oracle, transversal_slot)
from mmlab.orienting import evaluation_suite
from mmlab.polynomials import q1_avoiding


def test_fixture_names_and_unknown():
    assert set(catalog.FIXTURE_NAMES) == {
        "s1", "s2", "s3", "s4", "s5", "h33", "z-u24", "z-u24-3"}
    with pytest.raises(Exception):
        catalog.fixture("nope")


def test_fixtures_match_golden_files():
    for name in catalog.FIXTURE_NAMES:
        z = catalog.fixture(name)
        got = serialize.mm_to_dict(z)
        raw = resources.files("mmlab").joinpath(f"data/{name}.mm.json").read_text()
        golden = json.loads(raw)
        assert got == golden, name
        # and the golden file reloads to the same structure
        assert same_rank_oracle(serialize.mm_from_dict(golden), z)


def test_s5_is_the_uniform_pair():
    assert isomorphic(catalog.fixture("s5"), catalog.fixture("z-u24")) is not None


def test_h33_deletions_land_on_small_fixtures():
    h = catalog.fixture("h33")
    s1, s3 = catalog.fixture("s1"), catalog.fixture("s3")
    circuits = set(h.circuits())
    for t in h.carrier.transversals():
        d = h.delete(t)
        if frozenset(t) in circuits:
            assert isomorphic(d, s3) is not None
        else:
            assert isomorphic(d, s1) is not None


def test_has_minor_self():
    h = catalog.fixture("h33")
    hit = catalog.has_minor(h, h)
    assert hit is not None and hit[0] == ()


def test_has_minor_triple_contains_h33():
    z3 = catalog.fixture("z-u24-3")
    h = catalog.fixture("h33")
    hit = catalog.has_minor(z3, h)
    assert hit is not None
    x, witness = hit
    assert len(x) == 1
    # the witness is a genuine embedding: circuits map onto circuits
    zx = z3.minor(x)
    assert isomorphic(h, zx) is not None


def test_has_minor_none_for_shape_mismatch():
    assert catalog.has_minor(catalog.fixture("s4"), catalog.fixture("h33")) is None


def test_no_s4_or_s5_minor_in_binary_pairs(rng):
    for _ in range(5):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        z = dual_pair(m)
        assert catalog.has_minor(z, catalog.fixture("s4")) is None
        assert catalog.has_minor(z, catalog.fixture("s5")) is None


def test_strongly_binary_reconstruction(rng):
    for _ in range(10):
        m = random_standard_form(rng, GF2, rng.randint(1, 5))
        z = dual_pair(m)
        cert = catalog.is_strongly_binary(z)
        assert cert is not None
        assert same_rank_oracle(cert.build_pair(), z)


def test_strongly_binary_rejects_excluded_fixtures():
    assert catalog.is_strongly_binary(catalog.fixture("s4")) is None
    assert catalog.is_strongly_binary(catalog.fixture("s5")) is None
    # the non-tight ones are excluded minors as well
    for name in ("s1", "s2", "s3"):
        assert catalog.is_strongly_binary(catalog.fixture(name)) is None


def test_strongly_binary_agrees_with_excluded_minors(rng):
    zs = [catalog.fixture(n) for n in ("s1", "s2", "s3", "s4", "s5")]
    for _ in range(8):
        m = random_standard_form(rng, rng.choice((GF2, GF4)), rng.randint(1, 4))
        zs.append(dual_pair(m))
    for z in zs:
        if z.order > 5:
            continue
        cert = catalog.is_strongly_binary(z)
        excluded = any(
            catalog.has_minor(z, catalog.fixture(nm)) is not None
            for nm in ("s1", "s2", "s3", "s4", "s5"))
        assert (cert is not None) == (not excluded)


def test_classify_graph_builds_are_binary(rng):
    for _ in range(5):
        g = random_graph(rng, rng.randint(1, 4), loops=True)
        rep = catalog.classify_binary_tight3(from_graph(g, validate=False).multimatroid)
        assert rep.binary
        assert rep.strong_certificate is not None


def test_classify_h33_and_triple():
    rep = catalog.classify_binary_tight3(catalog.fixture("h33"))
    assert not rep.binary
    assert rep.parity_witness is not None
    c1, c2, pairs = rep.parity_witness
    assert pairs == 3
    d = rep.to_dict()
    assert d["binary"] is False
    rep2 = catalog.classify_binary_tight3(catalog.fixture("z-u24-3"))
    assert not rep2.binary
    assert rep2.h33_witness is not None


def test_classify_rejects_non_tight():
    free3 = Multimatroid(Carrier.uniform(2, 3), circuits=[
        frozenset({(0, 0), (1, 0)})])
    with pytest.raises(NotTight):
        catalog.classify_binary_tight3(free3)
    with pytest.raises(NotTriple):
        catalog.classify_binary_tight3(catalog.fixture("s4"))


def test_five_statement_agreement_small(rng):
    zs = [dual_pair(catalog.u24_quaternary())]
    for _ in range(6):
        m = random_standard_form(rng, GF2, rng.randint(1, 4))
        zs.append(dual_pair(m))
    for _ in range(4):
        a = random_symmetric(rng, GF2, rng.randint(1, 4), zero_diag=True)
        zs.append(pair_multimatroid(a))
    h33 = catalog.fixture("h33")
    for z in zs:
        assert is_tight(z)[0]
        strong = catalog.is_strongly_binary(z) is not None
        binary = binary_sheltering_exists(z)
        circuits = z.circuits()
        even = all(
            len(z.carrier.classes_with_pair(c1 | c2)) % 2 == 0
            for c1 in circuits for c2 in circuits)
        no_three = all(
            len(z.carrier.classes_with_pair(c1 | c2)) != 3
            for c1 in circuits for c2 in circuits)
        no_minor = (catalog.has_minor(z, catalog.fixture("s4")) is None and
                    catalog.has_minor(z, catalog.fixture("s5")) is None)
        assert strong == binary == even == no_three == no_minor


def test_binary_sheltering_oracle_sanity(rng):
    assert binary_sheltering_exists(dual_pair(Matroid.uniform(1, 2)))
    assert not binary_sheltering_exists(catalog.fixture("s5"))


def test_tight_extension_fixtures():
    assert catalog.tight_extension(catalog.fixture("s2")) is None
    assert catalog.tight_extension(catalog.fixture("s4")) is None
    h = catalog.fixture("h33")
    for name in ("s1", "s3"):
        ext = catalog.tight_extension(catalog.fixture(name))
        assert ext is not None
        assert isomorphic(ext, h) is not None
    ext5 = catalog.tight_extension(catalog.fixture("s5"))
    assert ext5 is not None
    assert isomorphic(ext5, catalog.fixture("z-u24-3")) is not None


def test_tight_extension_of_order_zero():
    z = Multimatroid(Carrier(()), circuits=[])
    ext = catalog.tight_extension(z)
    assert ext is not None and ext.order == 0
    assert ext.circuits() == []


def test_tight_extension_strongly_binary_equals_block_build(rng):
    for _ in range(8):
        n = rng.randint(1, 4)
        a = random_symmetric(rng, GF2, n)
        z = pair_multimatroid(a)
        cert = catalog.is_strongly_binary(z)
        ext = catalog.tight_extension(z)
        assert cert is not None and ext is not None
        ident = GFMatrix.identity(GF2, n)
        big = ident.hstack(cert.matrix).hstack(cert.matrix.add(ident))
        labels = ([(v, cert.basis[v][1]) for v in range(n)]
                  + [(v, 1 - cert.basis[v][1]) for v in range(n)]
                  + [(v, 2) for v in range(n)])
        expected = Multimatroid(Carrier.uniform(n, 3),
                                matroid=Matroid(labels, matrix=big))
        assert same_rank_oracle(ext, expected)


def test_tight_extension_reads_the_ranks_of_z_from_one_table(rng, monkeypatch):
    # a packed 2-matroid's ranks come from one leaf_nullities walk, with no
    # rank_of_vectors elimination, and the answer is the circuit list's
    zs = [pair_multimatroid(random_symmetric(rng, GF2, n)) for n in range(1, 5)]
    zs += [dual_pair(random_standard_form(rng, GF4, n)) for n in range(1, 5)]
    listed = [catalog.tight_extension(Multimatroid(z.carrier, circuits=z.circuits())) for z in zs]
    calls, rank_of_vectors = [], fields.rank_of_vectors
    monkeypatch.setattr(fields, "rank_of_vectors", lambda *a: calls.append(a) or rank_of_vectors(*a))
    for z, want in zip(zs, listed):
        ext = catalog.tight_extension(z)
        assert calls == []
        assert (ext is None) == (want is None)
        assert ext is None or same_rank_oracle(ext, want)


def test_strong_binarity_and_extension_walk_the_rank_table_of_z_once(rng, table_walks):
    # a classify extension item: is_strongly_binary(z), then tight_extension(z).
    # z keeps its rank table from its first walk, so the two calls make two
    # leaf_nullities walks in all: one of z and one of the certificate's pair
    # build; the extension and its deletion are circuit lists
    for n in range(1, 5):
        z = pair_multimatroid(random_symmetric(rng, GF2, n))
        table_walks.clear()
        assert catalog.is_strongly_binary(z) is not None
        assert catalog.tight_extension(z) is not None
        assert table_walks.count("walk") == 2


def test_packed_builds_read_their_ranks_from_the_tables(rng, monkeypatch):
    # has_minor, is_strongly_binary and bases read z's nullity and rank
    # tables and make no rank_of_vectors elimination; the evaluation suite
    # makes one per subset of its transversal t and reads r(t) and the
    # orienting transversals' nullities from the nullity table
    calls, rank_of_vectors = [], fields.rank_of_vectors
    monkeypatch.setattr(fields, "rank_of_vectors", lambda *a: calls.append(a) or rank_of_vectors(*a))
    patterns = [catalog.fixture(name) for name in ("h33", "s4", "s5")]
    for n in range(1, 6):
        for kind in ("gf2", "gf4"):
            z = build(kind, rng, n)
            pair = z.delete(transversal_slot(z, 2))
            calls.clear()
            for pattern in patterns:
                catalog.has_minor(z, pattern)
            assert catalog.is_strongly_binary(pair) is not None or kind == "gf4"
            assert z.bases() and pair.bases()
            assert calls == []
    for n in range(3, 6):
        z = from_graph(random_graph(rng, n)).multimatroid
        calls.clear()
        assert evaluation_suite(z, transversal_slot(z, 0)).passed
        assert len(calls) == 2 ** n


def _brute_tight_extensions(z):
    """Every tight 3-matroid restricting to z, by exhausting transversal
    nullity assignments and validating each candidate from scratch."""
    from itertools import product as iproduct
    from mmlab.errors import MMLabError
    from mmlab.multimatroids import is_multimatroid
    ell = z.order
    carrier3 = Carrier.uniform(ell, 3)
    new_codes = [code for code in iproduct(range(3), repeat=ell)
                 if any(s == 2 for s in code)]
    old_null = {}
    found = []
    for values in iproduct(range(ell + 1), repeat=len(new_codes)):
        nu = dict(zip(new_codes, values))
        for code in iproduct(range(2), repeat=ell):
            if code not in old_null:
                elems = frozenset(enumerate(code))
                old_null[code] = len(elems) - z._rank(frozenset((c, s) for c, s in enumerate(code)))
            nu[code] = old_null[code]
        # derive all subtransversal nullities by one-class minima
        null = {}
        for code in sorted(iproduct(range(-1, 3), repeat=ell),
                           key=lambda cd: -sum(s >= 0 for s in cd)):
            if all(s >= 0 for s in code):
                null[code] = nu[code]
                continue
            c = next(i for i, s in enumerate(code) if s < 0)
            null[code] = min(null[code[:c] + (s,) + code[c + 1:]]
                             for s in range(3))
        # old agreement, including non-transversal old subtransversals
        ok = True
        for code in null:
            if all(-1 <= s <= 1 for s in code):
                elems = frozenset((c, s) for c, s in enumerate(code) if s >= 0)
                if null[code] != len(elems) - z._rank(elems):
                    ok = False
                    break
        if not ok:
            continue
        circuits = []
        for code in sorted(null, key=lambda cd: sum(s >= 0 for s in cd)):
            s = frozenset((c, sl) for c, sl in enumerate(code) if sl >= 0)
            if not s or null[code] == 0 or any(c <= s for c in circuits):
                continue
            if all(null[code[:i] + (-1,) + code[i + 1:]] == 0
                   for i, sl in enumerate(code) if sl >= 0):
                circuits.append(s)
        try:
            cand = Multimatroid(carrier3, circuits=circuits)
        except MMLabError:
            continue
        # the candidate's own rank oracle must reproduce the assignment
        if any(cand.nullity([(c, s) for c, s in enumerate(code)]) != v
               for code, v in nu.items()):
            continue
        if not is_multimatroid(cand)[0] or not is_tight(cand)[0]:
            continue
        if not same_rank_oracle(cand.delete([(c, 2) for c in range(ell)]), z):
            continue
        found.append(cand)
    return found


def test_tight_extension_matches_brute_force_order_2():
    # all circuit-list 2-matroids on a (2,2)-carrier, versus exhaustive
    # enumeration of candidate extensions; every order-2 instance turns out
    # extendable, so the refusal branch is pinned by the order-3/4 fixtures
    from itertools import combinations as icomb
    from mmlab.errors import MMLabError
    from mmlab.multimatroids import is_multimatroid
    carrier = Carrier.uniform(2, 2)
    pool = [frozenset(s) for s in carrier.subtransversals() if s]
    checked = 0
    for r in range(len(pool) + 1):
        for fam in icomb(pool, r):
            try:
                z = Multimatroid(carrier, circuits=list(fam))
            except MMLabError:
                continue
            if not is_multimatroid(z)[0]:
                continue
            brute = _brute_tight_extensions(z)
            assert len(brute) <= 1  # uniqueness
            ext = catalog.tight_extension(z)
            if brute:
                assert ext is not None and same_rank_oracle(ext, brute[0])
            else:
                assert ext is None
            checked += 1
    assert checked >= 10


def test_tight_extension_rejects_degenerate():
    z = Multimatroid(Carrier((1, 2)), circuits=[])
    with pytest.raises(Degenerate):
        catalog.tight_extension(z)


def test_cycle_sum_closure_fails_without_binarity():
    # the order-3 quaternary fixture has circuit pairs whose triple sum is a
    # two-element set; since its every cycle is empty or a transversal, the
    # cycle space is not closed under the sum
    from mmlab.multimatroids import cycle_space, sum_subtransversals
    h = catalog.fixture("h33")
    cycles = set(cycle_space(h))
    assert all(len(c) in (0, 3) for c in cycles)
    circuits = h.circuits()
    broken = False
    for c1 in circuits:
        for c2 in circuits:
            s = frozenset(sum_subtransversals(h.carrier, c1, c2))
            if len(s) == 2:
                assert s not in cycles
                broken = True
    assert broken


def test_basis_parity_and_even_basis_count(rng):
    for _ in range(6):
        g = random_graph(rng, 3, loops=True)
        z = from_graph(g, validate=False).multimatroid
        u = set(z.carrier.elements())
        all_classes = set()
        for c in range(z.order):
            all_classes |= set(z.carrier.skew_class(c))
        b1, b2 = catalog.basis_parity(z, u, all_classes)
        if z.order:
            assert b1 % 2 == 0  # nonempty tight: even basis count
        # deleted evaluation at zero is odd exactly on bases
        bases = set(basis_transversals(z))
        for t in z.carrier.transversals():
            odd = q1_avoiding(z, t)(0) % 2 == 1
            assert odd == (t in bases)


def test_basis_parity_validation():
    z = catalog.fixture("z-u24-3")
    u = set(z.carrier.elements())
    with pytest.raises(NotClassUnion):
        catalog.basis_parity(z, u, {(0, 0)})
    two = catalog.fixture("s4")
    with pytest.raises(GroundMismatch):  # even class size
        catalog.basis_parity(two, set(two.carrier.elements()), set())
    from mmlab.multimatroids import free_sum
    u12 = Matroid([0, 1], circuits=[{0, 1}])
    loose = free_sum([Matroid([0, 1], circuits=[]), u12, u12])
    with pytest.raises(NotTight):
        catalog.basis_parity(loose, set(loose.carrier.elements()), set())


def test_bases_within_class_extension_counts(rng):
    # a transversal widened by one class holds 0 or k-1 bases when tight
    for _ in range(5):
        g = random_graph(rng, 3)
        z = from_graph(g, validate=False).multimatroid
        for t in z.carrier.transversals():
            for cls in range(z.order):
                cnt = catalog.bases_within_class_extension(z, t, cls)
                assert cnt in (0, 2)
    # without tightness the full class count is possible
    free2 = Multimatroid(
        Carrier.uniform(1, 2),
        matroid=Matroid([(0, 0), (0, 1)], matrix=GFMatrix.identity(GF2, 2)))
    assert catalog.bases_within_class_extension(free2, ((0, 0),), 0) == 2


def test_classify_runs_one_tightness_scan(tightness_scans):
    # an unvalidated build is scanned once; the cached h33, validated when
    # it was built, answers from its stored verdict
    h33 = catalog.fixture("h33")
    z = isotropic_multimatroid(catalog.fixture_h33().source, validate=False).multimatroid
    tightness_scans.clear()
    assert catalog.classify_binary_tight3(z).binary is False
    assert tightness_scans == ["is_tight"]
    tightness_scans.clear()
    assert catalog.classify_binary_tight3(h33).binary is False
    assert tightness_scans == []


def slice_matches(z, pattern):
    """The subtransversals X that has_minor should build the minor by, in
    its scan order: those whose built minor has the pattern's carrier and
    nullity histogram, up to the first whose minor is isomorphic to it."""
    out = []
    for x in sorted(s for s in z.carrier.subtransversals()
                    if len(s) == z.order - pattern.order):
        zx = z.minor(x)
        if zx.carrier == pattern.carrier and \
                zx.nullity_histogram() == pattern.nullity_histogram():
            out.append(frozenset(x))
            if isomorphic(pattern, zx) is not None:
                break
    return out


def test_has_minor_builds_only_the_minors_whose_slice_matches(rng, cross_check_calls,
                                                              table_walks):
    _, minors = cross_check_calls
    patterns = [catalog.fixture(name) for name in ("h33", "s4", "s5")]
    zs = [catalog.fixture(name) for name in catalog.FIXTURE_NAMES]
    zs += [build(kind, rng, n) for kind in KINDS for n in range(6)]
    zs += [Multimatroid(z.carrier, circuits=z.circuits(), validate=False)
           for z in (build("gf4", rng, n) for n in range(6))]
    hits = 0
    for z in zs:
        for pattern in patterns:
            want = slice_matches(z, pattern)
            minors.clear()
            table_walks.clear()
            hit = catalog.has_minor(z, pattern)
            assert minors == want
            if table_walks and z.kind == "sheltered":
                assert table_walks == ["walk"]
            hits += hit is not None
            table_walks.clear()
            assert catalog.has_minor(z, pattern) == hit
            assert table_walks == []  # the table is kept on z, and the screen asks no rank
    assert hits > 0


def test_has_minor_makes_only_the_subtransversals_of_its_size(rng, monkeypatch, cross_check_calls):
    # the X of size order(z) - order(pattern) come from the classes they
    # touch, not from a filter over every subtransversal
    _, minors = cross_check_calls
    patterns = [catalog.fixture(name) for name in ("h33", "s4", "s5")]
    zs = [catalog.fixture(name) for name in catalog.FIXTURE_NAMES]
    zs += [build(kind, rng, n) for kind in KINDS for n in range(6)]
    calls = []
    subtransversals = Carrier.subtransversals

    def counted(self):
        calls.append(self)
        return subtransversals(self)

    monkeypatch.setattr(Carrier, "subtransversals", counted)
    for z in zs:
        for pattern in patterns:
            catalog.has_minor(z, pattern)
    assert minors and calls == []


def test_has_minor_checks_the_isomorphism_bounds_at_each_carrier_match():
    # the slices differ, but isomorphic would have been asked, and refused
    free = Multimatroid(Carrier((4,)), circuits=[])
    looped = Multimatroid(Carrier((4,)), circuits=[frozenset({(0, 0)})])
    with pytest.raises(TooLarge):
        catalog.has_minor(free, looped)
    assert catalog.has_minor(free, Multimatroid(Carrier((3,)), circuits=[])) is None
    six = Multimatroid(Carrier.uniform(6, 2), circuits=[])
    with pytest.raises(TooLarge):
        catalog.has_minor(six, Multimatroid(Carrier.uniform(6, 2),
                                            circuits=[frozenset({(0, 0)})]))
    with pytest.raises(TooLarge):  # the scan's own bound, before any slice
        catalog.has_minor(Multimatroid(Carrier.uniform(7, 2), circuits=[]), catalog.fixture("s4"))


def test_has_minor_needs_the_pattern_carrier_class_by_class():
    # (2, 3) and (3, 2) are isomorphic as free multimatroids, and their
    # histograms agree, but a minor has the pattern's carrier only in order
    z = Multimatroid(Carrier((2, 3)), circuits=[])
    assert catalog.has_minor(z, Multimatroid(Carrier((3, 2)), circuits=[])) is None
    assert catalog.has_minor(z, Multimatroid(Carrier((2, 3)), circuits=[])) == \
        ((), {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (1, 1), (1, 2): (1, 2)})


def test_has_minor_finds_a_pattern_with_no_independent_transversal():
    # a loop's histogram starts at nullity 1, and so does X's slice, so the
    # two are compared from their first nonzero entries
    looped = Multimatroid(Carrier((1,)), circuits=[frozenset({(0, 0)})])
    z = Multimatroid(Carrier((2, 1)), circuits=[frozenset({(1, 0)})])
    assert catalog.has_minor(z, looped) == (((0, 0),), {(0, 0): (1, 0)})
