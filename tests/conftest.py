"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import os
import random
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import mmlab
from mmlab import catalog, fields, multimatroids, orienting
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import Graph, isotropic_multimatroid
from mmlab.matroids import Matroid
from mmlab.multimatroids import Multimatroid, dual_pair

# Loaded by tests/mutants.py (`--hypothesis-profile=no-shrink`): a mutant is
# killed by its first failing example, so shrinking that example is wasted.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture(autouse=True, scope="session")
def mmlab_importable_in_subprocesses():
    """`python -m mmlab` subprocesses import the package this suite imports,
    also when pytest found it through the `pythonpath` setting alone."""
    src = str(Path(mmlab.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def scalar_mul(x: int, y: int) -> int:
    """The GF(4) product of two scalar codes (see mmlab.fields)."""
    x0, x1 = x & 1, x >> 1
    y0, y1 = y & 1, y >> 1
    lo = (x0 & y0) ^ (x1 & y1)
    hi = (x0 & y1) ^ (x1 & y0) ^ (x1 & y1)
    return lo | (hi << 1)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_graph(rng: random.Random, n: int, loops: bool = False,
                 p: float = 0.5) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def all_graphs(n: int, loops: bool = False):
    """Every labeled graph on n vertices."""
    slots = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    for bits in range(1 << len(slots)):
        yield Graph(n, [slots[i] for i in range(len(slots)) if (bits >> i) & 1])


def random_standard_form(rng: random.Random, field: int, n: int,
                         r: int | None = None) -> Matroid:
    """Random matroid represented as an identity block next to a random
    block."""
    if r is None:
        r = rng.randint(0, n)
    vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
    entries = [[1 if j == i else 0 for j in range(r)]
               + [rng.choice(vals) for _ in range(n - r)] for i in range(r)]
    if r == 0:
        mat = GFMatrix.from_entries(field, [], cols=n)
    else:
        mat = GFMatrix.from_entries(field, entries, cols=n)
    return Matroid.from_matrix(mat)


def random_symmetric(rng: random.Random, field: int, n: int,
                     zero_diag: bool = False) -> GFMatrix:
    vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.choice(vals)
            if i == j:
                v = 0 if zero_diag else rng.choice((0, 1))
            entries[i][j] = entries[j][i] = v
    return GFMatrix.from_entries(field, entries, cols=n)


def random_inv_symmetric(rng: random.Random, n: int) -> GFMatrix:
    """Random GF(4) matrix equal to its conjugate transpose."""
    from mmlab.fields import conjugate
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = rng.choice((0, 1))
        for j in range(i + 1, n):
            v = rng.choice((0, 1, 2, 3))
            entries[i][j] = v
            entries[j][i] = conjugate(v)
    return GFMatrix.from_entries(GF4, entries, cols=n)


KINDS = ("gf2", "gf4", "gf4_pair", "circuits", "matroid_circuits", "fixture")


def build(kind: str, rng: random.Random, n: int) -> Multimatroid:
    """GF(2) and GF(4) packed builds, and the two realizations without
    packed columns (circuit lists, matroids given by circuits)."""
    if kind == "gf4":
        return isotropic_multimatroid(random_inv_symmetric(rng, n),
                                      validate=False).multimatroid
    if kind == "gf4_pair":
        return dual_pair(random_standard_form(rng, GF4, n))
    if kind == "fixture":
        return catalog.fixture(rng.choice(catalog.FIXTURE_NAMES))
    z = isotropic_multimatroid(random_symmetric(rng, GF2, n),
                               validate=False).multimatroid
    if kind == "circuits":
        return Multimatroid(z.carrier, circuits=z.circuits(), validate=False)
    if kind == "matroid_circuits":
        m = z.sheltering_matroid
        return Multimatroid(z.carrier, matroid=Matroid(m.ground, circuits=m.circuits(),
                                                       validate=False))
    return z


# -- independent oracles ---------------------------------------------------------


def naive_rank(entries, field: int) -> int:
    """Textbook row elimination on a list-of-lists matrix; no bit packing."""
    from mmlab.fields import scalar_inverse
    m = [row[:] for row in entries]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = scalar_inverse(m[rank][col])
        m[rank] = [scalar_mul(inv, x) for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [x ^ scalar_mul(c, y)  # addition is XOR of the codes
                        for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def span_masks(field: int, levels, targets) -> list[int]:
    """An oracle route for the closure tables: for every way to pick one
    vector per level, in product order, the bit mask of the targets in the
    span of the picked vectors (bit j is set when targets[j] is).  Vectors
    are packed as in fields.leaf_nullities; with no levels there is one
    leaf, whose span is zero.

    One depth-first walk carries the GF(2) echelon basis of the prefix, as
    leaf_nullities's does, and reduces the targets at each leaf."""
    (*levels, targets), _, amul = fields._doubled(field, (*levels, targets))
    masks: list[int] = []
    depth = len(levels)

    def reduced(v, basis):
        for b in basis:  # the reduction of fields._echelon
            r = v ^ b
            if r < v:
                v = r
        return v

    def walk(i, basis):
        if i == depth:
            masks.append(sum(1 << j for j, v in enumerate(targets) if not reduced(v, basis)))
            return
        for v in levels[i]:
            v = reduced(v, basis)
            if not v:
                walk(i + 1, basis)
            else:
                walk(i + 1, fields._with_a_multiple(basis, v, amul) if amul else basis + (v,))

    walk(0, ())
    return masks


def permutation_determinant(entries) -> int:
    """Determinant by permutation expansion; signs vanish in
    characteristic 2."""
    n = len(entries)
    det = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term = scalar_mul(term, entries[i][perm[i]])
            if term == 0:
                break
        det ^= term
    return det


def whitney_rank_sum(m: Matroid, x, y):
    """Corank-nullity subset expansion; an independent route to the
    deletion-contraction value."""
    total = 0
    ground = list(m.ground)
    r = m.rank_of(ground)
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            rs = m.rank_of(sub)
            total += (x - 1) ** (r - rs) * (y - 1) ** (size - rs)
    return total


def matroid_bases_set(m: Matroid) -> set[frozenset]:
    """Oracle route for bases: the subsets of the ground's rank r that have
    rank r."""
    r = m.rank_of(m.ground)
    return {frozenset(sub) for sub in combinations(m.ground, r) if m.rank_of(sub) == r}


def same_matroid(m1: Matroid, m2: Matroid) -> bool:
    """Oracle route for matroid equality: the same rank on every subset."""
    return set(m1.ground) == set(m2.ground) and all(
        m1.rank_of(sub) == m2.rank_of(sub)
        for size in range(m1.size + 1) for sub in combinations(m1.ground, size))


def mat_vec(m: GFMatrix, vec) -> list[int]:
    """Oracle route for null spaces: m times vec, one scalar entry at a time."""
    out = []
    for i in range(m.rows):
        acc = 0
        for j, x in enumerate(vec):
            acc ^= scalar_mul(m.entry(i, j), x)
        out.append(acc)
    return out


def closure_in_class(z: Multimatroid, s: frozenset, c: int) -> list:
    """Oracle route for the closure tables: the elements x of class c with
    r(s + x) = r(s), by two rank-oracle calls."""
    return [x for x in z.carrier.skew_class(c) if z._rank(s | {x}) == z._rank(s)]


def deletion_map(z: Multimatroid, elems) -> dict:
    """Oracle route for deletion labels: each element that z.delete(elems)
    keeps, mapped to its label there, classes and slots renumbered in
    ground order."""
    gone = set(elems)
    keep = [e for e in z.carrier.elements() if e not in gone]
    classes = sorted({c for c, _ in keep})
    return {(c, s): (classes.index(c), [t for d, t in keep if d == c].index(s))
            for c, s in keep}


def basis_transversals(z: Multimatroid) -> list:
    """Oracle route for the bases of a nondegenerate z: nullity 0 transversals."""
    return [t for t in z.carrier.transversals() if z.nullity(t) == 0]


def is_binary_matroid_oracle(m: Matroid) -> bool:
    """GF(2) representability through the canonical fundamental-circuit
    assignment: fix a basis, force every element's vector, verify all
    ranks."""
    ground = list(m.ground)
    r = m.rank_of(ground)
    basis = []
    for e in ground:
        if m.rank_of(basis + [e]) > len(basis):
            basis.append(e)
    index = {e: i for i, e in enumerate(basis)}
    vecs = {}
    for e in ground:
        if e in index:
            vecs[e] = 1 << index[e]
            continue
        vec = 0
        for b in basis:
            # b lies in the fundamental circuit of e iff swapping keeps rank
            others = [x for x in basis if x != b] + [e]
            if m.rank_of(others) == r:
                vec |= 1 << index[b]
        vecs[e] = vec
    from mmlab.fields import rank_of_vectors
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            got = rank_of_vectors(GF2, ((vecs[e], 0) for e in sub))
            if got != m.rank_of(sub):
                return False
    return True


def binary_sheltering_exists(z) -> bool:
    """Search for a GF(2) matroid sheltering z: assign each element a vector
    that is either a combination of the previous pivots or the next fresh
    unit vector, pruning on subtransversal rank agreement."""
    from mmlab.fields import rank_of_vectors
    elems = z.carrier.elements()
    subt_cache = {}

    def prefix_subtransversals(k):
        if k not in subt_cache:
            pres = elems[:k]
            by_class = {}
            for e in pres:
                by_class.setdefault(e[0], []).append(e)
            opts = [[None] + v for v in by_class.values()]
            subt_cache[k] = [tuple(e for e in pick if e is not None)
                             for pick in product(*opts)]
        return subt_cache[k]

    vecs = {}

    def ok_prefix(k):
        newest = elems[k - 1]
        for s in prefix_subtransversals(k):
            if newest not in s:
                continue
            got = rank_of_vectors(GF2, ((vecs[e], 0) for e in s))
            if got != z._rank(frozenset(s)):
                return False
        return True

    def assign(k, dim):
        if k == len(elems):
            return True
        for choice in range(1 << (dim + 1)):
            vecs[elems[k]] = choice
            if ok_prefix(k + 1):
                ndim = max(dim, choice.bit_length())
                if assign(k + 1, ndim):
                    return True
        del vecs[elems[k]]
        return False

    return assign(0, 0)


@pytest.fixture
def rng():
    return make_rng(0xC0FFEE)


@pytest.fixture
def matroids_built(monkeypatch):
    """A list that gains one entry per Matroid constructed from now on."""
    built = []
    original = Matroid.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Matroid, "__init__", init)
    return built


@pytest.fixture
def cross_check_calls(monkeypatch):
    """Two lists that gain, from now on, one entry per table of order-one
    minor loops read by the validator cross-check (its missing class; a
    scan reads one per class) and one per Multimatroid.minor built (its
    subtransversal)."""
    loops_at, minors = [], []
    read_loops, minor = multimatroids._order_one_minor_loops, Multimatroid.minor

    def counted_loops(z, miss):
        loops_at.append(miss)
        return read_loops(z, miss)

    def counted_minor(self, x):
        minors.append(frozenset(x))
        return minor(self, x)

    monkeypatch.setattr(multimatroids, "_order_one_minor_loops", counted_loops)
    monkeypatch.setattr(Multimatroid, "minor", counted_minor)
    return loops_at, minors


@pytest.fixture
def closure_mask_calls(monkeypatch):
    """A list that gains, from now on, one entry per _closure_masks call:
    its missing class.  mmlab.orienting imports the function by name, so
    both names are counted."""
    calls = []
    masks = multimatroids._closure_masks

    def counted(z, miss):
        calls.append(miss)
        return masks(z, miss)

    monkeypatch.setattr(multimatroids, "_closure_masks", counted)
    monkeypatch.setattr(orienting, "_closure_masks", counted)
    return calls


@pytest.fixture
def tightness_scans(monkeypatch):
    """A list that gains, from now on, one op entry per near-transversal
    scan run; a kept scan read back adds nothing.  A scan reads the table
    of order-one minor loops of each class in turn, from class 0 on, so a
    run is counted at its class-0 read (an order-0 scan reads none), with
    the op of the near_transversal_scan call on the stack."""
    scans = []
    read_loops = multimatroids._order_one_minor_loops

    def counted(z, miss):
        if miss == 0:
            frame = sys._getframe(1)
            while frame.f_code.co_name != "near_transversal_scan":
                frame = frame.f_back
            scans.append(frame.f_locals["op"])
        return read_loops(z, miss)

    monkeypatch.setattr(multimatroids, "_order_one_minor_loops", counted)
    return scans


@pytest.fixture
def circuit_enumerations(monkeypatch):
    """A list that gains, from now on, one entry per circuit enumeration: a
    fields.circuit_picks walk, or a minimal_sets call in mmlab.multimatroids
    (circuit-list minors).  The entry is the multimatroid whose circuits()
    made it, or None for one made anywhere else."""
    made, reading = [], []
    circuits, minimal_sets = Multimatroid.circuits, multimatroids.minimal_sets
    walk = fields.circuit_picks

    def counted_circuits(self):
        reading.append(self)
        try:
            return circuits(self)
        finally:
            reading.pop()

    def counted_sets(sets):
        made.append(reading[-1] if reading else None)
        return minimal_sets(sets)

    def counted_walk(field, levels):
        made.append(reading[-1] if reading else None)
        return walk(field, levels)

    monkeypatch.setattr(Multimatroid, "circuits", counted_circuits)
    monkeypatch.setattr(multimatroids, "minimal_sets", counted_sets)
    monkeypatch.setattr(fields, "circuit_picks", counted_walk)
    return made


@pytest.fixture
def table_walks(monkeypatch):
    """A list that gains, from now on, one entry per fields.leaf_nullities
    walk and one per rank-oracle miss on a circuit list."""
    walks = []
    leaf_nullities, rank_circuits = fields.leaf_nullities, Multimatroid._rank_circuits

    def counted_walk(field, levels):
        walks.append("walk")
        return leaf_nullities(field, levels)

    def counted_rank(self, s):
        walks.append("rank")
        return rank_circuits(self, s)

    monkeypatch.setattr(fields, "leaf_nullities", counted_walk)
    monkeypatch.setattr(Multimatroid, "_rank_circuits", counted_rank)
    return walks
