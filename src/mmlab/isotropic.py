"""Graphs, Eulerian induced subgraphs, and isotropic multimatroid builds.

A symmetric GF(2) matrix or an inv-symmetric GF(4) matrix A yields the
block matrix [I | A | A+I] whose matroid shelters a tight 3-matroid; graphs
enter through their adjacency matrices.  Column (v, block i) lands in skew
class v; the per-class block-to-slot assignment is recorded so that derived
builds (diagonal normalization, matroid pairings) stay label-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import fields
from .bounds import GRAPH_VERTICES, VERTEX_EULERIAN, VERTEX_ORT_EULERIAN, check_size
from .errors import (ConstructionMismatch, HasLoops, InternalInconsistency,
                     MalformedInput, NotInvSymmetric, NotSymmetric, decimal)
from .fields import GF2, GF4, GFMatrix
from .matroids import Matroid
from .multimatroids import (Carrier, Element, Multimatroid, dual_pair, is_tight,
                            same_rank_oracle)


class Graph:
    """Simple-edge graph on vertices 0..n-1; loops allowed."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"edge ({u}, {v}) outside vertex range")
            norm.add((min(u, v), max(u, v)))
        self.edges = tuple(sorted(norm))
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = tuple(adj)

    @property
    def adj_masks(self) -> tuple[int, ...]:
        return self._adj

    def is_simple(self) -> bool:
        return all(u != v for u, v in self.edges)

    def adjacency_matrix(self) -> GFMatrix:
        return GFMatrix(GF2, self.n, self.n, self._adj)

    def nullity_mask(self, xmask: int, toggle: int = 0) -> int:
        """Nullity of the adjacency matrix of the induced subgraph on the
        vertex mask, after toggling loops on the toggle mask."""
        verts = [v for v in range(self.n) if (xmask >> v) & 1]
        rows = []
        for v in verts:
            row = self._adj[v]
            if (toggle >> v) & 1:
                row ^= 1 << v
            rows.append(row & xmask)
        return len(verts) - fields.rank_of_vectors(GF2, ((r, 0) for r in rows))

    def adjacency_nullity(self, x: Iterable[int], toggle: Iterable[int] = ()) -> int:
        xmask = 0
        for v in x:
            xmask |= 1 << v
        tmask = 0
        for v in toggle:
            tmask |= 1 << v
        return self.nullity_mask(xmask, tmask)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges)})"


def parse_graph(text: str) -> Graph:
    """Parse the .graph format: first line a vertex count, then one
    "u v" edge per line (loop when u == v)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedInput("graph: empty input")
    try:
        n = decimal(lines[0])
    except ValueError:
        raise MalformedInput(f"graph: bad vertex count {lines[0]!r}")
    if n < 0:
        raise MalformedInput("graph: negative vertex count")
    check_size(n, GRAPH_VERTICES, "graph")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise MalformedInput(f"graph: bad edge line {ln!r}")
        try:
            u, v = decimal(toks[0]), decimal(toks[1])
        except ValueError:
            raise MalformedInput(f"graph: bad edge line {ln!r}")
        edges.append((u, v))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def eulerian_subsets(g: Graph) -> list[frozenset]:
    """All vertex sets inducing a subgraph with every degree even."""
    if not g.is_simple():
        raise HasLoops("Eulerian subsets need a loopless graph")
    check_size(g.n, VERTEX_EULERIAN, "eulerian_subsets")
    adj = g.adj_masks
    out = []
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if (adj[v] & mask).bit_count() & 1:
                ok = False
                break
        if ok:
            out.append(frozenset(v for v in range(g.n) if (mask >> v) & 1))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def neighborhood_parity(g: Graph, x: Iterable[int]) -> tuple[frozenset, frozenset]:
    """Split the vertices outside x by the parity of their adjacency count
    into x: (odd side, even side)."""
    xmask = 0
    for v in x:
        if not 0 <= v < g.n:
            raise MalformedInput(f"vertex {v} out of range")
        xmask |= 1 << v
    odd, even = set(), set()
    for v in range(g.n):
        if (xmask >> v) & 1:
            continue
        if (g.adj_masks[v] & xmask).bit_count() & 1:
            odd.add(v)
        else:
            even.add(v)
    return frozenset(odd), frozenset(even)


# -- isotropic builds -----------------------------------------------------------


@dataclass(frozen=True)
class IsotropicBuild:
    """A matrix and the tight 3-matroid sheltered by its three blocks, with
    the per-class block-to-slot assignment.  The build keeps the block
    columns once, packed in its multimatroid; `matroid` is rebuilt from
    them on each access."""

    source: GFMatrix
    matrix: GFMatrix  # normalized form actually used in the blocks
    multimatroid: Multimatroid
    block_slots: tuple[tuple[int, int, int], ...]
    swapped_classes: frozenset
    graph: Graph | None = None

    @property
    def matroid(self) -> Matroid:
        """The sheltering matroid of [I | A | A+I], labelled block by block."""
        return self.multimatroid.sheltering_matroid

    @property
    def order(self) -> int:
        return self.multimatroid.order

    def phi(self, block: int, verts: Iterable[int]) -> frozenset:
        """Elements of the given block (1, 2 or 3) over a vertex set."""
        return frozenset((v, self.block_slots[v][block - 1]) for v in verts)

    def block_transversal(self, block: int) -> tuple[Element, ...]:
        return tuple(sorted(self.phi(block, range(self.order))))

    def vertex_split(self, t: Iterable[Element]) -> tuple[frozenset, frozenset, frozenset]:
        """Partition the vertices of a transversal by block membership."""
        parts = [set(), set(), set()]
        for (v, s) in t:
            parts[self.block_slots[v].index(s)].add(v)
        return tuple(frozenset(p) for p in parts)


def _is_symmetric(a: GFMatrix) -> bool:
    return a == a.transpose()


def _is_inv_symmetric(a: GFMatrix) -> bool:
    return a == a.transpose().conjugate()


def _build_from_blocks(a: GFMatrix, block_slots, source: GFMatrix,
                       swapped: frozenset, graph: Graph | None,
                       validate: bool) -> IsotropicBuild:
    # column v of the three blocks: e_v, A's column v, and their sum
    n, cols = a.rows, a.columns_packed()
    blocks = ([(1 << v, 0) for v in range(n)], cols,
              [(lo ^ 1 << v, hi) for v, (lo, hi) in enumerate(cols)])
    z = Multimatroid._sheltered(Carrier.uniform(n, 3), a.field, n, {
        (v, block_slots[v][b]): col
        for b, block in enumerate(blocks) for v, col in enumerate(block)})
    build = IsotropicBuild(source=source, matrix=a, multimatroid=z, block_slots=tuple(block_slots),
                           swapped_classes=swapped, graph=graph)
    if validate and not is_tight(z)[0]:  # tight implies the multimatroid exclusion
        raise InternalInconsistency("isotropic build failed validation")
    return build


def isotropic_multimatroid(a: GFMatrix, validate: bool = True) -> IsotropicBuild:
    """Tight 3-matroid of a symmetric GF(2) or inv-symmetric GF(4) matrix.

    GF(4) sources are normalized to zero diagonal by swapping the second and
    third block slots of the affected classes; the multimatroid is unchanged.
    """
    if a.rows != a.cols:
        raise MalformedInput("matrix must be square")
    if a.field == GF2:
        if not _is_symmetric(a):
            raise NotSymmetric("GF(2) source must be symmetric")
        block_slots = [(0, 1, 2)] * a.rows
        return _build_from_blocks(a, block_slots, a, frozenset(), None, validate)
    if not _is_inv_symmetric(a):
        raise NotInvSymmetric("GF(4) source must equal its conjugate transpose")
    swapped = frozenset(v for v in range(a.rows) if a.entry(v, v) == 1)
    if swapped:
        entries = a.to_entries()
        for v in swapped:
            entries[v][v] = 0
        norm = GFMatrix.from_entries(GF4, entries, cols=a.cols)
    else:
        norm = a
    block_slots = [(0, 2, 1) if v in swapped else (0, 1, 2) for v in range(a.rows)]
    return _build_from_blocks(norm, block_slots, a, swapped, None, validate)


def from_graph(g: Graph, validate: bool = True) -> IsotropicBuild:
    """Isotropic build over the adjacency matrix of a graph."""
    a = g.adjacency_matrix()
    block_slots = [(0, 1, 2)] * g.n
    build = _build_from_blocks(a, block_slots, a, frozenset(), g, validate)
    return build


def pair_multimatroid(a: GFMatrix, basis_transversal=None) -> Multimatroid:
    """2-matroid sheltered by [I | A] for a symmetric square matrix.

    basis_transversal names, per class, the element carrying the identity
    column; defaults to slot 0 everywhere.
    """
    if a.rows != a.cols:
        raise MalformedInput("matrix must be square")
    if not _is_symmetric(a):
        raise NotSymmetric(f"GF({a.field}) source must be symmetric")
    n = a.rows
    if basis_transversal is None:
        basis_transversal = tuple((v, 0) for v in range(n))
    tset = {e[0]: e[1] for e in basis_transversal}
    ident = GFMatrix.identity(a.field, n)
    big = ident.hstack(a)
    labels = [(v, tset[v]) for v in range(n)] + [(v, 1 - tset[v]) for v in range(n)]
    matroid = Matroid(labels, matrix=big)
    return Multimatroid(Carrier.uniform(n, 2), matroid=matroid)


def z_quaternary(m: Matroid) -> IsotropicBuild:
    """The unique tight 3-matroid extension of a quaternary matroid's paired
    2-matroid, built from the block matrix over the standard form and then
    verified transversal by transversal."""
    if not m.is_represented:
        raise MalformedInput("z_quaternary needs a represented matroid")
    mat = m.matrix
    if mat.field == GF2:
        mat = GFMatrix(GF4, mat.rows, mat.cols, mat.row_lo, mat.row_hi)
        m = Matroid(m.ground, matrix=mat)
    std = m.standard_form()
    red, pivots = fields.rref(std.matrix)
    n = std.size
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    free_index = {j: i for i, j in enumerate(free)}
    entries = [[0] * n for _ in range(n)]
    for i, p in enumerate(pivots):
        for f in free:
            e = red.entry(i, f)
            entries[p][f] = e
            entries[f][p] = fields.conjugate(e)
    a = GFMatrix.from_entries(GF4, entries, cols=n)
    block_slots = [(1, 0, 2) if v in pivot_set else (0, 1, 2) for v in range(n)]
    build = _build_from_blocks(a, block_slots, a, frozenset(), None, validate=True)
    z = build.multimatroid
    expected = dual_pair(std)
    got = z.delete(build.block_transversal(3))
    if not same_rank_oracle(got, expected):
        raise ConstructionMismatch("triple build does not restrict to the "
                                   "paired 2-matroid")
    return build


def bicycle_dimension(m: Matroid) -> int:
    """Nullity of the third-block restriction of the triple build."""
    build = z_quaternary(m)
    return build.multimatroid.nullity(build.block_transversal(3))


def ort_via_eulerian(g: Graph) -> list[tuple[Element, ...]]:
    """Orienting transversals of the graph build, assembled from Eulerian
    induced subgraphs and neighborhood parities."""
    if not g.is_simple():
        raise HasLoops("needs a loopless graph")
    check_size(g.n, VERTEX_ORT_EULERIAN, "ort_via_eulerian")
    out = []
    for x in eulerian_subsets(g):
        odd, even = neighborhood_parity(g, x)
        t = [(v, 0) for v in x] + [(v, 1) for v in odd] + [(v, 2) for v in even]
        out.append(tuple(sorted(t)))
    return sorted(out)


def graph_nullity_bridge(g: Graph, t: Iterable[Element],
                         build: IsotropicBuild | None = None) -> int:
    """Nullity of a transversal computed on the graph side (loop-toggled
    induced adjacency), asserted equal to the multimatroid nullity."""
    if build is None:
        build = from_graph(g, validate=False)
    tt = tuple(sorted(t))
    x1, x2, x3 = build.vertex_split(tt)
    graph_side = g.adjacency_nullity(x2 | x3, x3)
    mm_side = build.multimatroid.nullity(tt)
    if graph_side != mm_side:
        raise InternalInconsistency(
            f"graph nullity {graph_side} != multimatroid nullity {mm_side}")
    return graph_side
