import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mat_vec, naive_rank, permutation_determinant, scalar_mul
from mmlab.errors import MalformedInput
from mmlab.fields import (GF2, GF4, GFMatrix, conjugate, contract_columns, format_gfmat,
                          null_space, parse_gfmat, rank, rank_of_vectors, rref, scalar_inverse)

gf4 = st.integers(min_value=0, max_value=3)


def test_gf4_multiplication_table():
    a, b = 2, 3
    assert scalar_mul(a, a) == b
    assert scalar_mul(a, b) == 1
    assert scalar_mul(b, b) == a
    assert a ^ 1 == b  # addition is XOR of the codes
    assert a ^ b == 1


def test_conjugation_swaps_generators():
    assert conjugate(0) == 0
    assert conjugate(1) == 1
    assert conjugate(2) == 3
    assert conjugate(3) == 2


@given(gf4, gf4, gf4)
@settings(max_examples=80, deadline=None)
def test_gf4_field_axioms(x, y, z):
    assert x ^ x == 0
    assert scalar_mul(x, scalar_mul(y, z)) == scalar_mul(scalar_mul(x, y), z)
    assert scalar_mul(x, y ^ z) == scalar_mul(x, y) ^ scalar_mul(x, z)
    if x:
        assert scalar_mul(x, scalar_inverse(x)) == 1


@given(gf4, gf4)
@settings(max_examples=60, deadline=None)
def test_conjugation_is_an_automorphism(x, y):
    assert conjugate(conjugate(x)) == x
    assert conjugate(x ^ y) == conjugate(x) ^ conjugate(y)
    assert conjugate(scalar_mul(x, y)) == scalar_mul(conjugate(x), conjugate(y))


def test_rank_identity_and_zero():
    assert rank(GFMatrix.identity(GF2, 3)) == 3
    assert rank(GFMatrix.zero(GF2, 2, 5)) == 0
    assert rank(GFMatrix.zero(GF4, 0, 4)) == 0


H33_ENTRIES = [[0, 1, 2], [1, 0, 1], [3, 1, 0]]


def test_rank_of_gf4_triple_matrix():
    m = GFMatrix.from_entries(GF4, H33_ENTRIES)
    # independent oracles: naive elimination and permutation determinant
    assert naive_rank(H33_ENTRIES, GF4) == 3
    assert permutation_determinant(H33_ENTRIES) == 1  # b + a
    assert rank(m) == 3


def test_rank_matches_naive_oracle_randomly(rng):
    for _ in range(120):
        field = rng.choice((GF2, GF4))
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 6)
        vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
        entries = [[rng.choice(vals) for _ in range(cols)] for _ in range(rows)]
        m = GFMatrix.from_entries(field, entries, cols=cols)
        assert rank(m) == naive_rank(entries, field)


@st.composite
def small_matrices(draw):
    """GF(2) or GF(4) matrices from 0x0 to 6x9 whose rows are drawn fresh,
    zero, or repeated from an earlier row."""
    field = draw(st.sampled_from((GF2, GF4)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    entries = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if kind == "zero":
            entries.append([0] * cols)
        elif kind == "repeat" and entries:
            entries.append(list(draw(st.sampled_from(entries))))
        else:
            entries.append(draw(st.lists(st.integers(0, field - 1),
                                         min_size=cols, max_size=cols)))
    return GFMatrix.from_entries(field, entries, cols=cols)


@given(small_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_is_the_reduced_row_echelon_form(m):
    red, pivots = rref(m)
    assert (red.field, red.rows, red.cols) == (m.field, m.rows, m.cols)
    assert list(pivots) == sorted(set(pivots))  # strictly ascending
    for i, p in enumerate(pivots):
        row = red.row_entries(i)
        assert row[p] == 1 and not any(row[:p])  # its leading entry, at its pivot
        assert [red.entry(k, p) for k in range(red.rows)] == [int(k == i) for k in range(red.rows)]
    assert not any(any(red.row_entries(i)) for i in range(len(pivots), red.rows))
    r = rank_of_vectors(m.field, zip(m.row_lo, m.row_hi))
    assert len(pivots) == r
    assert rank_of_vectors(m.field, zip(red.row_lo, red.row_hi)) == r
    assert rank_of_vectors(m.field, zip(m.row_lo + red.row_lo, m.row_hi + red.row_hi)) == r
    assert rref(red) == (red, pivots)


def contraction_by_brute_force(field: int, contract, v, rows: int) -> tuple[int, int]:
    """The oracle for one packed kept column v: span the contracted columns
    by brute force, take the vector of v + span that is zero at every top
    position of a span vector, drop those rows, and scale it to 1 at its top
    row."""
    def unpack(c):
        return [((c[0] >> i) & 1) | (((c[1] >> i) & 1) << 1) for i in range(rows)]

    span = {(0,) * rows}
    for c in map(unpack, contract):
        span |= {tuple(si ^ scalar_mul(x, ci) for si, ci in zip(s, c))
                 for s in span for x in ((1,) if field == GF2 else (1, 2, 3))}
    tops = {max(i for i, e in enumerate(s) if e) for s in span if any(s)}
    w = next(w for w in (tuple(a ^ b for a, b in zip(unpack(v), s)) for s in span)
             if not any(w[i] for i in tops))
    left = [e for i, e in enumerate(w) if i not in tops]
    inv = scalar_inverse(next(e for e in reversed(left) if e)) if any(left) else 0
    scaled = [scalar_mul(inv, e) for e in left]
    return (sum((e & 1) << i for i, e in enumerate(scaled)),
            sum((e >> 1) << i for i, e in enumerate(scaled)))


@st.composite
def contractions(draw):
    """A small matrix and up to four columns to contract, each ending at a
    random row, so that kept entries also lie above the dropped pivot rows."""
    m = draw(small_matrices())
    plane = st.integers(0, (1 << m.rows) - 1)
    contract = []
    for _ in range(draw(st.integers(0, 4))):
        mask = (1 << draw(st.integers(0, m.rows))) - 1
        contract.append((draw(plane) & mask, draw(plane) & mask if m.field == GF4 else 0))
    return m, contract


# a GF(4) entry above pivot row 1 and below the kept column's top row
@example((GFMatrix.from_entries(GF4, [[0], [0], [2], [1]]), [(0b10, 0)]))
@given(contractions())
@settings(max_examples=300, deadline=None)
def test_contract_columns_matches_brute_force(case):
    m, contract = case
    cols = list(m.columns_packed())
    r, out = contract_columns(m.field, contract, cols)
    assert r == rank_of_vectors(m.field, contract)
    assert out == [contraction_by_brute_force(m.field, contract, v, m.rows) for v in cols]


def test_null_space_identity_empty():
    assert null_space(GFMatrix.identity(GF4, 4)) == []


def test_null_space_single_relation():
    m = GFMatrix.from_entries(GF2, [[1, 1]])
    assert null_space(m) == [(1, 1)]


def _brute_kernel_supports(m: GFMatrix) -> set:
    """All kernel vectors found by exhausting every coordinate assignment."""
    from itertools import product
    vals = (0, 1) if m.field == GF2 else (0, 1, 2, 3)
    out = set()
    for vec in product(vals, repeat=m.cols):
        if all(v == 0 for v in mat_vec(m, vec)):
            out.add(vec)
    return out


def test_null_space_of_pair_block_matrix_brute_force():
    # identity next to the adjacency matrix of the two-vertex path
    m = GFMatrix.from_entries(GF2, [[1, 0, 0, 1], [0, 1, 1, 0]])
    basis = null_space(m)
    brute = _brute_kernel_supports(m)
    # every basis vector is in the kernel and the spans agree in size
    span = {(0,) * m.cols}
    for vec in basis:
        assert tuple(mat_vec(m, vec)) == (0, 0)
        span |= {tuple(a ^ b for a, b in zip(s, vec)) for s in span}
    assert span == brute


def test_null_space_spans_kernel_randomly(rng):
    for _ in range(60):
        field = rng.choice((GF2, GF4))
        rows = rng.randint(0, 4)
        cols = rng.randint(1, 5)
        vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
        entries = [[rng.choice(vals) for _ in range(cols)] for _ in range(rows)]
        m = GFMatrix.from_entries(field, entries, cols=cols)
        basis = null_space(m)
        assert rank(m) + len(basis) == cols
        for vec in basis:
            assert all(v == 0 for v in mat_vec(m, vec))
        # canonical shape: the trailing support entry is the free column,
        # entries there are one, and the free columns ascend
        frees = []
        for vec in basis:
            support = [j for j, v in enumerate(vec) if v]
            assert vec[max(support)] == 1
            frees.append(max(support))
        assert frees == sorted(frees)


def test_conjugate_transpose_preserves_rank(rng):
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        entries = [[rng.choice((0, 1, 2, 3)) for _ in range(cols)]
                   for _ in range(rows)]
        m = GFMatrix.from_entries(GF4, entries, cols=cols)
        assert rank(m.transpose().conjugate()) == rank(m)


def test_row_operations_do_not_change_rank(rng):
    from mmlab.fields import _scale_row
    for _ in range(40):
        field = rng.choice((GF2, GF4))
        rows = rng.randint(2, 5)
        cols = rng.randint(1, 6)
        vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
        entries = [[rng.choice(vals) for _ in range(cols)] for _ in range(rows)]
        m = GFMatrix.from_entries(field, entries, cols=cols)
        lo, hi = list(m.row_lo), list(m.row_hi)
        for _ in range(6):
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i == j:
                continue
            c = rng.choice(vals[1:])
            slo, shi = _scale_row(c, lo[j], hi[j])
            lo[i] ^= slo
            hi[i] ^= shi
        assert rank(GFMatrix(field, rows, cols, lo, hi)) == rank(m)


def test_rank_plus_nullity(rng):
    # the kernel, counted by exhausting every vector, has field^(cols - rank) members
    for _ in range(30):
        field = rng.choice((GF2, GF4))
        rows, cols = rng.randint(0, 4), rng.randint(0, 5)
        vals = (0, 1) if field == GF2 else (0, 1, 2, 3)
        entries = [[rng.choice(vals) for _ in range(cols)] for _ in range(rows)]
        m = GFMatrix.from_entries(field, entries, cols=cols)
        assert len(_brute_kernel_supports(m)) == field ** (cols - rank(m))


def test_gfmat_round_trip():
    text = "field 4\n2 3\n0 1 a\nb 0 1\n"
    m = parse_gfmat(text)
    assert m.rows == 2 and m.cols == 3 and m.field == GF4
    assert m.entry(1, 0) == 3
    assert format_gfmat(m) == text


@pytest.mark.parametrize("bad", [
    "",
    "field 3\n1 1\n0\n",
    "field 2\n1 2\n0 a\n",
    "field 2\n2 2\n0 1\n",
    "field 2\nx y\n",
])
def test_gfmat_rejects_malformed(bad):
    with pytest.raises(MalformedInput):
        parse_gfmat(bad)


def test_rank_of_vectors_gf4_packed():
    # columns (1, a) and (a, b) = a * (1, a): dependent
    v1 = (0b01, 0b10)
    v2 = (0b10, 0b11)
    assert rank_of_vectors(GF4, [v1, v2]) == 1
