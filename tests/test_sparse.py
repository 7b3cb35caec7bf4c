"""Compressed-sparse-row ZModMatrix against dense Python references.

Every operation that reads the stored entries is compared with the same
operation on plain lists of Python ints, at moduli small and large enough
to need object arrays, on empty shapes, and on boundary matrices of
complexes with no edges, self-loops, repeated edges and edges crossed
both ways.
"""

import tracemalloc
from math import gcd, prod

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quhom.complex2 import (
    boundary1,
    boundary2,
    chain_complex,
    faces_sum_to_zero,
    rp2,
    torus,
    torus_grid,
)
from quhom.pauli import PauliProduct, StabilizerSpec
from quhom.zmod import ZModMatrix, kernel_cardinality, smith_normal_form, span_cardinality

from _corpus import named_complex, two_complex_corpus

MODULI = (2, 3, 4, 6, 12, 3 * 2**62)


def dense_product(a, b, D):
    return [[sum(x * y for x, y in zip(row, col)) % D for col in zip(*b)] for row in a]


def dense_transpose(rows, ncols):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def snf_span_cardinality(rows, D):
    return prod(D // gcd(d, D) for d in smith_normal_form(rows).diag)


def assert_canonical(m: ZModMatrix):
    """Row pointers from 0 to nnz, increasing columns in each row, values in [1, D)."""
    assert m.indptr[0] == 0 and m.indptr[-1] == len(m.indices) == len(m.data)
    assert len(m.indptr) == m.nrows + 1 and (np.diff(m.indptr) >= 0).all()
    for a, b in zip(m.indptr[:-1], m.indptr[1:]):
        cols = m.indices[a:b].tolist()
        assert cols == sorted(set(cols)) and all(0 <= j < m.ncols for j in cols)
    assert all(0 < v < m.modulus for v in m.data.tolist())
    assert m.data.dtype == (np.int64 if m.modulus < 2**63 else object)


def check_against_dense(m: ZModMatrix, rows):
    """Every read of m equals the same read of the reduced dense rows."""
    D = m.modulus
    assert_canonical(m)
    assert m.entries == tuple(map(tuple, rows))
    assert m.array(object).tolist() == rows or (not rows and m.array(object).size == 0)
    if D < 2**31:
        assert m.array(np.int64).tolist() == rows or not rows
    assert m.is_zero() == (not any(map(any, rows)))
    assert m.row_weights() == [sum(1 for e in row if e) for row in rows]
    assert m.row_sums().tolist() == [sum(row) % D for row in rows]
    x = [(3 * j + 1) % D for j in range(m.ncols)]
    assert m.matvec(x) == tuple(sum(e * v for e, v in zip(row, x)) % D for row in rows)
    cols = dense_transpose(rows, m.ncols)
    assert m.transpose().entries == tuple(map(tuple, cols))
    assert m.transpose().transpose() == m
    assert m.sparse_rows() == [{j: e for j, e in enumerate(row) if e} for row in rows]
    span = snf_span_cardinality(rows, D)
    assert span_cardinality(m) == span
    assert kernel_cardinality(m) == D**m.ncols // span


@st.composite
def integer_rows(draw):
    """(rows of any integers, ncols, D), zero-heavy, with empty shapes."""
    D = draw(st.sampled_from(MODULI))
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    entries = st.one_of(
        st.sampled_from((0, 0, 0, 1, -1, D - 1, D)), st.integers(-(2**70), 2**70)
    )
    return [[draw(entries) for _ in range(n)] for _ in range(m)], n, D


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_rows())
@example(([], 0, 2))
@example(([], 4, 6))  # 0 x n
@example(([[], [], []], 0, 12))  # n x 0
@example(([[2**63, -(2**63) - 1]], 2, 3 * 2**62))
def test_from_rows_and_reads_equal_dense_reference(case):
    rows, n, D = case
    reduced = [[e % D for e in row] for row in rows]
    m = ZModMatrix.from_rows(rows, n, D)
    check_against_dense(m, reduced)
    triples = [(i, j, e) for i, row in enumerate(reduced) for j, e in enumerate(row) if e]
    assert ZModMatrix.from_coo(len(rows), n, D, *(zip(*triples) if triples else ((), (), ()))) == m


@st.composite
def coo_triples(draw):
    """(nrows, ncols, D, triples) with repeated positions and opposite values."""
    D = draw(st.sampled_from(MODULI))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    if not m or not n:
        return m, n, D, []
    triple = st.tuples(
        st.integers(0, m - 1),
        st.integers(0, n - 1),
        st.one_of(st.sampled_from((1, -1, 2, D)), st.integers(-(2**66), 2**66)),
    )
    triples = draw(st.lists(triple, max_size=14))
    # a repeated position with the opposite value must cancel
    return m, n, D, triples + [(r, c, -v) for r, c, v in triples[:2]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coo_triples())
@example((0, 3, 4, []))
@example((3, 0, 4, []))
@example((2, 2, 6, [(0, 1, 1), (0, 1, -1), (1, 0, 3), (1, 0, 3)]))
def test_coo_sums_repeats_over_the_integers(case):
    m, n, D, triples = case
    dense = [[0] * n for _ in range(m)]
    for r, c, v in triples:
        dense[r][c] += v
    rows, cols, values = zip(*triples) if triples else ((), (), ())
    check_against_dense(
        ZModMatrix.from_coo(m, n, D, rows, cols, values), [[e % D for e in row] for row in dense]
    )


@st.composite
def reduced_pairs(draw):
    D = draw(st.sampled_from(MODULI))
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.sampled_from((0, 0, 0, 1, D - 1)), st.integers(0, D - 1))
    a = [[draw(entry) for _ in range(k)] for _ in range(m)]
    b = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return a, b, k, n, D


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reduced_pairs())
@example(([], [[1, 2]], 1, 2, 3))  # 0 x k times k x n
@example(([[1], [2]], [[]], 1, 0, 3))  # m x k times k x 0
@example(([[], []], [], 0, 3, 6))  # inner dimension 0
def test_product_and_scalar_witness_equal_dense_reference(case):
    a, b, k, n, D = case
    left, right = ZModMatrix.from_rows(a, k, D), ZModMatrix.from_rows(b, n, D)
    want = dense_product(a, b, D) if a and b else [[0] * n for _ in a]
    check_against_dense(left @ right, want)
    # F V^T: faces are the rows of a, vertices the columns of b
    spec = StabilizerSpec(D, k, left, right.transpose())
    pairings = [e for row in want for e in row if e]
    want_witness = PauliProduct.scalar(D, pairings[0], k) if pairings else None
    assert spec.scalar_witness() == want_witness


def dense_boundaries(complex2, D):
    """d1 and d2 accumulated entry by entry from the definitions."""
    d1 = [[0] * len(complex2.edges) for _ in complex2.vertices]
    for j, (s, t) in enumerate(zip(complex2.sources, complex2.targets)):
        d1[t][j] += 1
        d1[s][j] -= 1
    d2 = [[0] * len(complex2.faces) for _ in complex2.edges]
    offsets = complex2.walk_offsets
    for f in range(len(complex2.faces)):
        for k in range(offsets[f], offsets[f + 1]):
            d2[complex2.walk_edges[k]][f] += complex2.walk_signs[k]
    return [[e % D for e in row] for row in d1], [[e % D for e in row] for row in d2]


def special_complexes():
    no_edges = named_complex(("a", "b"), [], [])
    degenerate_face = named_complex(("v",), [], [("f", [])])
    # a walk out along e and straight back: the two steps cancel
    back_and_forth = named_complex(("u", "w"), [("e", "u", "w")], [("f", ["e", "e~"])])
    # a self-loop walked three times and an edge walked twice each way
    repeats = named_complex(
        ("u", "w"), [("loop", "u", "u"), ("e", "u", "w")],
        [("f", ["loop"] * 3), ("g", ["e", "e~", "loop~", "e", "e~"])],
    )
    return [no_edges, degenerate_face, back_and_forth, repeats, rp2(), torus(), torus_grid(2, 3)]


def test_boundaries_equal_dense_accumulation():
    complexes = special_complexes() + [c for c, _ in two_complex_corpus(40, seed=5)]
    for complex2 in complexes:
        for D in MODULI:
            want1, want2 = dense_boundaries(complex2, D)
            d1, d2 = boundary1(complex2, D), boundary2(complex2, D)
            check_against_dense(d1, want1)
            check_against_dense(d2, want2)
            assert faces_sum_to_zero(d2) == all(sum(row) % D == 0 for row in want2)
            chain = chain_complex(complex2, D)  # the O(nnz) check d1 @ d2 = 0 passes
            assert (chain.d1, chain.d2) == (d1, d2)


def test_special_complex_entries():
    _, _, back_and_forth, repeats, *_ = special_complexes()
    assert boundary2(back_and_forth, 5).is_zero()
    assert boundary2(repeats, 5).entries == ((3, 4), (0, 0))  # loop: 3 and -1; e: 0
    assert boundary1(repeats, 5).entries == ((0, 4), (0, 1))  # the self-loop column is zero


def test_large_grid_chain_and_scalar_check_memory_is_linear_in_nnz():
    # a dense d1 of the 100x100 grid would have 10^4 x 2 10^4 = 2 10^8 entries
    grid = torus_grid(100, 100)
    tracemalloc.start()
    try:
        chain = chain_complex(grid, 6)
        spec = StabilizerSpec.from_chain(chain)
        assert spec.scalar_witness() is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nnz = len(chain.d1.data) + len(chain.d2.data)
    assert nnz == 2 * 20_000 + 4 * 10_000
    assert peak < 400 * nnz, f"peak {peak} bytes for {nnz} stored entries"
