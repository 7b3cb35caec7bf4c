import random
from collections import Counter, namedtuple
from itertools import product
from math import gcd, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quhom import zmod
from quhom.complex2 import (
    boundary1,
    boundary2,
    chain_complex,
    homology_cardinality,
    rp2,
    torus,
    torus_grid,
)
from quhom.documents import complex_from_dict
from quhom.hypermap import SpecialDarts, to_two_complex
from quhom.zmod import (
    SmithDecomposition,
    ZModMatrix,
    contains,
    kernel_cardinality,
    orthogonal_complement,
    product_dtype,
    smith_normal_form,
    span_cardinality,
)

from _corpus import (
    ACCEPTANCE_MODULI,
    acceptance_complexes,
    hypermap_corpus,
    random_graph_checks,
    random_special_darts,
    relabeled_grid_doc,
)


def bareiss_det(rows):
    """Exact integer determinant (fraction-free elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_mul(a, b):
    if not a or not b:
        return []
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def brute_span_elements(gens, n, D):
    """Closure of the generators under addition mod D (the independent oracle)."""
    seen = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % D for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def check_snf(matrix):
    """The library's (diag, V) equal the reference's, and U A V = diag with the reference's U."""
    dec = smith_normal_form(matrix)
    ref = reference_snf(matrix)
    assert (dec.diag, dec.V) == (ref.diag, ref.V)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    prodmat = mat_mul(mat_mul([list(r) for r in ref.U], [list(r) for r in matrix]), [list(r) for r in dec.V])
    for i in range(m):
        for j in range(n):
            want = dec.diag[i] if i == j and i < len(dec.diag) else 0
            assert prodmat[i][j] == want, (matrix, dec)
    for a, b in zip(dec.diag, dec.diag[1:]):
        assert b % a == 0
    assert all(d > 0 for d in dec.diag)
    assert abs(bareiss_det(ref.U)) == 1
    assert abs(bareiss_det(dec.V)) == 1
    return dec


def test_snf_identity():
    dec = check_snf([[1, 0], [0, 1]])
    assert dec.diag == (1, 1)


def test_snf_two_by_two():
    dec = check_snf([[2, 4], [6, 8]])
    assert dec.diag == (2, 4)


def test_snf_zero_one_by_one():
    dec = check_snf([[0]])
    assert dec.diag == ()


def test_snf_empty_shapes():
    assert smith_normal_form([]).diag == ()
    assert smith_normal_form([[], []]).diag == ()


def test_snf_random_roundtrip():
    rng = random.Random(1201)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(matrix)


def test_snf_entry_growth_stays_exact():
    # entries picked so naive elimination would overflow 64-bit words
    big = 2**40
    dec = check_snf([[big, big - 1], [big + 1, 2 * big]])
    assert dec.rank == 2


def test_span_cardinality_examples():
    assert span_cardinality(ZModMatrix.from_rows([(2,)], 1, 6)) == 3
    assert span_cardinality(ZModMatrix.from_rows([(2, 0), (0, 3)], 2, 6)) == 6
    assert span_cardinality(ZModMatrix.from_rows([], 3, 4)) == 1


def test_span_cardinality_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 4)
        D = rng.choice([2, 3, 4, 5, 6])
        k = rng.randint(0, n)
        gens = [tuple(rng.randrange(D) for _ in range(n)) for _ in range(k)]
        span = ZModMatrix.from_rows(gens, n, D)
        assert span_cardinality(span) == len(brute_span_elements(gens, n, D))


def test_kernel_cardinality_examples():
    assert kernel_cardinality(ZModMatrix.from_rows([(0, 0, 0)], 3, 2)) == 8
    assert kernel_cardinality(ZModMatrix.from_rows([(2,)], 1, 6)) == 2
    for D in (2, 3, 6):
        identity = ZModMatrix.from_coo(3, 3, D, range(3), range(3), [1] * 3)
        assert kernel_cardinality(identity) == 1


def test_kernel_cardinality_matches_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        D = rng.choice([2, 3, 4, 6])
        mat = ZModMatrix.from_rows(
            [[rng.randrange(D) for _ in range(n)] for _ in range(m)], n, D
        )
        count = sum(1 for v in product(range(D), repeat=n) if not any(mat.matvec(v)))
        assert kernel_cardinality(mat) == count


def test_rank_nullity_in_cardinality_form():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        D = rng.choice([2, 3, 4, 5, 6])
        mat = ZModMatrix.from_rows(
            [[rng.randrange(D) for _ in range(n)] for _ in range(m)], n, D
        )
        assert kernel_cardinality(mat) * span_cardinality(mat.transpose()) == D**n


def test_orthogonal_complement_examples():
    comp = orthogonal_complement(ZModMatrix.from_rows([(1, 1)], 2, 2))
    assert span_cardinality(comp) == 2
    assert contains(comp, (1, 1))

    full = ZModMatrix.from_rows([(1, 0), (0, 1)], 2, 5)
    assert span_cardinality(orthogonal_complement(full)) == 1

    zero = ZModMatrix.from_rows([], 2, 5)
    assert span_cardinality(orthogonal_complement(zero)) == 25


def test_complement_product_matches_exhaustive():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 4)
        D = rng.choice([2, 3, 4, 5, 6])
        k = rng.randint(0, n)
        gens = [tuple(rng.randrange(D) for _ in range(n)) for _ in range(k)]
        span = ZModMatrix.from_rows(gens, n, D)
        comp = orthogonal_complement(span)
        elements = brute_span_elements(gens, n, D)
        exhaustive = [
            v
            for v in product(range(D), repeat=n)
            if all(sum(a * b for a, b in zip(v, y)) % D == 0 for y in elements)
        ]
        assert span_cardinality(span) * span_cardinality(comp) == D**n
        assert span_cardinality(comp) == len(exhaustive)
        # every exhaustively-found element is reachable from the computed generators
        for v in exhaustive:
            assert contains(comp, v)


def test_double_complement_contains_original():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 4)
        D = rng.choice([2, 3, 4, 5, 6])
        gens = [tuple(rng.randrange(D) for _ in range(n)) for _ in range(rng.randint(0, n))]
        span = ZModMatrix.from_rows(gens, n, D)
        double = orthogonal_complement(orthogonal_complement(span))
        for g in gens:
            assert contains(double, g)


def test_contains_examples():
    span = ZModMatrix.from_rows([(2,)], 1, 6)
    assert contains(span, (4,))
    assert not contains(span, (1,))
    assert contains(span, (0,))
    assert contains(ZModMatrix.from_rows([], 3, 4), (0, 0, 0))


def test_contains_matches_bruteforce():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 3)
        D = rng.choice([2, 3, 4, 6])
        gens = [tuple(rng.randrange(D) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        span = ZModMatrix.from_rows(gens, n, D)
        elements = brute_span_elements(gens, n, D)
        for v in product(range(D), repeat=n):
            assert contains(span, v) == (v in elements)


def test_matrix_validation():
    with pytest.raises(ValueError):
        ZModMatrix.from_rows([(0,)], 1, 1)
    with pytest.raises(ValueError):
        ZModMatrix.from_coo(1, 1, 1, [0], [0], [1])
    with pytest.raises(ValueError):
        ZModMatrix.from_rows([(1, 2)], 2, 3) @ ZModMatrix.from_rows([(1, 2)], 2, 3)
    for value in (-1, 3, 7):
        assert ZModMatrix.from_rows([(0, 1), (value, 2)], 2, 3).entries == ((0, 1), (value % 3, 2))
    with pytest.raises(ValueError, match="column count mismatch"):
        ZModMatrix.from_rows([(0, 1), (2,)], 2, 3)
    # zero columns or no rows
    assert ZModMatrix.from_rows([(), ()], 0, 3).transpose().nrows == 0
    assert span_cardinality(ZModMatrix.from_rows([()], 0, 3)) == 1


def test_matmul_and_transpose():
    a = ZModMatrix.from_rows([(1, 2), (3, 4)], 2, 5)
    b = ZModMatrix.from_rows([(0, 1), (1, 0)], 2, 5)
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a.transpose().entries == ((1, 3), (2, 4))
    empty = ZModMatrix.from_rows([], 3, 5)
    assert empty.transpose().nrows == 3
    assert empty.transpose().ncols == 0


ReferenceSNF = namedtuple("ReferenceSNF", "U diag V")


def reference_snf(matrix):
    """Full-scan Smith normal form without early exits, with U: the reference for the exact one."""
    M = [[int(e) for e in row] for row in matrix]
    m = len(M)
    n = len(M[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        M[a], M[b] = M[b], M[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in M + V:
            row[a], row[b] = row[b], row[a]

    def row_addmul(dst, src, c):
        M[dst] = [x + c * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def col_addmul(dst, src, c):
        for row in M + V:
            row[dst] += c * row[src]

    t = 0
    while True:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = M[i][j]
                if e and (best is None or abs(e) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if M[i][t] == 0:
                    continue
                row_addmul(i, t, -(M[i][t] // M[t][t]))
                if M[i][t]:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, n):
                if M[t][j] == 0:
                    continue
                col_addmul(j, t, -(M[t][j] // M[t][t]))
                if M[t][j]:
                    swap_cols(t, j)
                    restart = True
                    break
            if not restart:
                break
        pivot = M[t][t]
        offender = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if M[i][j] % pivot),
            None,
        )
        if offender is not None:
            row_addmul(t, offender, 1)
            continue
        if pivot < 0:
            M[t] = [-e for e in M[t]]
            U[t] = [-e for e in U[t]]
        t += 1
    return ReferenceSNF(tuple(map(tuple, U)), tuple(M[i][i] for i in range(t)), tuple(map(tuple, V)))


def reference_decomposition(matrix):
    """The reference's diagonal and V, as the library keeps them."""
    ref = reference_snf(matrix)
    return SmithDecomposition(ref.diag, ref.V)


def reference_matmul(a, b):
    """Row-by-column Python sums mod D: the reference for the numpy product."""
    cols = [[row[j] for row in b.entries] for j in range(b.ncols)]
    rows = [[sum(x * y for x, y in zip(row, col)) % a.modulus for col in cols] for row in a.entries]
    return ZModMatrix.from_rows(rows, b.ncols, a.modulus)


# mostly units, zeros and small entries, so that unit pivots, non-unit
# pivots, zero rows and zero columns all occur
ENTRIES = st.one_of(st.sampled_from((0, 0, 0, 1, -1)), st.integers(-12, 12))


@st.composite
def integer_matrices(draw, entries=ENTRIES):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(integer_matrices())
@example([])
@example([[], []])
@example([[0, 0], [0, 0]])
def test_snf_equals_full_scan_reference(matrix):
    assert smith_normal_form(matrix) == reference_decomposition(matrix)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(integer_matrices(st.integers(-2**70, 2**70)))
def test_snf_equals_reference_on_large_entries(matrix):
    assert smith_normal_form(matrix) == reference_decomposition(matrix)


def test_snf_equals_reference_on_boundary_matrices():
    for D in (2, 6):
        grid = torus_grid(4, 5)
        for mat in (boundary1(grid, D), boundary2(grid, D), boundary2(grid, D).transpose()):
            assert smith_normal_form(mat.entries) == reference_decomposition(mat.entries)


@st.composite
def matrix_pairs(draw, moduli=st.integers(2, 12)):
    D = draw(moduli)
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    entries = st.integers(0, D - 1)
    a = [[draw(entries) for _ in range(k)] for _ in range(m)]
    b = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return ZModMatrix.from_rows(a, k, D), ZModMatrix.from_rows(b, n, D)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrix_pairs())
def test_matmul_equals_python_sums(pair):
    a, b = pair
    assert a @ b == reference_matmul(a, b)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(matrix_pairs(st.sampled_from((3 * 2**62, 2**64 + 1))))
def test_matmul_on_object_path_equals_python_sums(pair):
    a, b = pair
    assert product_dtype(a.ncols, a.modulus) is object
    assert a @ b == reference_matmul(a, b)


def test_product_dtype_switches_before_int64_wraps():
    assert product_dtype(2, 2**31) is np.int64  # 2 (2^31 - 1)^2 < 2^63
    assert product_dtype(2, 2**31 + 1) is object  # 2 (2^31)^2 = 2^63 would wrap
    assert product_dtype(0, 3 * 2**62) is object  # D itself must fit for the reduction
    assert product_dtype(1, 3 * 2**62) is object
    # 2^63 * 2^63 mod 3 * 2^62 computed exactly
    big = ZModMatrix.from_rows([[2**63]], 1, 3 * 2**62)
    assert (big @ big).entries == ((2**126 % (3 * 2**62),),)


def reference_span_cardinality(rows, D):
    """prod D / gcd(d_i, D) over the SNF diagonal: the reference for the elimination."""
    return prod(D // gcd(d, D) for d in smith_normal_form(rows).diag)


def reference_kernel_cardinality(rows, ncols, D):
    """D^(ncols - rank) prod gcd(d_i, D) over the SNF diagonal."""
    diag = smith_normal_form(rows).diag
    return D ** (ncols - len(diag)) * prod(gcd(d, D) for d in diag)


CARDINALITY_MODULI = (2, 3, 4, 6, 12, 3 * 2**62)


@st.composite
def reduced_matrices(draw, moduli=st.sampled_from(CARDINALITY_MODULI)):
    """(rows, ncols, D); a scale sharing a factor with D leaves no unit entry."""
    D = draw(moduli)
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    entries = st.one_of(st.sampled_from((0, 0, 0, 1, 2, 3, D - 1)), st.integers(0, D - 1))
    rows = [[scale * draw(entries) % D for _ in range(n)] for _ in range(m)]
    return rows, n, D


@settings(max_examples=500, deadline=None, derandomize=True)
@given(reduced_matrices())
@example(([], 0, 2))
@example(([], 3, 6))
@example(([[], []], 0, 4))
@example(([[0, 0, 0], [0, 0, 0]], 3, 12))
@example(([[2, 0, 2], [0, 2, 2], [2, 2, 0]], 3, 4))  # no unit entry at D = 4
@example(([[3, 6, 0], [0, 3, 3], [6, 0, 3]], 3, 9))  # nor at D = 9
@example(([[2, 3], [1, 1]], 2, 6))  # row 0 gains the unit 1 only after elimination
@example(([[4, 3, 0], [0, 2, 0], [1, 0, 5]], 3, 6))
def test_unit_pivot_cardinality_equals_snf_diagonal(case):
    rows, n, D = case
    matrix = ZModMatrix.from_rows(rows, n, D)
    assert span_cardinality(matrix) == reference_span_cardinality(rows, D)
    assert kernel_cardinality(matrix) == reference_kernel_cardinality(rows, n, D)


def previous_unit_pivot_cardinality(rows, D):
    """The elimination's count with its earlier pivot scan, the reference for its pivots.

    Units are listed per row with a gcd each, the pivot column is
    min(units, key=live rows), and the next row is min(i + 1, min(touched)).
    """
    rows = [{j: e for j, e in enumerate(row) if e} for row in rows]
    live = {i: row for i, row in enumerate(rows) if row}
    cols = {}
    for i, row in live.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = 0
    i = 0
    end = max(live, default=-1) + 1
    while i < end:
        row = live.get(i)
        units = [j for j, e in row.items() if gcd(e, D) == 1] if row else ()
        if not units:
            i += 1
            continue
        c = min(units, key=lambda j: len(cols[j]))
        inv = pow(row[c], -1, D)
        del live[i]
        for j in row:
            cols[j].discard(i)
        rest = [(j, e) for j, e in row.items() if j != c]
        touched = cols.pop(c)
        for r in touched:
            other = live[r]
            f = other.pop(c) * inv % D
            for j, e in rest:
                v = (other.get(j, 0) - f * e) % D
                if v:
                    if j not in other:
                        cols[j].add(r)
                    other[j] = v
                elif j in other:
                    del other[j]
                    cols[j].discard(r)
            if not other:
                del live[r]
        pivots += 1
        i = min(i + 1, min(touched, default=end))
    size = D**pivots
    if live:
        used = sorted({j for row in live.values() for j in row})
        block = [[row.get(j, 0) for j in used] for row in live.values()]
        size *= prod(D // gcd(d, D) for d in zmod.smith_normal_form(block).diag)
    return size


def with_snf_blocks(count, *args):
    """(count(*args), the blocks it left to the SNF): equal blocks mean equal pivots."""
    with mock.patch.object(zmod, "smith_normal_form", wraps=smith_normal_form) as snf:
        size = count(*args)
    return size, [call.args for call in snf.call_args_list]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(reduced_matrices())
def test_unit_pivot_cardinality_pivots_as_the_previous_scan(case):
    rows, n, D = case
    want = with_snf_blocks(previous_unit_pivot_cardinality, rows, D)
    matrix = ZModMatrix.from_rows(rows, n, D)
    assert with_snf_blocks(lambda m: zmod.UnitPivotElimination(m).cardinality, matrix) == want


GRAPH_MODULI = (2, 3, 4, 5, 6, 12, 3 * 2**62)


def graph_features(matrix):
    """The shapes a check graph can take that this matrix shows."""
    graph = matrix.check_graph
    if graph is None:
        return {"no graph"}
    D = matrix.modulus
    columns = [tuple(c) for c in matrix.transpose().sparse_rows()]
    features = {"graph"}
    if graph.empty_columns:
        features.add("empty column")
    if 0 in matrix.row_weights():
        features.add("empty row")
    if any(len(c) == 1 for c in columns):
        features.add("one-entry column")
    pairs = [c for c in columns if len(c) == 2]
    if len(set(pairs)) < len(pairs):
        features.add("parallel columns")
    rows = graph.adjacent[: matrix.nrows]
    if {mu for edges in rows for v, _, mu in edges if v < matrix.nrows} - {1, D - 1}:
        features.add("other unit multiplier")
    size = graph.left_kernel_size
    while size % D == 0:
        size //= D
    if size > 1:
        features.add("proper divisor")  # a component with 1 < gcd(D, g) < D
    return features


@pytest.mark.parametrize("D", GRAPH_MODULI)
def test_graph_count_equals_the_elimination_on_random_graph_like_matrices(D):
    rng = random.Random(610 + D % 997)
    seen = Counter()
    for i in range(400):
        big = i % 2
        matrix = random_graph_checks(rng, D, max_rows=4 + 4 * big, max_columns=7 + 5 * big)
        want = zmod.UnitPivotElimination(matrix).cardinality
        assert span_cardinality(matrix) == want, matrix.entries
        assert kernel_cardinality(matrix) == D**matrix.ncols // want
        seen.update(graph_features(matrix))
    wanted = ["graph", "no graph", "empty column", "empty row", "one-entry column",
              "parallel columns"]
    if D in (5, 12, 3 * 2**62):  # units other than +-1
        wanted.append("other unit multiplier")
    if D in (4, 6, 12, 3 * 2**62):
        wanted.append("proper divisor")
    assert min(seen[feature] for feature in wanted) >= 5, seen


def named_boundary_matrices(D):
    """d1 and d2^T of relabeled grids up to 6x6, rp2, the torus, the
    acceptance complexes and converted corpus hypermaps."""
    complexes = [
        complex_from_dict(relabeled_grid_doc(k, l, D, seed=k * l))[0]
        for k in range(1, 7) for l in range(k, 7)
    ]
    complexes += [rp2(), torus(), *(c for c, _ in acceptance_complexes())]
    rng = random.Random(61)
    for hypermap, _ in hypermap_corpus(60):
        complexes.append(to_two_complex(hypermap, SpecialDarts.default(hypermap)))
        complexes.append(to_two_complex(hypermap, random_special_darts(rng, hypermap)))
    for complex2 in complexes:
        chain = chain_complex(complex2, D)
        yield chain.d1
        yield chain.d2.transpose()


@pytest.mark.parametrize("D", GRAPH_MODULI)
def test_graph_count_equals_the_elimination_on_named_complexes(D):
    graphs = 0
    for matrix in named_boundary_matrices(D):
        assert span_cardinality(matrix) == zmod.UnitPivotElimination(matrix).cardinality
        graphs += matrix.check_graph is not None
    assert graphs >= 100, graphs


def test_no_check_graph_past_two_entries_or_on_a_non_unit():
    # a column of three entries, and 2 at D = 4; both are counted by the elimination
    for rows, n, D, size in (([[1], [1], [1]], 1, 3, 3), ([[2, 1], [1, 0]], 2, 4, 16)):
        matrix = ZModMatrix.from_rows(rows, n, D)
        assert matrix.check_graph is None
        assert span_cardinality(matrix) == size and "elimination" in vars(matrix)
    d1 = chain_complex(torus_grid(3, 3), 6).d1
    assert span_cardinality(d1) == 6**8 and "elimination" not in vars(d1)


def refuse_snf(*args):
    raise AssertionError("a cardinality called smith_normal_form")


def test_row_that_gains_a_unit_is_pivoted_not_left_to_the_snf(monkeypatch):
    # row 0 has no unit mod 6 (or 12) until row 1's pivot is cleared from it
    monkeypatch.setattr(zmod, "smith_normal_form", refuse_snf)
    assert span_cardinality(ZModMatrix.from_rows([[2, 3], [1, 1]], 2, 6)) == 36
    assert span_cardinality(ZModMatrix.from_rows([[3, 4], [1, 1]], 2, 12)) == 144


def test_cardinalities_on_torus_grids_equal_snf_and_call_no_snf(monkeypatch):
    for k, l in ((1, 1), (2, 3), (5, 7), (14, 14)):
        for D in (2, 3, 4, 6):
            chain = chain_complex(torus_grid(k, l), D)
            d1, d2t = chain.d1, chain.d2.transpose()  # V and F of the stabilizer spec
            matrices = (d1, d2t, d1.transpose(), chain.d2)
            want = [reference_span_cardinality(m.entries, D) for m in matrices]
            want_kernel = reference_kernel_cardinality(d1.entries, d1.ncols, D)
            with monkeypatch.context() as patch:
                patch.setattr(zmod, "smith_normal_form", refuse_snf)
                assert [span_cardinality(m) for m in matrices] == want, (k, l, D)
                assert kernel_cardinality(d1) == want_kernel
                assert homology_cardinality(chain) == D**2


def test_cardinalities_match_snf_on_acceptance_complexes():
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            chain = chain_complex(complex2, D)
            d1, d2t = chain.d1, chain.d2.transpose()
            for span in (d1, d2t, chain.d2):
                assert span_cardinality(span) == reference_span_cardinality(
                    span.entries, D
                ), (label, D)
            cycles = reference_kernel_cardinality(d1.entries, d1.ncols, D)
            assert kernel_cardinality(d1) == cycles, (label, D)
            assert kernel_cardinality(d2t) == reference_kernel_cardinality(
                d2t.entries, d2t.ncols, D
            ), (label, D)
            homology = cycles // reference_span_cardinality(d2t.entries, D)
            assert homology_cardinality(chain) == homology, (label, D)


def reference_membership(span):
    """The earlier solver: membership from the SNF of G^T and its dense U, as a predicate.

    x is in the row span of G iff G^T c = x has a solution mod D; with
    U G^T V = diag(d_i), that holds iff (U x)_i = 0 mod gcd(d_i, D) within
    the rank and mod D beyond it.
    """
    D = span.modulus
    dec = reference_snf(span.transpose().entries)
    moduli = [gcd(dec.diag[i], D) if i < len(dec.diag) else D for i in range(span.ncols)]

    def member(x):
        return all(sum(a * b for a, b in zip(u, x)) % m == 0 for u, m in zip(dec.U, moduli))

    return member


def reference_complement(span):
    """The earlier complement: x = V w from the SNF of G, w_i in (D / gcd(d_i, D)) Z_D."""
    D, n = span.modulus, span.ncols
    dec = reference_snf(span.entries) if span.nrows else ReferenceSNF((), (), ())
    V = dec.V or tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        scale = D // gcd(dec.diag[i], D) if i < len(dec.diag) else 1
        gen = tuple(scale * row[i] % D for row in V)
        if scale < D and any(gen):
            gens.append(gen)
    return ZModMatrix.from_rows(gens, n, D)


MEMBERSHIP_MODULI = (2, 3, 4, 6, 8, 9, 12, 3 * 2**62)


@st.composite
def spans_and_vectors(draw):
    """(span, the vectors to test): every vector when D^n <= 4096, else a sample.

    Entries 2, 3 and D/2 share a factor with most of the moduli, so blocks
    with no unit entry are left to the SNF; a scale does the same to whole rows.
    """
    D = draw(st.sampled_from(MEMBERSHIP_MODULI))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 6))
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    entries = st.one_of(st.sampled_from((0, 0, 1, 2, 3, D // 2, D - 1)), st.integers(0, D - 1))
    rows = [[scale * draw(entries) % D for _ in range(n)] for _ in range(m)]
    span = ZModMatrix.from_rows(rows, n, D)
    if D**n <= 4096:
        return span, list(product(range(D), repeat=n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    vectors = [tuple(rng.randrange(D) for _ in range(n)) for _ in range(40)]
    for _ in range(40):  # members, and members off by one unit vector
        x = [sum(rng.randrange(D) * row[j] for row in rows) % D for j in range(n)]
        vectors.append(tuple(x))
        x[rng.randrange(n)] += rng.choice((1, 2, D // 2))
        vectors.append(tuple(e % D for e in x))
    return span, vectors


@settings(max_examples=250, deadline=None, derandomize=True)
@given(spans_and_vectors())
@example((ZModMatrix.from_rows([(2, 0, 2), (0, 2, 2), (2, 2, 0)], 3, 4),
          list(product(range(4), repeat=3))))
@example((ZModMatrix.from_rows([(3, 6, 0), (0, 3, 3), (6, 0, 3)], 3, 9),
          list(product(range(9), repeat=3))))
@example((ZModMatrix.from_rows([(1, 2, 0, 2), (0, 2, 2, 0), (0, 0, 4, 4)], 4, 8),
          list(product(range(8), repeat=4))))
@example((ZModMatrix.from_rows([(2, 3), (1, 1)], 2, 6), list(product(range(6), repeat=2))))
@example((ZModMatrix.from_rows([], 3, 4), list(product(range(4), repeat=3))))
def test_membership_and_complement_equal_the_snf_references(case):
    span, vectors = case
    D = span.modulus
    with mock.patch.object(zmod, "smith_normal_form", wraps=smith_normal_form) as snf:
        contains(span, vectors[0])
        complement = orthogonal_complement(span)
    # the SNF runs on the leftover block alone, once, and only when there is one
    assert snf.call_count == bool(span.elimination.factors)
    reference = reference_complement(span)
    in_span, in_reference = reference_membership(span), reference_membership(reference)
    assert span_cardinality(complement) == span_cardinality(reference)
    assert span_cardinality(span) * span_cardinality(complement) == D**span.ncols
    for g in complement.entries:
        assert all(sum(a * b for a, b in zip(g, row)) % D == 0 for row in span.entries)
    for x in vectors:
        assert contains(span, x) == in_span(x), x
        assert contains(complement, x) == in_reference(x), x


def test_solvers_and_complements_on_a_torus_grid_run_no_snf(monkeypatch):
    # every boundary row keeps a unit pivot, so no block is left to the SNF
    k, D = 16, 3
    chain = chain_complex(torus_grid(k, k), D)
    faces, vertices = spans = (chain.d2.transpose(), chain.d1)
    monkeypatch.setattr(zmod, "smith_normal_form", refuse_snf)
    cycle = [0] * chain.d1.ncols
    for j in range(k):
        cycle[2 * j] = 1  # r0.j: the edges of row 0, once around the torus
    cycle = tuple(cycle)
    for span in spans:  # each span's membership set-up and its complement's
        assert span.elimination._unpivoted and orthogonal_complement(span).elimination._unpivoted
    for i in range(faces.nrows):
        boundary = faces.entries[i]
        assert contains(faces, boundary)
        assert contains(orthogonal_complement(vertices), boundary)  # d1 d2 = 0
    assert not contains(faces, cycle)
    assert contains(orthogonal_complement(vertices), cycle)
    assert not contains(vertices, cycle)
    assert span_cardinality(orthogonal_complement(faces)) == (
        D ** chain.d1.ncols // span_cardinality(faces)
    )
