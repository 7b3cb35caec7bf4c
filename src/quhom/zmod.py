"""Exact linear algebra over Z_D for arbitrary integer D >= 2.

Z_D is not a PID when D is composite.  A submodule of Z_D^n is the row
span of a matrix.  When every column of the matrix holds at most two
entries, all units mod D, as the boundary matrices of a surface do, the
matrix is a signed graph on its rows (`CheckGraph`, kept as
`ZModMatrix.check_graph`), and the span is counted from the graph's
components and the balance of its cycles.  Otherwise, and for membership
and the orthogonal complement, the matrix keeps one elimination of its
rows on unit pivots mod D, which needs no factorization of D
(`UnitPivotElimination`), built on first use: membership reduces a
vector by the pivot rows, and the complement's generators are lifted
through them by back-substitution.  The integer Smith normal form, exact
over Python ints, runs only on the block of rows left with no unit
entry, once per span; torus grids leave no such block.  Matrices are
compressed sparse rows in numpy arrays, and their products, transposes
and row reads cost O(nnz); dense rows are built only on demand.  Values
are treated as immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Sequence

import numpy as np

Vector = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


def product_dtype(terms: int, modulus: int):
    """numpy dtype for sums of `terms` products of entries reduced mod D.

    int64 when no such sum can reach 2^63, so nothing wraps (D itself then
    fits, even for zero terms); otherwise object arrays of Python ints.
    """
    return np.int64 if max(terms, 1) * (modulus - 1) ** 2 < 2**63 else object


def _value_dtype(modulus: int):
    """dtype of stored values: int64 when D itself fits, object (Python ints) otherwise."""
    return np.int64 if modulus < 2**63 else object


def _int_array(values, shape=None) -> np.ndarray:
    """Integers as an int64 array when they all fit, as Python ints otherwise."""
    try:
        out = np.array(values, dtype=np.int64)
    except OverflowError:
        out = np.array(values, dtype=object)
    return out if shape is None else out.reshape(shape)


def _check_modulus(modulus: int):
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")


def _indptr(row_ids: np.ndarray, nrows: int) -> np.ndarray:
    """Row pointers for entries with these rows, listed by increasing row."""
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.bincount(row_ids, minlength=nrows).cumsum(out=indptr[1:])
    return indptr


def _csr_of_dense(dense: np.ndarray, modulus: int) -> tuple:
    """ZModMatrix fields of a 2-d array whose entries are reduced to [0, D)."""
    rows, cols = np.nonzero(dense)
    data = dense[rows, cols].astype(_value_dtype(modulus))
    return (*dense.shape, modulus, _indptr(rows, len(dense)), cols, data)


class ZModMatrix:
    """Matrix over Z_D in compressed sparse rows.

    Row i stores its nonzero entries only: columns `indices[indptr[i]:
    indptr[i + 1]]` in increasing order, with values `data[...]` in [1, D).
    Values are int64 when D fits in int64 and Python ints otherwise.  The
    form is canonical, so equal matrices have equal arrays.  Entries are
    reduced once, when `from_rows` or `from_coo` builds the matrix; every
    operation below reads the arrays in O(nnz), apart from the dense views
    `entries` and `array`.  Matrices are never changed after they are
    built; the transpose, the check graph and the unit-pivot elimination
    of the rows, which answer for the row span, are built once and kept.
    """

    def __init__(self, nrows: int, ncols: int, modulus: int, indptr, indices, data):
        """From the arrays of the canonical form, as the constructors below build them."""
        self.nrows, self.ncols, self.modulus = nrows, ncols, modulus
        self.indptr, self.indices, self.data = indptr, indices, data
        self._transpose = None

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ncols: int, modulus: int) -> ZModMatrix:
        """From dense rows of any integers, reduced mod D."""
        rows = list(rows)
        _check_modulus(modulus)
        if set(map(len, rows)) - {ncols}:
            raise ValueError("column count mismatch")
        dense = _int_array(rows, (len(rows), ncols))
        if _value_dtype(modulus) is object:
            dense = dense.astype(object)
        return cls(*_csr_of_dense(dense % modulus, modulus))

    @classmethod
    def from_coo(cls, nrows: int, ncols: int, modulus: int, rows, cols, values) -> ZModMatrix:
        """From (row, column, value) triples: positions in range, values any integers.

        Triples at the same position are summed over the integers before the
        sum is reduced mod D, so opposite values cancel.
        """
        _check_modulus(modulus)
        keys = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
        values = values if isinstance(values, np.ndarray) else _int_array(values)
        return cls._from_keys(nrows, ncols, modulus, keys, values)

    @classmethod
    def _from_keys(cls, nrows, ncols, modulus, keys, values) -> ZModMatrix:
        """COO triples given as row-major keys row * ncols + column."""
        order = keys.argsort(kind="stable")
        keys = keys[order]
        distinct = np.empty(len(keys), dtype=bool)
        distinct[:1] = True
        distinct[1:] = keys[1:] != keys[:-1]
        starts = distinct.nonzero()[0]
        sums = np.add.reduceat(values[order], starts)
        dtype = _value_dtype(modulus)
        if dtype is object:
            sums = sums.astype(object)
        sums %= modulus
        kept = sums.nonzero()[0]
        keys = keys[starts[kept]]
        rows = keys // ncols if ncols else keys
        return cls(nrows, ncols, modulus, _indptr(rows, nrows), keys - rows * ncols,
                   sums[kept].astype(dtype, copy=False))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZModMatrix):
            return NotImplemented
        return (
            (self.nrows, self.ncols, self.modulus) == (other.nrows, other.ncols, other.modulus)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return (f"ZModMatrix(nrows={self.nrows}, ncols={self.ncols}, modulus={self.modulus}, "
                f"nnz={len(self.data)})")

    @cached_property
    def _row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.arange(self.nrows).repeat(self.indptr[1:] - self.indptr[:-1])

    @cached_property
    def elimination(self) -> UnitPivotElimination:
        """Unit-pivot elimination of the rows mod D; it answers for the row span."""
        return UnitPivotElimination(self)

    @cached_property
    def check_graph(self) -> CheckGraph | None:
        """The rows as a graph, or None unless every column holds at most two entries, all units.

        Read off the transpose; see `CheckGraph`.
        """
        columns = self.transpose()
        ptr, rows, data = columns.indptr.tolist(), columns.indices.tolist(), columns.data.tolist()
        D = self.modulus
        inverse = {}
        for e in set(data):
            if gcd(e, D) != 1:
                return None
            inverse[e] = pow(e, -1, D)
        ground = self.nrows
        adjacent = [[] for _ in range(ground + 1)]
        empty = 0
        for column, (start, stop) in enumerate(zip(ptr, ptr[1:])):
            if stop - start == 2:
                (u, v), (a, b) = rows[start:stop], data[start:stop]
                adjacent[u].append((v, column, -a * inverse[b] % D))
                adjacent[v].append((u, column, -b * inverse[a] % D))
            elif stop - start == 1:
                adjacent[rows[start]].append((ground, column, 0))
                adjacent[ground].append((rows[start], column, 0))
            elif start == stop:
                empty += 1
            else:
                return None
        return CheckGraph(D, adjacent, empty)

    @cached_property
    def entries(self) -> IntRows:
        """Dense rows as tuples of Python ints; built on first use."""
        return tuple(map(tuple, self.array(self.data.dtype).tolist()))

    def array(self, dtype) -> np.ndarray:
        """Dense (nrows, ncols) array of the given dtype, scattered from the stored entries."""
        out = np.zeros((self.nrows, self.ncols), dtype=dtype)
        out[self._row_ids, self.indices] = self.data.astype(dtype)
        return out

    def sparse_rows(self) -> list[dict[int, int]]:
        """Each row as {column: entry}, nonzero entries only."""
        cols, vals, ptr = self.indices.tolist(), self.data.tolist(), self.indptr.tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(ptr, ptr[1:])]

    def row_weights(self) -> list[int]:
        """Number of nonzero entries in each row."""
        return (self.indptr[1:] - self.indptr[:-1]).tolist()

    def _row_totals(self, values: np.ndarray) -> np.ndarray:
        """Each row's sum of `values`, one per stored entry, mod D."""
        totals = np.zeros(len(values) + 1, dtype=values.dtype)
        totals[1:] = values.cumsum()
        return (totals[self.indptr[1:]] - totals[self.indptr[:-1]]) % self.modulus

    def row_sums(self) -> np.ndarray:
        """Each row's sum mod D."""
        return self._row_totals(self.data.astype(product_dtype(len(self.data), self.modulus)))

    def transpose(self) -> ZModMatrix:
        """The transpose; built once, and its own transpose is this matrix."""
        if self._transpose is None:
            order = self.indices.argsort(kind="stable")
            self._transpose = ZModMatrix(
                self.ncols, self.nrows, self.modulus, _indptr(self.indices, self.ncols),
                self._row_ids[order], self.data[order],
            )
            self._transpose._transpose = self
        return self._transpose

    def __matmul__(self, other: ZModMatrix) -> ZModMatrix:
        """Product over the stored entries: entry (i, j) of self meets row j of other."""
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch for matrix product")
        dtype = product_dtype(self.ncols, self.modulus)
        starts = other.indptr[self.indices]
        counts = other.indptr[self.indices + 1] - starts
        right = (starts + counts - counts.cumsum()).repeat(counts)
        right += np.arange(len(right))  # the entries of other that each entry of self meets
        keys = (self._row_ids * other.ncols).repeat(counts) + other.indices[right]
        values = self.data.astype(dtype).repeat(counts) * other.data[right].astype(dtype)
        return ZModMatrix._from_keys(self.nrows, other.ncols, self.modulus, keys, values)

    def matvec(self, x: Sequence[int]) -> Vector:
        """A x mod D for a vector of any integers, from the stored entries."""
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        D = self.modulus
        dtype = product_dtype(len(self.data), D)  # bounds every partial sum over the entries
        x = np.array([int(e) % D for e in x], dtype=dtype)
        return tuple(self._row_totals(self.data.astype(dtype) * x[self.indices]).tolist())

    def is_zero(self) -> bool:
        return not len(self.data)


class CheckGraph:
    """A matrix over Z_D whose columns hold at most two entries, all units, as a graph.

    The nodes are the rows and one ground node, numbered nrows.  A column
    with entries a in row u and b in row v is an edge u-v; a one-entry
    column is an edge from its row to ground; an empty column is no edge,
    and `empty_columns` counts them.  `adjacent[u]` lists (neighbour,
    column, multiplier) for the edges at u, the multiplier from row u to
    row v being mu = -a b^-1 mod D: y A = 0 on that column iff y_v = mu y_u.
    The multiplier of an edge to or from ground is 0.
    """

    def __init__(
        self, modulus: int, adjacent: list[list[tuple[int, int, int]]], empty_columns: int
    ):
        self.modulus, self.adjacent, self.empty_columns = modulus, adjacent, empty_columns

    @cached_property
    def left_kernel_size(self) -> int:
        """Size of {y in Z_D^rows : y A = 0}, component by component.

        Potentials p along a spanning forest, p(root) = 1 and p(v) = mu p(u),
        are units, and a kernel vector is y = p t on each component.  An edge
        to ground forces a unit times t to 0, so such a component gives 1
        choice of t.  Otherwise every edge u-v asks (p(v) - mu p(u)) t = 0,
        which holds for gcd(D, g) values of t, g the gcd of these defects
        (gcd(D, 0) = D).  A tree edge has defect 0 both ways.
        """
        D, adjacent = self.modulus, self.adjacent
        ground = len(adjacent) - 1
        potential = [0] * ground  # 0 until reached; potentials are units, never 0 mod D
        size = 1
        for root in range(ground):
            if potential[root]:
                continue
            potential[root] = 1
            queue, grounded, g = [root], False, 0
            for u in queue:
                pu = potential[u]
                for v, _, mu in adjacent[u]:
                    if v == ground:
                        grounded = True
                    elif potential[v]:
                        g = gcd(g, potential[v] - mu * pu)
                    else:
                        potential[v] = mu * pu % D
                        queue.append(v)
            size *= 1 if grounded else gcd(D, g)
        return size


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = diag(d_1..d_r, 0..) with U, V unimodular over the integers.

    Only V is kept: cardinalities read the diagonal, membership and
    complements read V, and nothing reads U.  ``diag`` lists only the
    nonzero invariant factors; consecutive entries satisfy d_i | d_{i+1}
    and all are positive.
    """

    diag: tuple[int, ...]
    V: IntRows

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form of an integer matrix, exactly.

    Pivot choice is the smallest nonzero absolute value in the trailing
    block (the first in row-major order on ties), which bounds entry growth;
    arithmetic is plain Python int so intermediate values may exceed
    machine words without error.  A unit pivot ends the pivot scan, as no
    entry is smaller, and divides everything, so the divisibility check is
    skipped for it.  Row operations act on the matrix alone, as U is not
    kept.
    """
    M = [[int(e) for e in row] for row in matrix]
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise ValueError("ragged matrix")
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(a, b):
        for row in itertools.chain(M, V):
            row[a], row[b] = row[b], row[a]

    def row_addmul(dst, src, c):
        M[dst] = [x + c * y for x, y in zip(M[dst], M[src])]

    def col_addmul(dst, src, c):
        for row in itertools.chain(M, V):
            if row[src]:
                row[dst] += c * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = M[i][j]
                if e and (best is None or abs(e) < abs(M[best[0]][best[1]])):
                    best = (i, j)
                    if abs(e) == 1:
                        return best
        return best

    t = 0
    while True:
        pos = find_pivot(t)
        if pos is None:
            break
        M[t], M[pos[0]] = M[pos[0]], M[t]
        swap_cols(t, pos[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if M[i][t] == 0:
                    continue
                row_addmul(i, t, -(M[i][t] // M[t][t]))
                if M[i][t]:
                    M[t], M[i] = M[i], M[t]  # remainder is strictly smaller; new pivot
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
        # enforce the divisibility chain: fold a non-divisible row into row t
        pivot = M[t][t]
        offender = None
        if abs(pivot) != 1:
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if M[i][j] % pivot),
                None,
            )
        if offender is not None:
            row_addmul(t, offender, 1)
            continue
        if pivot < 0:
            M[t] = [-e for e in M[t]]
        t += 1

    return SmithDecomposition(diag=tuple(M[i][i] for i in range(t)), V=tuple(map(tuple, V)))


class UnitPivotElimination:
    """The row span of a matrix over Z_D: its sparse elimination on unit pivots.

    Rows are held as {column: entry} dicts, nonzero entries only.  A pivot
    is an entry e with gcd(e, D) = 1, in the first remaining row that has
    one, on that row's sparsest column; row operations mod D clear its
    column from every other row.  Each pivot is recorded, in order, as
    (column, e^-1 mod D, the pivot row's other entries as (column, entry)
    pairs at pivot time), and the pivot row is dropped.  A pivot row is
    zero on every earlier pivot column and the rows left over are zero on
    all of them, so the span is the direct sum of the pivot rows' span,
    which has D^pivots elements, and the leftover rows' span.  The leftover
    rows have no unit entry; densified on the columns they use
    (`block_columns`), they form the block L whose integer SNF,
    U L V = diag(d_i), gives the rest: D / gcd(d_i, D) elements per
    column, with d_i = 0 past the rank.  A residual r on the block's
    columns lies in the row span of L mod D iff (r V)_i is a multiple of
    gcd(d_i, D) for every i, and L y = 0 mod D iff y = V w with
    d_i w_i = 0 mod D.  No factorization of D is needed and all arithmetic
    is on Python ints.

    The elimination answers for the span: its `cardinality`, membership
    (`contains`) and the generators of its orthogonal complement
    (`complement`).  The last two read the free columns and the block's
    checks, which are built on first use, as is the complement.
    """

    def __init__(self, matrix: ZModMatrix):
        """Eliminates the matrix's stored rows, as they are."""
        D = self.modulus = matrix.modulus
        self.ncols = matrix.ncols
        live = {i: row for i, row in enumerate(matrix.sparse_rows()) if row}
        cols: dict[int, set[int]] = {}  # column -> live rows with a nonzero entry there
        for i, row in live.items():
            for j in row:
                cols.setdefault(j, set()).add(i)
        is_unit: dict[int, bool] = {}  # gcd(e, D) == 1, per distinct entry
        self.pivots: list[tuple[int, int, list[tuple[int, int]]]] = []
        i = 0
        end = max(live, default=-1) + 1
        while i < end:
            row = live.get(i)
            c = None  # the first unit column with the fewest live rows
            for j, e in row.items() if row else ():
                unit = is_unit.get(e)
                if unit is None:
                    unit = is_unit[e] = gcd(e, D) == 1
                if unit and (c is None or len(cols[j]) < fewest):
                    c, fewest = j, len(cols[j])
            if c is None:
                i += 1
                continue
            inv = pow(row[c], -1, D)
            del live[i]
            for j in row:
                cols[j].discard(i)
            rest = [(j, e) for j, e in row.items() if j != c]
            self.pivots.append((c, inv, rest))
            touched = cols.pop(c)
            following = i + 1
            for r in touched:
                if r < following:
                    following = r
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
            i = following  # a row skipped for having no unit may have gained one
        self.block_columns = tuple(sorted({j for row in live.values() for j in row}))
        self.factors = []  # (gcd(d_i, D), column i of V) of the block's SNF, d_i = 0 past the rank
        if live:
            block = [[row.get(j, 0) for j in self.block_columns] for row in live.values()]
            dec = smith_normal_form(block)
            diag = dec.diag + (0,) * (len(self.block_columns) - dec.rank)
            self.factors = [(gcd(d, D), v) for d, v in zip(diag, zip(*dec.V))]
        self.cardinality = D ** len(self.pivots) * prod(D // m for m, _ in self.factors)

    @cached_property
    def _unpivoted(self) -> tuple[list[int], list[tuple[int, list[tuple[int, int]]]]]:
        """(free columns, block checks): the conditions the pivots leave on a residual.

        The free columns are neither a pivot's nor the block's.  A block
        check is (gcd(d_i, D), column i of V as (column, entry) pairs), for
        each d_i with gcd(d_i, D) > 1; the others constrain nothing.
        """
        bound = {c for c, _, _ in self.pivots}.union(self.block_columns)
        free = [j for j in range(self.ncols) if j not in bound]
        return free, [(m, list(zip(self.block_columns, v))) for m, v in self.factors if m > 1]

    def contains(self, x: Sequence[int]) -> bool:
        """True iff x, a vector of any integers, lies in the row span mod D.

        x is reduced by the pivot rows in pivot order, each clearing its
        own column (which is then left as it is); later pivot rows are zero
        there.  The residual r is the part of x that the leftover rows must
        span: it must vanish mod D on every free column and on the block's
        columns pass the SNF checks (r V)_i = 0 mod gcd(d_i, D).
        """
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        D = self.modulus
        r = [int(e) % D for e in x]
        for c, inv, rest in self.pivots:
            f = r[c] * inv % D
            if f:
                for j, a in rest:
                    r[j] -= f * a
        free, checks = self._unpivoted
        if any(r[j] % D for j in free):
            return False
        return all(sum(r[j] * v for j, v in check) % m == 0 for m, check in checks)

    @cached_property
    def complement(self) -> ZModMatrix:
        """Generators of {x : x . y = 0 mod D for all y in the span}, as matrix rows.

        x is orthogonal to the span iff L x = 0 for the leftover block L
        and P x = 0 for each pivot row P.  The first fixes x on the block's
        columns to the kernel of L, x = V w with w_i in (D / gcd(d_i, D)) Z_D
        (free past the rank); a free column is free.  P x = 0 then
        fixes x on P's pivot column, from entries on later pivot columns and
        non-pivot columns only, so one back-substitution through the pivots
        in reverse order lifts each generator: a kernel generator of the
        block, or a unit vector on a free column.  The lift runs column by
        column, so its cost follows the entries it fills in, not generators
        times pivots.
        """
        D = self.modulus
        free, checks = self._unpivoted
        gens = [{j: D // m * e % D for j, e in check} for m, check in checks]
        gens += [{j: 1} for j in free]
        columns: dict[int, dict[int, int]] = {}  # column -> {generator: entry}
        for g, gen in enumerate(gens):
            for j, e in gen.items():
                columns.setdefault(j, {})[g] = e
        for c, inv, rest in reversed(self.pivots):
            column = columns[c] = {}
            for j, a in rest:
                for g, e in columns.get(j, {}).items():
                    column[g] = (column.get(g, 0) - inv * a * e) % D
        triples = [(g, j, e) for j, column in columns.items() for g, e in column.items()]
        rows, cols, values = zip(*triples) if triples else ((), (), ())
        return ZModMatrix.from_coo(len(gens), self.ncols, D, rows, cols, values)


def span_cardinality(matrix: ZModMatrix) -> int:
    """Number of elements of the row span mod D.

    The span is the image of y -> y A, so it has D^rows / |left kernel|
    elements when the matrix has a check graph; otherwise the elimination
    counts it.
    """
    graph = matrix.check_graph
    if graph is None:
        return matrix.elimination.cardinality
    return matrix.modulus**matrix.nrows // graph.left_kernel_size


def kernel_cardinality(matrix: ZModMatrix) -> int:
    """Size of {x in Z_D^n : A x = 0 mod D}: D^n over the size of the image.

    The image A Z_D^n has as many elements as the row span of A.
    """
    return matrix.modulus**matrix.ncols // span_cardinality(matrix)


def contains(matrix: ZModMatrix, x: Sequence[int]) -> bool:
    """True iff x is a Z_D-combination of the matrix's rows."""
    return matrix.elimination.contains(x)


def orthogonal_complement(matrix: ZModMatrix) -> ZModMatrix:
    """Generators of the orthogonal complement of the row span, as the rows of a matrix."""
    return matrix.elimination.complement

