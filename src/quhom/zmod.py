"""Exact linear algebra over Z_D for arbitrary integer D >= 2.

Z_D is not a PID when D is composite.  Each span is eliminated once, on
unit pivots mod D, which needs no factorization of D
(`UnitPivotElimination`).  Its cardinality, membership and orthogonal
complement all read that elimination: membership reduces a vector by the
pivot rows, and a complement's generators are lifted through them by
back-substitution.  The integer Smith normal form, exact over Python
ints, runs only on the block of rows left with no unit entry, once per
span; torus grids leave no such block.  Matrices are compressed sparse
rows in numpy arrays, and their products, transposes and row reads cost
O(nnz); dense rows are built only on demand.  Values are treated as
immutable; all operations are pure functions.
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


def _checked_dense(rows: Sequence[Sequence[int]], ncols: int, modulus: int, length_error: str,
                   range_error: str) -> np.ndarray:
    """Dense rows of length ncols, checked to lie in [0, D), as one array."""
    if set(map(len, rows)) - {ncols}:
        raise ValueError(length_error)
    dense = _int_array(rows, (len(rows), ncols))
    if dense.size and (dense.min() < 0 or dense.max() >= modulus):
        raise ValueError(range_error)
    return dense


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
    checked or reduced once, when the matrix is built; every operation
    below reads the arrays in O(nnz), apart from the dense views `entries`
    and `array`.  Matrices are never changed after they are built; the
    transpose, the row span (`row_span`) and the unit-pivot elimination of
    the rows are built once and kept.
    """

    def __init__(self, nrows: int, ncols: int, modulus: int, entries: IntRows):
        """From dense rows, each of length ncols with entries already in [0, D)."""
        _check_modulus(modulus)
        if len(entries) != nrows:
            raise ValueError("row count mismatch")
        dense = _checked_dense(
            entries, ncols, modulus, "column count mismatch", "entries must be reduced to [0, D)"
        )
        self._set(*_csr_of_dense(dense, modulus))

    def _set(self, nrows, ncols, modulus, indptr, indices, data):
        self.nrows, self.ncols, self.modulus = nrows, ncols, modulus
        self.indptr, self.indices, self.data = indptr, indices, data
        self._transpose = None
        self._span = None

    @classmethod
    def _csr(cls, nrows, ncols, modulus, indptr, indices, data) -> ZModMatrix:
        matrix = cls.__new__(cls)
        matrix._set(nrows, ncols, modulus, indptr, indices, data)
        return matrix

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
        return cls._csr(*_csr_of_dense(dense % modulus, modulus))

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
        return cls._csr(nrows, ncols, modulus, _indptr(rows, nrows), keys - rows * ncols,
                        sums[kept].astype(dtype, copy=False))

    @classmethod
    def zero(cls, nrows: int, ncols: int, modulus: int) -> ZModMatrix:
        return cls.from_coo(nrows, ncols, modulus, (), (), ())

    @classmethod
    def identity(cls, n: int, modulus: int) -> ZModMatrix:
        return cls.from_coo(n, n, modulus, range(n), range(n), [1] * n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZModMatrix):
            return NotImplemented
        return (
            (self.nrows, self.ncols, self.modulus) == (other.nrows, other.ncols, other.modulus)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.modulus, self.indptr.tobytes(),
                     self.indices.tobytes(), tuple(self.data.tolist())))

    def __repr__(self) -> str:
        return (f"ZModMatrix(nrows={self.nrows}, ncols={self.ncols}, modulus={self.modulus}, "
                f"nnz={len(self.data)})")

    @cached_property
    def _row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.arange(self.nrows).repeat(self.indptr[1:] - self.indptr[:-1])

    @cached_property
    def elimination(self) -> UnitPivotElimination:
        """Unit-pivot elimination of the rows mod D."""
        return UnitPivotElimination(self, self.modulus)

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

    def row(self, i: int) -> Vector:
        out = [0] * self.ncols
        a, b = self.indptr[i], self.indptr[i + 1]
        for j, v in zip(self.indices[a:b].tolist(), self.data[a:b].tolist()):
            out[j] = v
        return tuple(out)

    def column(self, j: int) -> Vector:
        out = [0] * self.nrows
        hits = self.indices == j
        for i, v in zip(self._row_ids[hits].tolist(), self.data[hits].tolist()):
            out[i] = v
        return tuple(out)

    def row_weights(self) -> list[int]:
        """Number of nonzero entries in each row."""
        return (self.indptr[1:] - self.indptr[:-1]).tolist()

    def row_sums(self) -> np.ndarray:
        """Each row's sum mod D."""
        dtype = product_dtype(len(self.data), self.modulus)
        totals = np.zeros(len(self.data) + 1, dtype=dtype)
        totals[1:] = self.data.astype(dtype).cumsum()
        return (totals[self.indptr[1:]] - totals[self.indptr[:-1]]) % self.modulus

    def transpose(self) -> ZModMatrix:
        """The transpose; built once, and its own transpose is this matrix."""
        if self._transpose is None:
            order = self.indices.argsort(kind="stable")
            self._transpose = ZModMatrix._csr(
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
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        D = self.modulus
        return tuple(sum(e * x[j] for j, e in row.items()) % D for row in self.sparse_rows())

    def is_zero(self) -> bool:
        return not len(self.data)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = diag(d_1..d_r, 0..) with U, V unimodular over the integers.

    ``diag`` lists only the nonzero invariant factors; consecutive entries
    satisfy d_i | d_{i+1} and all are positive.
    """

    U: IntRows
    diag: tuple[int, ...]
    V: IntRows

    @property
    def rank(self) -> int:
        return len(self.diag)


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form of an integer matrix, exactly.

    Pivot choice is the smallest nonzero absolute value in the trailing
    block (the first in row-major order on ties), which bounds entry growth;
    arithmetic is plain Python int so intermediate values may exceed
    machine words without error.  A unit pivot ends the pivot scan, as no
    entry is smaller, and divides everything, so the divisibility check is
    skipped for it.
    """
    M = [[int(e) for e in row] for row in matrix]
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise ValueError("ragged matrix")
    U = _eye(m)
    V = _eye(n)

    def swap_rows(a, b):
        M[a], M[b] = M[b], M[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def row_addmul(dst, src, c):
        M[dst] = [x + c * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

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
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if M[i][t] == 0:
                    continue
                row_addmul(i, t, -(M[i][t] // M[t][t]))
                if M[i][t]:
                    swap_rows(t, i)  # remainder is strictly smaller; new pivot
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
            U[t] = [-e for e in U[t]]
        t += 1

    diag = tuple(M[i][i] for i in range(t))
    return SmithDecomposition(
        U=tuple(tuple(row) for row in U),
        diag=diag,
        V=tuple(tuple(row) for row in V),
    )


class UnitPivotElimination:
    """Sparse elimination mod D on unit pivots, with what it leaves to the SNF.

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
    """

    def __init__(self, rows: ZModMatrix | Iterable[Sequence[int]], modulus: int):
        """`rows` is a matrix, whose stored rows are used as they are, or dense rows in [0, D)."""
        D = self.modulus = modulus
        if isinstance(rows, ZModMatrix):
            rows = rows.sparse_rows()
        else:
            rows = [{j: row[j] for j in itertools.compress(range(len(row)), row)} for row in rows]
        live = {i: row for i, row in enumerate(rows) if row}
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

    def free_columns(self, ncols: int) -> list[int]:
        """The columns below ncols that are neither a pivot's nor the block's."""
        bound = {c for c, _, _ in self.pivots}.union(self.block_columns)
        return [j for j in range(ncols) if j not in bound]


def unit_pivot_cardinality(rows: ZModMatrix | Iterable[Sequence[int]], modulus: int) -> int:
    """Number of elements of the row span mod D, by sparse unit-pivot elimination.

    `rows` is a matrix, whose stored rows are used as they are, or dense
    rows with entries reduced to [0, D); see `UnitPivotElimination`.  A
    matrix over Z_D keeps its elimination for membership and complements.
    """
    if isinstance(rows, ZModMatrix) and rows.modulus == modulus:
        return rows.elimination.cardinality
    return UnitPivotElimination(rows, modulus).cardinality


class SubmoduleSpan:
    """Submodule of Z_D^n generated by the rows of a matrix over Z_D.

    Its cardinality, membership solver and orthogonal complement are each
    built once, on first use, and kept; all three read the unit-pivot
    elimination its matrix keeps.
    """

    def __init__(self, ambient: int, modulus: int, generators: IntRows):
        """From dense generators, each of length `ambient` with entries in [0, D)."""
        _check_modulus(modulus)
        dense = _checked_dense(
            generators, ambient, modulus, "generator length mismatch",
            "generators must be reduced to [0, D)",
        )
        self.matrix = ZModMatrix._csr(*_csr_of_dense(dense, modulus))

    @classmethod
    def of(cls, matrix: ZModMatrix) -> SubmoduleSpan:
        """The row span of a matrix, whose entries are already checked."""
        span = cls.__new__(cls)
        span.matrix = matrix
        return span

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ambient: int, modulus: int) -> SubmoduleSpan:
        return cls.of(ZModMatrix.from_rows(rows, ambient, modulus))

    @property
    def ambient(self) -> int:
        return self.matrix.ncols

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    @property
    def generators(self) -> IntRows:
        """The generators as dense rows (the matrix's dense view)."""
        return self.matrix.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubmoduleSpan):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"SubmoduleSpan({self.matrix!r})"

    @cached_property
    def cardinality(self) -> int:
        return unit_pivot_cardinality(self.matrix, self.modulus)

    @cached_property
    def membership(self) -> SpanMembership:
        return SpanMembership(self)

    @cached_property
    def complement(self) -> SubmoduleSpan:
        return orthogonal_complement(self)


class SpanMembership:
    """Decides membership in a span by reduction against its unit pivots.

    x is reduced by the pivot rows of the span's elimination in pivot
    order, each clearing its own column (which is then left as it is);
    later pivot rows are zero there.  The residual r is the part of x that
    the leftover rows must span: it must vanish mod D on every column that
    is neither a pivot nor the block's, and on the block's columns pass
    the SNF conditions (r V)_i = 0 mod gcd(d_i, D).
    """

    def __init__(self, span: SubmoduleSpan):
        self.span = span
        elimination = span.matrix.elimination
        self._pivots = elimination.pivots
        self._free = elimination.free_columns(span.ambient)
        self._checks = [(m, list(zip(elimination.block_columns, v)))
                        for m, v in elimination.factors if m > 1]

    def contains(self, x: Sequence[int]) -> bool:
        if len(x) != self.span.ambient:
            raise ValueError("vector length mismatch")
        D = self.span.modulus
        r = list(x)
        for c, inv, rest in self._pivots:
            f = r[c] * inv % D
            if f:
                for j, a in rest:
                    r[j] -= f * a
        if any(r[j] % D for j in self._free):
            return False
        return all(sum(r[j] * v for j, v in check) % m == 0 for m, check in self._checks)


def span_cardinality(span: SubmoduleSpan) -> int:
    """Number of elements of the submodule generated by the span's rows."""
    return span.cardinality


def kernel_cardinality(matrix: ZModMatrix) -> int:
    """Size of {x in Z_D^n : A x = 0 mod D}: D^n over the size of the image.

    The image A Z_D^n has as many elements as the row span of A.
    """
    return matrix.modulus**matrix.ncols // row_span(matrix).cardinality


def orthogonal_complement(span: SubmoduleSpan) -> SubmoduleSpan:
    """Generators of {x : x . y = 0 mod D for all y in the span}; `span.complement` keeps them.

    With the span's elimination, x is orthogonal to the span iff L x = 0
    for the leftover block L and P x = 0 for each pivot row P.  The first
    fixes x on the block's columns to the kernel of L, x = V w with
    w_i in (D / gcd(d_i, D)) Z_D (free past the rank); every column that
    is neither a pivot nor the block's is free.  P x = 0 then fixes x on
    P's pivot column, from entries on later pivot columns and non-pivot
    columns only, so one back-substitution through the pivots in reverse
    order lifts each generator: a kernel generator of the block, or a unit
    vector on a free column.  The lift runs column by column, so its cost
    follows the entries it fills in, not generators times pivots.
    """
    D = span.modulus
    n = span.ambient
    elimination = span.matrix.elimination
    gens = [{j: D // m * e % D for j, e in zip(elimination.block_columns, v)}
            for m, v in elimination.factors if m > 1]
    gens += [{j: 1} for j in elimination.free_columns(n)]
    columns: dict[int, dict[int, int]] = {}  # column -> {generator: entry}
    for g, gen in enumerate(gens):
        for j, e in gen.items():
            columns.setdefault(j, {})[g] = e
    for c, inv, rest in reversed(elimination.pivots):
        column = columns[c] = {}
        for j, a in rest:
            for g, e in columns.get(j, {}).items():
                column[g] = (column.get(g, 0) - inv * a * e) % D
    triples = [(g, j, e) for j, column in columns.items() for g, e in column.items()]
    rows, cols, values = zip(*triples) if triples else ((), (), ())
    return SubmoduleSpan.of(ZModMatrix.from_coo(len(gens), n, D, rows, cols, values))


def contains(span: SubmoduleSpan, x: Sequence[int]) -> bool:
    """True iff x is a Z_D-combination of the span's generators."""
    return span.membership.contains(tuple(int(e) % span.modulus for e in x))


def row_span(matrix: ZModMatrix) -> SubmoduleSpan:
    """The row span of a matrix; built once, so its cardinality and membership are too."""
    if matrix._span is None:
        matrix._span = SubmoduleSpan.of(matrix)
    return matrix._span


def column_span(matrix: ZModMatrix) -> SubmoduleSpan:
    return row_span(matrix.transpose())


def all_vectors(n: int, modulus: int) -> Iterable[Vector]:
    """Every vector of Z_D^n, in odometer order (for small exhaustive checks)."""
    return itertools.product(range(modulus), repeat=n)
