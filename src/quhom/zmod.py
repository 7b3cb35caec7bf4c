"""Exact linear algebra over Z_D for arbitrary integer D >= 2.

Z_D is not a PID when D is composite.  Cardinalities come from sparse
elimination mod D on unit pivots, which needs no factorization of D
(`unit_pivot_cardinality`).  Membership and orthogonal complements lift
to the integers: Smith normal form, with its U and V, is computed with
arbitrary-precision integer arithmetic and only the solve steps reduce
mod D.  Matrix products run in numpy (see `product_dtype`).  All values
are immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _reduced(rows: Iterable[Sequence[int]], modulus: int) -> IntRows:
    return tuple(tuple(int(e) % modulus for e in row) for row in rows)


def _reduced_to(rows: IntRows, ncols: int, modulus: int) -> bool:
    """True iff every entry of rows of length ncols lies in [0, D); min/max per row."""
    if not rows or not ncols:
        return True
    return min(map(min, rows)) >= 0 and max(map(max, rows)) < modulus


@dataclass(frozen=True)
class ZModMatrix:
    """Integer matrix with entries canonically reduced to [0, D)."""

    nrows: int
    ncols: int
    modulus: int
    entries: IntRows

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if len(self.entries) != self.nrows:
            raise ValueError("row count mismatch")
        if set(map(len, self.entries)) - {self.ncols}:
            raise ValueError("column count mismatch")
        if not _reduced_to(self.entries, self.ncols, self.modulus):
            raise ValueError("entries must be reduced to [0, D)")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ncols: int, modulus: int) -> ZModMatrix:
        entries = _reduced(rows, modulus)
        return cls(len(entries), ncols, modulus, entries)

    @classmethod
    def zero(cls, nrows: int, ncols: int, modulus: int) -> ZModMatrix:
        return cls(nrows, ncols, modulus, tuple((0,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int, modulus: int) -> ZModMatrix:
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(n, n, modulus, rows)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> ZModMatrix:
        cols = tuple(zip(*self.entries)) if self.entries else ()
        if not cols:
            cols = tuple(() for _ in range(self.ncols)) if self.ncols else ()
        return ZModMatrix(self.ncols, self.nrows, self.modulus, cols)

    def array(self, dtype) -> np.ndarray:
        return np.array(self.entries, dtype=dtype).reshape(self.nrows, self.ncols)

    def __matmul__(self, other: ZModMatrix) -> ZModMatrix:
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch for matrix product")
        D = self.modulus
        dtype = product_dtype(self.ncols, D)
        product = self.array(dtype) @ other.array(dtype) % D
        return ZModMatrix(self.nrows, other.ncols, D, tuple(map(tuple, product.tolist())))

    def matvec(self, x: Sequence[int]) -> Vector:
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        D = self.modulus
        return tuple(sum(a * b for a, b in zip(row, x)) % D for row in self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)


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


def unit_pivot_cardinality(rows: Iterable[Sequence[int]], modulus: int) -> int:
    """Number of elements of the row span mod D, by sparse unit-pivot elimination.

    The rows' entries must be reduced to [0, D); they are held as
    {column: entry} dicts, nonzero entries only.  A pivot is an entry e with gcd(e, D) = 1, in the first remaining row that
    has one, on that row's sparsest column; row operations mod D clear its
    column from every other row.  The pivot row then spans a copy of Z_D
    that meets the span of the others only in 0, so it adds a factor D and
    is dropped.  When no unit is left, the integer SNF diagonal of the
    remaining block gives the rest, prod D / gcd(d_i, D).  No factorization
    of D is needed and all arithmetic is on Python ints.
    """
    D = modulus
    live: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}  # column -> live rows with a nonzero entry there
    for i, row in enumerate(rows):
        entries = {j: row[j] for j in itertools.compress(range(len(row)), row)}
        if entries:
            live[i] = entries
            for j in entries:
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
        # a row skipped for having no unit may have gained one
        i = min(i + 1, min(touched, default=end))
    size = D**pivots
    if live:
        used = sorted({j for row in live.values() for j in row})
        block = [[row.get(j, 0) for j in used] for row in live.values()]
        size *= prod(D // gcd(d, D) for d in smith_normal_form(block).diag)
    return size


@dataclass(frozen=True)
class SubmoduleSpan:
    """Submodule of Z_D^n given by a generating set of row vectors."""

    ambient: int
    modulus: int
    generators: IntRows

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if set(map(len, self.generators)) - {self.ambient}:
            raise ValueError("generator length mismatch")
        if not _reduced_to(self.generators, self.ambient, self.modulus):
            raise ValueError("generators must be reduced to [0, D)")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ambient: int, modulus: int) -> SubmoduleSpan:
        return cls(ambient, modulus, _reduced(rows, modulus))

    @cached_property
    def cardinality(self) -> int:
        return unit_pivot_cardinality(self.generators, self.modulus)

    @cached_property
    def membership(self) -> SpanMembership:
        return SpanMembership(self)


class SpanMembership:
    """Precomputed SNF solver deciding membership in a span, exactly.

    x lies in the row span of G over Z_D iff G^T c = x has a solution mod D;
    with U (G^T) V = diag(d_i) that reduces to congruence conditions on U @ x.
    """

    def __init__(self, span: SubmoduleSpan):
        self.span = span
        gt = list(zip(*span.generators)) if span.generators else [() for _ in range(span.ambient)]
        dec = smith_normal_form(gt)
        self._U = dec.U
        self._moduli = []
        D = span.modulus
        for i in range(span.ambient):
            if i < dec.rank:
                self._moduli.append(gcd(dec.diag[i], D))
            else:
                self._moduli.append(D)

    def contains(self, x: Sequence[int]) -> bool:
        if len(x) != self.span.ambient:
            raise ValueError("vector length mismatch")
        for u_row, md in zip(self._U, self._moduli):
            w = sum(a * b for a, b in zip(u_row, x))
            if md == 1:
                continue
            if w % md:
                return False
        return True


def span_cardinality(span: SubmoduleSpan) -> int:
    """Number of elements of the submodule generated by the span's rows."""
    return span.cardinality


def kernel_cardinality(matrix: ZModMatrix) -> int:
    """Size of {x in Z_D^n : A x = 0 mod D}: D^n over the size of the image.

    The image A Z_D^n has as many elements as the row span of A.
    """
    D = matrix.modulus
    return D**matrix.ncols // unit_pivot_cardinality(matrix.entries, D)


@lru_cache(maxsize=4096)
def orthogonal_complement(span: SubmoduleSpan) -> SubmoduleSpan:
    """Generators of {x : x . y = 0 mod D for all y in the span}.

    Solves G x = 0 via the SNF of G: with U G V = diag(d_i), the solutions
    are x = V w where w_i ranges over (D/gcd(d_i, D)) Z_D on the diagonal
    part and is free beyond the rank.
    """
    D = span.modulus
    n = span.ambient
    if not span.generators:
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return SubmoduleSpan(n, D, eye)
    dec = smith_normal_form(span.generators)
    gens = []
    for i in range(n):
        col = tuple(dec.V[r][i] for r in range(n))
        if i < dec.rank:
            scale = D // gcd(dec.diag[i], D)
            if scale == D:
                continue  # the scaled column is zero mod D
            gen = tuple(scale * c % D for c in col)
        else:
            gen = tuple(c % D for c in col)
        if any(gen):
            gens.append(gen)
    return SubmoduleSpan(n, D, tuple(gens))


def contains(span: SubmoduleSpan, x: Sequence[int]) -> bool:
    """True iff x is a Z_D-combination of the span's generators."""
    return span.membership.contains(tuple(int(e) % span.modulus for e in x))


def row_span(matrix: ZModMatrix) -> SubmoduleSpan:
    return SubmoduleSpan(matrix.ncols, matrix.modulus, matrix.entries)


def column_span(matrix: ZModMatrix) -> SubmoduleSpan:
    return row_span(matrix.transpose())


def all_vectors(n: int, modulus: int) -> Iterable[Vector]:
    """Every vector of Z_D^n, in odometer order (for small exhaustive checks)."""
    return itertools.product(range(modulus), repeat=n)
