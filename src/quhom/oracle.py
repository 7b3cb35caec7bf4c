"""Brute-force verification at tiny scale: the slow, trusted path.

Operators realize X as the cyclic shift and Z as the diagonal of D-th
roots of unity, densely for single Pauli products and one X class at a
time for the group projector; qudit 1 is the slowest-varying tensor index,
matching position 1 (leftmost factor) of the symplectic representation.
Everything here is deliberately independent of the exact-arithmetic
production path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ScalarViolation
from .pauli import (
    PauliProduct,
    StabilizerSpec,
    additive_closure,
    code_dimension,
    enumerate_group,
)
from .zmod import ZModMatrix, orthogonal_complement, span_cardinality

DENSE_DIMENSION_CAP = 4096
EXHAUSTIVE_CAP = 10**6
INT64_BOUND = 2**63  # residues and base-D codes are int64 here, so D must stay below it
RESIDUAL_TOL = 1e-9
CELL_CAP = 1 << 14  # entries in one block of projector values; bounds memory
TABLE_CAP = 1 << 20  # entries of the projector's z . c table (8 MB as int64)


def _checked_dimension(modulus: int, n: int, cap: int) -> int:
    dim = modulus**n
    if dim > cap:
        raise BudgetExceeded(f"dimension {dim} exceeds cap {cap}")
    if modulus >= INT64_BOUND:
        raise BudgetExceeded(f"modulus {modulus} does not fit in int64")
    return dim


def _place_values(modulus: int, n: int) -> np.ndarray:
    """D^(n-1), ..., D, 1: base-D codes of digit rows, qudit 1 the most significant."""
    return np.array([modulus**q for q in range(n - 1, -1, -1)], dtype=np.int64)


@functools.lru_cache(maxsize=1)
def _digit_table(modulus: int, n: int) -> np.ndarray:
    """(D^n, n) read-only array of basis-state digits, qudit 0 slowest-varying.

    Built once for the (D, n) of a command and shared by its projector,
    checks, logical action and complement counts.
    """
    idx = np.arange(modulus**n)
    table = np.empty((modulus**n, max(n, 1)), dtype=np.int64)
    for q in range(n - 1, -1, -1):
        table[:, q] = idx % modulus
        idx = idx // modulus
    table.setflags(write=False)
    return table[:, :n]


def _roots_of_unity(modulus: int, dim: int) -> np.ndarray:
    """w^k for k below min(D, D^n); indexing it by exponents mod D gives the phases.

    With no qudits (D^n = 1) every exponent is 0, so one entry does, however large D is.
    """
    return np.exp(2j * np.pi * np.arange(min(modulus, dim)) / modulus)


def _pauli_action(pauli: PauliProduct, digits: np.ndarray):
    """Rows hit and phases picked up on each basis column by w^l X^x Z^z."""
    D = pauli.modulus
    n = pauli.num_qudits
    x = np.array(pauli.x, dtype=np.int64)
    z = np.array(pauli.z, dtype=np.int64)
    rows = ((digits + x) % D) @ _place_values(D, n)
    phases = (pauli.phase + digits @ z) % D
    return rows, _roots_of_unity(D, len(digits))[phases]


def dense_pauli(pauli: PauliProduct, cap: int = DENSE_DIMENSION_CAP) -> np.ndarray:
    """Dense matrix of w^l X^x Z^z on D^n dimensions."""
    dim = _checked_dimension(pauli.modulus, pauli.num_qudits, cap)
    digits = _digit_table(pauli.modulus, pauli.num_qudits)
    rows, values = _pauli_action(pauli, digits)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, np.arange(dim)] = values
    return mat


@dataclass(frozen=True)
class ClassProjector:
    """P stored as its X classes, each one entry per basis column.

    Class i gathers the group elements whose X part has the base-D code
    codes[i], qudit 1 the most significant digit as in basis indices.  Its
    entry in column c lies in row rows[i, c], the basis state c shifted by
    that X part, and has the value values[i, c].  Codes are distinct and
    ascending; values keep exact zeros.
    """

    codes: np.ndarray  # (classes,) int64
    rows: np.ndarray  # (classes, D^n) int64
    values: np.ndarray  # (classes, D^n) complex128


def dense_projector(
    spec: StabilizerSpec, cap: int = DENSE_DIMENSION_CAP, enumeration=None
) -> ClassProjector:
    """P = (1/|S|) sum of the group elements, one X class at a time.

    Every element is monomial, one entry per column in the row its X part
    shifts to, so the elements of one X class add up entrywise.  The
    elements are ordered by X part, and within a class in sorted
    (phase, x, z) order.  An element's phase in column c is
    phase + z . c mod D: z . c mod D is one table row per distinct z part,
    shared by every element with that z part, and a member's values are a
    lookup of phase + z . c, below 2D, into the roots of unity.  Members
    are summed in order in blocks of at most CELL_CAP entries.  When the
    table would pass TABLE_CAP entries, each block computes its own rows.
    `enumeration` is the output of enumerate_group(spec), when already built.
    """
    D = spec.modulus
    n = spec.n
    dim = _checked_dimension(D, n, cap)
    enum = enumerate_group(spec) if enumeration is None else enumeration
    digits = _digit_table(D, n)
    weights = _place_values(D, n)
    elements = enum.rows.astype(np.int64)  # entries < D <= cap; the identity alone if n = 0
    shifts = elements[:, 1 : n + 1] @ weights  # codes: the digit table's row of each part
    z_codes = elements[:, n + 1 :] @ weights
    order = np.lexsort((z_codes, elements[:, 0], shifts))
    shifts, z_codes, phases = shifts[order], z_codes[order], elements[order, :1]
    bounds = [0, *(np.flatnonzero(np.diff(shifts)) + 1).tolist(), len(order)]  # the classes
    z_slots = _slots(dim, z_codes)
    distinct = np.flatnonzero(z_slots >= 0)
    table = None
    if len(distinct) * dim <= TABLE_CAP:
        table, z_rows = (digits[distinct] @ digits.T) % D, z_slots[z_codes]
    roots = _roots_of_unity(D, dim)
    roots = np.concatenate((roots, roots))  # w^k for k below 2D
    step = max(1, CELL_CAP // dim)
    codes = shifts[bounds[:-1]]
    rows = np.empty((len(codes), dim), dtype=np.int64)
    values = np.empty((len(codes), dim), dtype=np.complex128)
    for i, (first, end) in enumerate(zip(bounds, bounds[1:])):
        rows[i] = ((digits + digits[codes[i]]) % D) @ weights
        total = None
        for lo in range(first, end, step):
            hi = min(lo + step, end)
            if table is None:
                block = (digits[z_codes[lo:hi]] @ digits.T) % D
            else:
                block = table[z_rows[lo:hi]]
            block = roots[phases[lo:hi] + block]
            if total is not None:
                block = np.concatenate((total[None], block))
            total = block.sum(axis=0)
        values[i] = total / enum.size
    return ClassProjector(codes, rows, values)


def _slots(dim: int, *codes: np.ndarray) -> np.ndarray:
    """Code -> rank among the distinct given codes, -1 for a code not given.

    On the codes of a ClassProjector alone, the rank is the class index.
    """
    seen = np.zeros(dim, dtype=bool)
    for given in codes:
        seen[given] = True
    return np.where(seen, np.cumsum(seen) - 1, -1)


def _trace(proj: ClassProjector, slots: np.ndarray) -> complex:
    """tr P: only the class of X part 0 has entries on the diagonal."""
    return complex(proj.values[slots[0]].sum()) if slots[0] >= 0 else 0j


def projector_checks(
    spec: StabilizerSpec, cap: int = DENSE_DIMENSION_CAP, projector=None
) -> dict:
    """Residuals for P = P-dagger = P-squared and the trace-vs-K identity.

    Each residual is the largest entrywise difference.  An entry whose class
    is missing from the other side counts in full, so nothing assumes that
    the classes of P are closed under negation or sums.
    `residual` is the largest of the three, and `ok` the verdict: it is
    under RESIDUAL_TOL and the rounded trace is K.
    `projector` is the output of dense_projector(spec), when already built.
    """
    proj = dense_projector(spec, cap) if projector is None else projector
    D, n = spec.modulus, spec.n
    codes, rows, values = proj.codes, proj.rows, proj.values
    dim = rows.shape[1]
    slots = _slots(dim, codes)
    # P-dagger[r, c] = conj(P[c, r]): class x of P meets class -x read at its rows
    partners = slots[(-_digit_table(D, n)[codes] % D) @ _place_values(D, n)]
    herm_residual = 0.0
    for i, partner in enumerate(partners):
        diff = values[i] if partner < 0 else np.conj(np.take(values[partner], rows[i])) - values[i]
        herm_residual = max(herm_residual, float(np.abs(diff).max()))
    # P_i P_j is the class x_i + x_j, whose code is the column x_j shifted by
    # x_i; its entry in column c is values[i] read at the row class j sends c to.
    # Column blocks of at most CELL_CAP products reuse one buffer.
    sums = rows[:, codes]
    square_slots = _slots(dim, codes, sums)
    square = np.zeros((square_slots.max() + 1, dim), dtype=np.complex128)
    step = min(dim, max(1, CELL_CAP // len(codes)))
    buffer = np.empty((len(codes), step), dtype=np.complex128)
    for lo in range(0, dim, step):
        block_rows = rows[:, lo : lo + step]
        products = buffer[:, : block_rows.shape[1]]
        for i, targets in enumerate(square_slots[sums]):
            np.take(values[i], block_rows, out=products)
            products *= values[:, lo : lo + step]
            square[targets, lo : lo + step] += products
    square[square_slots[codes]] -= values
    idem_residual = float(np.abs(square).max())
    trace = _trace(proj, slots)
    trace_residual = abs(trace - round(trace.real))
    try:
        expected = code_dimension(spec)
    except ScalarViolation:
        expected = 0
    residual = max(herm_residual, idem_residual, float(trace_residual))
    rounded = int(round(trace.real))
    return {
        "hermitian_residual": herm_residual,
        "idempotent_residual": idem_residual,
        "trace": trace,
        "trace_residual": float(trace_residual),
        "rounded_trace": rounded,
        "expected_dimension": expected,
        "residual": residual,
        "ok": residual < RESIDUAL_TOL and rounded == expected,
    }


def verify_logical_action(
    pauli: PauliProduct, spec: StabilizerSpec, cap: int = DENSE_DIMENSION_CAP, projector=None
) -> bool:
    """True iff the operator restricted to the code space is not a scalar.

    Requires a normalizer element (is_logical holds for it).  With P = B B^dagger
    for an orthonormal basis B of the code space, R B = B M with M the
    restriction, so R P - c P = B (M - c I) B^dagger has the Frobenius norm of
    M - c I.  The candidate scalar is c = tr(M)/K = tr(R P)/tr(P), and M is a
    scalar iff R P = c P, which needs no basis of the range.
    `projector` is the output of dense_projector(spec), when already built.
    """
    proj = dense_projector(spec, cap) if projector is None else projector
    slots = _slots(proj.rows.shape[1], proj.codes)
    trace = _trace(proj, slots).real
    if round(trace) == 0:
        return False
    op_rows, phases = _pauli_action(pauli, _digit_table(pauli.modulus, pauli.num_qudits))
    # R P: class x of P moves to class x + x_R, each entry times R's phase on its row
    applied = phases[proj.rows] * proj.values
    shifted = op_rows[proj.codes]
    scale = applied[shifted == 0].sum() / trace  # tr(R P): its class of X part 0, if any
    targets = slots[shifted]
    hit = targets >= 0
    applied[hit] -= scale * proj.values[targets[hit]]
    unmatched = np.delete(proj.values, targets[hit], axis=0)  # classes of P that R P misses
    residual = np.hypot(np.linalg.norm(applied), abs(scale) * np.linalg.norm(unmatched))
    return bool(residual > RESIDUAL_TOL)


def span_elements(matrix: ZModMatrix) -> set:
    """Every element of the row span, as the additive closure of the rows."""
    D, n = matrix.modulus, matrix.ncols
    if D**n > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"span ambient space {D}^{n} exceeds cap {EXHAUSTIVE_CAP}")
    return set(map(tuple, additive_closure(matrix.array(np.int64), D, EXHAUSTIVE_CAP).tolist()))


def complement_duality_checks(matrix: ZModMatrix) -> dict:
    """Exhaustive complement count and the character-sum dichotomy.

    E is the row span of the matrix.  For every eta in Z_D^n the sum of
    w^(eta.x) over x in E is |E| when eta is orthogonal to the whole span
    and zero otherwise.  `ok` is the verdict: the two complement counts
    agree, |E| |E-perp| = D^n, and the character sums are within
    RESIDUAL_TOL.
    """
    D = matrix.modulus
    n = matrix.ncols
    dim = _checked_dimension(D, n, EXHAUSTIVE_CAP)
    members = sorted(span_elements(matrix))
    size = len(members)
    elements = np.array(members, dtype=np.int64).reshape(size, n)
    etas = _digit_table(D, n)
    roots = _roots_of_unity(D, dim)
    char_sums = np.empty(dim, dtype=np.complex128)
    perp_mask = np.empty(dim, dtype=bool)
    step = max(1, CELL_CAP // size)  # etas per block of at most CELL_CAP dot products
    for lo in range(0, dim, step):
        dots = (etas[lo : lo + step] @ elements.T) % D
        char_sums[lo : lo + step] = roots[dots].sum(axis=1)
        perp_mask[lo : lo + step] = (dots == 0).all(axis=1)
    exhaustive_perp = int(perp_mask.sum())
    char_residual = float(
        max(
            np.abs(char_sums[perp_mask] - size).max() if perp_mask.any() else 0.0,
            np.abs(char_sums[~perp_mask]).max() if (~perp_mask).any() else 0.0,
        )
    )
    complement_size = span_cardinality(orthogonal_complement(matrix))
    return {
        "span_size": size,
        "exhaustive_perp_size": exhaustive_perp,
        "complement_cardinality": complement_size,
        "product": size * exhaustive_perp,
        "full_space": dim,
        "char_residual": char_residual,
        "ok": exhaustive_perp == complement_size
        and size * exhaustive_perp == dim
        and char_residual < RESIDUAL_TOL,
    }
