"""Brute-force verification at tiny scale: the slow, trusted path.

Operators realize X as the cyclic shift and Z as the diagonal of D-th
roots of unity, one entry per basis column: a single Pauli product as its
action, the group projector one X class at a time.  Qudit 1 is the
slowest-varying tensor index, matching position 1 (leftmost factor) of
the symplectic representation.
Everything here is deliberately independent of the exact-arithmetic
production path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ScalarViolation
from .pauli import GroupEnumeration, PauliProduct, StabilizerSpec, additive_closure, code_dimension
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
    spec: StabilizerSpec, enumeration: GroupEnumeration, cap: int = DENSE_DIMENSION_CAP
) -> ClassProjector:
    """P = (1/|S|) sum of the group elements, one X class at a time.

    Every element is monomial, one entry per column in the row its X part
    shifts to, so the elements of one X class add up entrywise.  The
    elements are ordered by X part, and within a class in sorted
    (phase, x, z) order.  An element's phase in column c is
    phase + z . c mod D, and z is a sum of face rows, so columns on which
    every face row has the same z . c mod D (one label, `_exponent_labels`)
    have the same entries.  Each class is summed once per label, in member
    order, in blocks of at most CELL_CAP entries: a member's values are a
    lookup of phase + z . c, below 2D, into the roots of unity, and
    z . c mod D is one table row per distinct z part, over one column of
    each label.  When that table would pass TABLE_CAP entries, each block
    computes its own rows.  The sums are then read out to every column.
    `enumeration` is the output of enumerate_group(spec).
    """
    D = spec.modulus
    n = spec.n
    dim = _checked_dimension(D, n, cap)
    digits = _digit_table(D, n)
    weights = _place_values(D, n)
    elements = enumeration.rows.astype(np.int64)  # entries < D <= cap; the identity alone if n = 0
    shifts = elements[:, 1 : n + 1] @ weights  # codes: the digit table's row of each part
    z_codes = elements[:, n + 1 :] @ weights
    order = np.lexsort((z_codes, elements[:, 0], shifts))
    shifts, z_codes, phases = shifts[order], z_codes[order], elements[order, :1]
    bounds = [0, *(np.flatnonzero(np.diff(shifts)) + 1).tolist(), len(order)]  # the classes
    labels, columns = _exponent_labels(spec, digits)
    columns = digits[columns]
    z_slots = _slots(dim, z_codes)
    distinct = np.flatnonzero(z_slots >= 0)
    table = None
    if len(distinct) * len(columns) <= TABLE_CAP:
        table, z_rows = (digits[distinct] @ columns.T) % D, z_slots[z_codes]
    roots = _roots_of_unity(D, dim)
    roots = np.concatenate((roots, roots))  # w^k for k below 2D
    step = max(1, CELL_CAP // len(columns))
    codes = shifts[bounds[:-1]]
    sums = np.empty((len(codes), len(columns)), dtype=np.complex128)
    for i, (first, end) in enumerate(zip(bounds, bounds[1:])):
        total = None
        for lo in range(first, end, step):
            hi = min(lo + step, end)
            if table is None:
                block = (digits[z_codes[lo:hi]] @ columns.T) % D
            else:
                block = table[z_rows[lo:hi]]
            block = roots[phases[lo:hi] + block]
            if total is not None:
                block = np.concatenate((total[None], block))
            total = block.sum(axis=0)  # down the members, one column at a time: in order
        sums[i] = total / enumeration.size
    return ClassProjector(codes, _shifted_indices(D, digits[codes]), np.take(sums, labels, axis=1))


def _exponent_labels(spec: StabilizerSpec, digits: np.ndarray):
    """Label of every basis column, and the first column of each label.

    Two columns share a label exactly when every face row z has the same
    z . c mod D on both, refined one face row at a time.
    """
    D = spec.modulus
    labels = np.zeros(len(digits), dtype=np.int64)
    for row in spec.face_matrix.array(np.int64):
        _, labels = np.unique(labels * D + (digits @ row) % D, return_inverse=True)
    _, columns = np.unique(labels, return_index=True)
    return labels, columns


def _shifted_indices(modulus: int, shifts: np.ndarray) -> np.ndarray:
    """(len(shifts), D^n) array: entry (i, c) is the basis index of c + shifts[i], mod D.

    Each row is the (D,)^n index tensor rolled back by shifts[i] along every
    axis, built one axis at a time from that axis's rolled index, for all
    shifts at once.
    """
    D = modulus
    count = len(shifts)
    rows = np.zeros((count, 1), dtype=np.int64)
    for shift in shifts.T:
        rolled = (np.arange(D) + shift[:, None]) % D  # np.roll(np.arange(D), -shift[i]) per row
        rows = (rows[:, :, None] * D + rolled[:, None, :]).reshape(count, -1)
    return rows


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


def projector_checks(spec: StabilizerSpec, proj: ClassProjector) -> dict:
    """Residuals for P = P-dagger = P-squared and the trace-vs-K identity.

    Each residual is the largest entrywise difference.  An entry whose class
    is missing from the other side counts in full, so nothing assumes that
    the classes of P are closed under negation or sums.  Every entry in
    column c is formed from the values of P in column c and in the columns
    its classes shift c to, so the entries are formed once per column
    signature (`_signature_columns`), on the first column that has it.
    `residual` is the largest of the three, and `ok` the verdict: it is
    under RESIDUAL_TOL and the rounded trace is K.  `proj` is
    dense_projector's output for the spec.
    """
    D, n = spec.modulus, spec.n
    codes, rows, values = proj.codes, proj.rows, proj.values
    dim = rows.shape[1]
    slots = _slots(dim, codes)
    columns = _signature_columns(rows, values)
    # P-dagger[r, c] = conj(P[c, r]): class x of P meets class -x read at its rows
    partners = slots[(-_digit_table(D, n)[codes] % D) @ _place_values(D, n)]
    herm_residual = 0.0
    for i, partner in enumerate(partners):
        diff = values[i, columns]
        if partner >= 0:
            diff = np.conj(np.take(values[partner], rows[i, columns])) - diff
        herm_residual = max(herm_residual, float(np.abs(diff).max()))
    # P_i P_j is the class x_i + x_j, whose code is the column x_j shifted by
    # x_i; its entry in column c is values[i] read at the row class j sends c to.
    # Blocks of at most CELL_CAP products reuse one buffer.
    sums = rows[:, codes]
    square_slots = _slots(dim, codes, sums)
    square = np.zeros((square_slots.max() + 1, len(columns)), dtype=np.complex128)
    step = min(len(columns), max(1, CELL_CAP // len(codes)))
    buffer = np.empty((len(codes), step), dtype=np.complex128)
    for lo in range(0, len(columns), step):
        block = columns[lo : lo + step]
        block_rows = rows[:, block]
        products = buffer[:, : len(block)]
        for i, targets in enumerate(square_slots[sums]):
            np.take(values[i], block_rows, out=products)
            products *= values[:, block]
            square[targets, lo : lo + step] += products
    square[square_slots[codes]] -= values[:, columns]
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


def _value_leads(values: np.ndarray) -> np.ndarray:
    """For every column of `values`, the first column equal to it bit for bit.

    Each column's bytes are one void scalar, so np.unique groups the columns
    exactly.  (With axis=0 it compares field by field: 15 ms against 3 ms
    on the 4096 columns of the 1x3 grid at D = 4.)
    """
    columns = np.ascontiguousarray(values.T)
    columns = columns.view(np.dtype((np.void, columns.strides[0]))).ravel()
    _, first, group = np.unique(columns, return_index=True, return_inverse=True)
    return first[group]


def _signature_columns(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One column of each signature, ascending.

    A column's signature is its values and the values of every column its
    classes shift it to.  A column whose signature matches that of the
    first column with its values (`_value_leads`) is left to that column;
    the others are kept.
    """
    lead = _value_leads(values)
    agree = np.ones(len(lead), dtype=bool)
    for row in rows:
        shifted = lead[row]
        agree &= shifted == shifted[lead]
    kept = np.zeros(len(lead), dtype=bool)
    kept[np.where(agree, lead, np.arange(len(lead)))] = True
    return np.flatnonzero(kept)


def verify_logical_action(pauli: PauliProduct, spec: StabilizerSpec, proj: ClassProjector) -> bool:
    """True iff the operator restricted to the code space is not a scalar.

    Requires a normalizer element (is_logical holds for it).  With P = B B^dagger
    for an orthonormal basis B of the code space, R B = B M with M the
    restriction, so R P - c P = B (M - c I) B^dagger has the Frobenius norm of
    M - c I.  The candidate scalar is c = tr(M)/K = tr(R P)/tr(P), and M is a
    scalar iff R P = c P, which needs no basis of the range.  `proj` is
    dense_projector's output for the spec.
    """
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
