"""Brute-force verification at tiny scale: the slow, trusted path.

Operators realize X as the cyclic shift and Z as the diagonal of D-th
roots of unity, one entry per basis column: the group projector one X
class at a time, a Pauli product by its phase on each basis state.
Qudit 1 is the slowest-varying tensor index, matching position 1
(leftmost factor) of the symplectic representation.
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


@dataclass(frozen=True)
class ClassProjector:
    """P stored as its X classes, each one value per column label.

    Class i gathers the group elements whose X part has the base-D code
    codes[i], qudit 1 the most significant digit as in basis indices.  Its
    entry in basis column c lies in the row of c shifted by that X part
    (`_shifted_indices`) and has the value sums[i, labels[c]].  Codes are
    distinct and ascending; sums keep exact zeros.
    """

    codes: np.ndarray  # (classes,) int64
    sums: np.ndarray  # (classes, labels) complex128
    labels: np.ndarray  # (D^n,) int64


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
    computes its own rows.  `enumeration` is the output of
    enumerate_group(spec).
    """
    D = spec.modulus
    n = spec.n
    dim = _checked_dimension(D, n, cap)
    digits = _digit_table(D, n)
    weights = _place_values(D, n)
    keys = enumeration.keys
    nz = len(enumeration.z_parts)
    parts = len(enumeration.x_parts) * nz
    index = keys % parts
    shifts = (enumeration.x_parts.astype(np.int64) @ weights)[index // nz]  # digit table rows
    z_codes = (enumeration.z_parts.astype(np.int64) @ weights)[index % nz]
    phases = keys // parts * enumeration.phase_step  # below D, which fits in int64
    order = np.lexsort((z_codes, phases, shifts))
    shifts, z_codes, phases = shifts[order], z_codes[order], phases[order, None]
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
    return ClassProjector(codes, sums, labels)


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
    axis, built one axis at a time from that axis's rolled index times its
    place value, for all shifts at once.  The last axis, the fastest-varying
    one, comes first, so each step broadcasts over the indices built so far.
    """
    D = modulus
    count, n = shifts.shape
    rows = np.zeros((count, 1), dtype=np.int64)
    if n == 0:  # one basis state, and D may be past any np.arange
        return rows
    # np.roll(np.arange(D), -shifts[i, q]) * D^(n-1-q) in entry (i, q)
    rolled = (np.arange(D) + shifts[:, :, None]) % D * _place_values(D, n)[:, None]
    for axis in rolled.transpose(1, 0, 2)[::-1]:
        rows = (axis[:, :, None] + rows[:, None, :]).reshape(count, -1)
    return rows


def _class_rows(modulus: int, shifts: np.ndarray, dim: int):
    """(first class, rows) for blocks of classes: rows is _shifted_indices of
    their X parts, at most CELL_CAP entries (one class when D^n passes it)."""
    step = max(1, CELL_CAP // dim)
    for lo in range(0, len(shifts), step):
        yield lo, _shifted_indices(modulus, shifts[lo : lo + step])


def _slots(dim: int, *codes: np.ndarray) -> np.ndarray:
    """Code -> rank among the distinct given codes, -1 for a code not given.

    On the codes of a ClassProjector alone, the rank is the class index.
    """
    seen = np.zeros(dim, dtype=bool)
    for given in codes:
        seen[given] = True
    return np.where(seen, np.cumsum(seen) - 1, -1)


def _trace(proj: ClassProjector, slots: np.ndarray) -> complex:
    """tr P: only the class of X part 0 has entries on the diagonal, one per column."""
    return complex(proj.sums[slots[0]][proj.labels].sum()) if slots[0] >= 0 else 0j


def projector_checks(spec: StabilizerSpec, proj: ClassProjector) -> dict:
    """Residuals for P = P-dagger = P-squared and the trace-vs-K identity.

    Each residual is the largest entrywise difference.  An entry whose class
    is missing from the other side counts in full, so nothing assumes that
    the classes of P are closed under negation or sums.  Every entry in
    column c is formed from the values of P in column c and in the columns
    its classes shift c to, so two columns with the same labels there have
    the same entries, and the entries are formed on one column of each such
    signature.  A column's lead is the first column of its label, and the
    column is left to its lead when every class shifts the two to columns
    of one label.  The shifted columns are formed in blocks of at most
    CELL_CAP entries: once to find the columns formed and the sums
    x_i + x_j that P-squared has, then for the columns formed.
    `residual` is the largest of the three, and `ok` the verdict: it is
    under RESIDUAL_TOL and the rounded trace is K.  `proj` is
    dense_projector's output for the spec.
    """
    D, n = spec.modulus, spec.n
    codes, sums, labels = proj.codes, proj.sums, proj.labels
    dim = len(labels)
    shifts = _digit_table(D, n)[codes]
    slots = _slots(dim, codes)
    _, first, group = np.unique(labels, return_index=True, return_inverse=True)
    lead = first[group]
    agree = np.ones(dim, dtype=bool)
    paired = np.zeros(dim, dtype=bool)  # codes of x_i + x_j: the column x_j shifted by x_i
    for _, rows in _class_rows(D, shifts, dim):
        shifted = labels[rows]
        agree &= (shifted == shifted[:, lead]).all(axis=0)
        paired[rows[:, codes]] = True
    columns = np.flatnonzero(~agree | (lead == np.arange(dim)))
    # P-dagger[r, c] = conj(P[c, r]): class x of P meets class -x read at its rows
    partners = slots[(-shifts % D) @ _place_values(D, n)]
    matched = partners >= 0
    herm_residual = 0.0
    # P_i P_j is the class x_i + x_j; its entry in column c is class i read
    # at c + x_j times class j in column c.  Blocks of at most CELL_CAP
    # products reuse one buffer.
    square_slots = _slots(dim, codes, np.flatnonzero(paired))
    square = np.zeros((square_slots.max() + 1, len(columns)), dtype=np.complex128)
    step = min(len(columns), max(1, CELL_CAP // len(codes)))
    buffer = np.empty((len(codes), step), dtype=np.complex128)
    for lo in range(0, len(columns), step):
        block = columns[lo : lo + step]
        own = sums[:, labels[block]]
        read = np.empty((len(codes), len(block)), dtype=np.int64)  # labels at c + x_j
        for start, rows in _class_rows(D, shifts, dim):
            read[start : start + len(rows)] = labels[rows[:, block]]
        diff = own.copy()
        diff[matched] = np.conj(sums[partners[matched, None], read[matched]]) - own[matched]
        herm_residual = max(herm_residual, float(np.abs(diff).max()))
        products = buffer[:, : len(block)]
        for start, rows in _class_rows(D, shifts, dim):
            for i, targets in enumerate(square_slots[rows[:, codes]], start):
                np.take(sums[i], read, out=products)
                products *= own
                square[targets, lo : lo + step] += products
        square[square_slots[codes], lo : lo + step] -= own
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


def verify_logical_action(pauli: PauliProduct, spec: StabilizerSpec, proj: ClassProjector) -> bool:
    """True iff the operator restricted to the code space is not a scalar.

    Requires a normalizer element (is_logical holds for it).  With P = B B^dagger
    for an orthonormal basis B of the code space, R B = B M with M the
    restriction, so R P - c P = B (M - c I) B^dagger has the Frobenius norm of
    M - c I.  The candidate scalar is c = tr(M)/K = tr(R P)/tr(P), and M is a
    scalar iff R P = c P, which needs no basis of the range.

    R = w^l X^x Z^z moves class i of P to the class t of X part x_i + x, and
    multiplies its entry in column c by R's phase on basis state c + x_i,
    w^e(c) u_i with e(c) = l + z . c and u_i = w^(z . x_i).  So R P - c P has
    there the entry w^e(c) (u_i P_i - w^-e(c) c P_t) at the label of c, whose
    modulus depends on c only through its label and e(c).  The squared norm
    is a sum over those pairs, each weighted by its number of columns, in
    blocks of at most CELL_CAP entries; a class of P that R P misses holds
    -c P alone.  It is added up by numpy's own loops (np.einsum), not BLAS,
    whose threads a process forked after `import numpy` would start.
    `proj` is dense_projector's output for the spec.
    """
    D, n = pauli.modulus, pauli.num_qudits
    codes, sums, labels = proj.codes, proj.sums, proj.labels
    dim = len(labels)
    slots = _slots(dim, codes)
    trace = _trace(proj, slots).real
    if round(trace) == 0:
        return False
    digits = _digit_table(D, n)
    place = _place_values(D, n)
    x, z = np.array(pauli.x, dtype=np.int64), np.array(pauli.z, dtype=np.int64)
    pairs, counts = np.unique(labels * D + (pauli.phase + digits @ z) % D, return_counts=True)
    pair_labels, exponents = np.divmod(pairs, D)
    roots = _roots_of_unity(D, dim)
    shifts = digits[codes]
    moved = roots[(shifts @ z) % D][:, None] * sums  # u_i P_i
    targets = slots[((shifts + x) % D) @ place]
    home = slots[(-x % D) @ place]  # the class R moves to X part 0, if any
    scale = 0j
    if home >= 0:  # tr(R P): that class's entry in column c lies in row c
        scale = (counts * roots[exponents] * moved[home, pair_labels]).sum() / trace
    missed = np.ones(len(codes), dtype=bool)  # classes of P that R P misses
    missed[targets[targets >= 0]] = False
    scaled = scale * np.concatenate((sums, np.zeros_like(sums[:1])))  # c P, and 0 at target -1
    # (R P - c P) / w^e, one row per class: u_i P_i - w^-e c P_t for each
    # class i of P, then -w^-e c P_t for each class t that R P misses
    first = np.concatenate((moved, np.zeros_like(sums[missed])))
    second = scaled[np.concatenate((targets, np.flatnonzero(missed)))]
    turns = np.conj(roots[exponents])  # w^-e
    weights = np.repeat(counts.astype(np.float64), 2)  # for the real and imaginary parts
    step = max(1, CELL_CAP // len(pairs))
    squares = 0.0
    for lo in range(0, len(first), step):
        diff = np.take(first[lo : lo + step], pair_labels, axis=1)  # C order, unlike [:, pair_labels]
        diff -= turns * np.take(second[lo : lo + step], pair_labels, axis=1)
        parts = diff.view(np.float64)
        squares += np.einsum("ij,ij,j->", parts, parts, weights)
    return bool(squares**0.5 > RESIDUAL_TOL)


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
    elements = additive_closure(matrix.array(np.int64), D, EXHAUSTIVE_CAP)
    if n:  # ascending tuple order, so the character sums add in that order
        elements = elements[np.lexsort(elements.T[::-1])]
    size = len(elements)
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
