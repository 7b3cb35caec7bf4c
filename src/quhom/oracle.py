"""Brute-force verification at tiny scale: the slow, trusted path.

Operators realize X as the cyclic shift and Z as the diagonal of D-th
roots of unity, densely for single Pauli products and sparsely for the
group projector; qudit 1 is the slowest-varying tensor index, matching
position 1 (leftmost factor) of the symplectic representation.  Everything
here is deliberately independent of the exact-arithmetic production path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import BudgetExceeded, ScalarViolation
from .pauli import (
    PauliProduct,
    StabilizerSpec,
    code_dimension,
    enumerate_group,
    enumerate_pauli_closure,
)
from .zmod import SubmoduleSpan, orthogonal_complement, span_cardinality

DENSE_DIMENSION_CAP = 4096
EXHAUSTIVE_CAP = 10**6
RESIDUAL_TOL = 1e-9
CELL_CAP = 1 << 14  # entries in one block of projector values; bounds memory


def _dense_dimension(modulus: int, n: int, cap: int) -> int:
    dim = modulus**n
    if dim > cap:
        raise BudgetExceeded(f"dense dimension {dim} exceeds cap {cap}")
    return dim


def _digit_table(modulus: int, n: int) -> np.ndarray:
    """(D^n, n) array of basis-state digits, qudit 0 slowest-varying."""
    idx = np.arange(modulus**n)
    table = np.empty((modulus**n, max(n, 1)), dtype=np.int64)
    for q in range(n - 1, -1, -1):
        table[:, q] = idx % modulus
        idx = idx // modulus
    return table[:, :n]


def _roots_of_unity(modulus: int) -> np.ndarray:
    """w^k for k = 0..D-1; indexing it by exponents mod D gives the phases."""
    return np.exp(2j * np.pi * np.arange(modulus) / modulus)


def _pauli_action(pauli: PauliProduct, digits: np.ndarray):
    """Rows hit and phases picked up on each basis column by w^l X^x Z^z."""
    D = pauli.modulus
    n = pauli.num_qudits
    x = np.array(pauli.x, dtype=np.int64)
    z = np.array(pauli.z, dtype=np.int64)
    shifted = (digits + x) % D
    weights = D ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = shifted @ weights
    phases = (pauli.phase + digits @ z) % D
    return rows, _roots_of_unity(D)[phases]


def dense_pauli(pauli: PauliProduct, cap: int = DENSE_DIMENSION_CAP) -> np.ndarray:
    """Dense matrix of w^l X^x Z^z on D^n dimensions."""
    dim = _dense_dimension(pauli.modulus, pauli.num_qudits, cap)
    digits = _digit_table(pauli.modulus, pauli.num_qudits)
    rows, values = _pauli_action(pauli, digits)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, np.arange(dim)] = values
    return mat


def dense_projector(
    spec: StabilizerSpec, cap: int = DENSE_DIMENSION_CAP, enumeration=None
) -> scipy.sparse.csr_matrix:
    """P = (1/|S|) sum of the group elements, as a sparse D^n x D^n matrix.

    Every element is monomial, one entry per column in the row its X part
    shifts to, so the elements of one X class add up entrywise.  A class's
    phases are one product (phase + z . digits) mod D, its values a lookup
    into the roots of unity, summed over the class in sorted (phase, x, z)
    order in blocks of at most CELL_CAP entries.  P is then assembled in COO
    form from one (rows, values) pair per class.
    `enumeration` is the output of enumerate_group(spec), when already built.
    """
    D = spec.modulus
    n = spec.n
    dim = _dense_dimension(D, n, cap)
    enum = enumerate_group(spec) if enumeration is None else enumeration
    digits = _digit_table(D, n)
    weights = D ** np.arange(n - 1, -1, -1, dtype=np.int64)
    elements = enum.rows.astype(np.int64)  # entries < D <= cap; the identity alone if n = 0
    elements = elements[np.lexsort(elements.T[::-1])]  # sorted (phase, x, z) order
    shifts = elements[:, 1 : n + 1] @ weights
    # Each class holds (0, x, 0), a product of X-type generators alone, so the
    # classes first appear in the sort in ascending x; members keep sorted order.
    order = np.argsort(shifts, kind="stable")
    classes = np.split(order, np.flatnonzero(np.diff(shifts[order])) + 1)
    roots = _roots_of_unity(D)
    step = max(1, CELL_CAP // dim)
    rows, values = [], []
    for members in classes:
        rows.append(((digits + elements[members[0], 1 : n + 1]) % D) @ weights)
        total = None
        for lo in range(0, len(members), step):
            block = elements[members[lo : lo + step]]
            block_values = roots[(block[:, :1] + block[:, n + 1 :] @ digits.T) % D]
            if total is not None:
                block_values = np.concatenate((total[None], block_values))
            total = block_values.sum(axis=0)
        values.append(total)
    cols = np.tile(np.arange(dim), len(classes))
    proj = scipy.sparse.coo_matrix(
        (np.concatenate(values) / enum.size, (np.concatenate(rows), cols)), shape=(dim, dim)
    ).tocsr()
    proj.eliminate_zeros()
    return proj


def projector_checks(
    spec: StabilizerSpec, cap: int = DENSE_DIMENSION_CAP, projector=None
) -> dict:
    """Residuals for P = P-dagger = P-squared and the trace-vs-K identity.

    `residual` is the largest of the three, and `ok` the verdict: it is
    under RESIDUAL_TOL and the rounded trace is K.
    `projector` is the output of dense_projector(spec), when already built.
    """
    proj = dense_projector(spec, cap) if projector is None else projector
    herm_residual = float(abs(proj.conj().T - proj).max())
    idem_residual = float(abs(proj @ proj - proj).max())
    trace = complex(proj.diagonal().sum())
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


def verify_projector_dimension(spec: StabilizerSpec, cap: int = DENSE_DIMENSION_CAP) -> bool:
    """Trace of the projector equals the code dimension, within tolerance."""
    return projector_checks(spec, cap)["ok"]


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
    trace = proj.diagonal().sum().real
    if round(trace) == 0:
        return False
    dim = proj.shape[0]
    rows, values = _pauli_action(pauli, _digit_table(pauli.modulus, pauli.num_qudits))
    operator = scipy.sparse.csr_matrix((values, (rows, np.arange(dim))), shape=(dim, dim))
    applied = operator @ proj
    scale = applied.diagonal().sum() / trace
    return bool(np.linalg.norm((applied - scale * proj).data) > RESIDUAL_TOL)


def span_elements(span: SubmoduleSpan) -> set:
    """Every element of the span, as the group closure of its X-type generators."""
    if span.modulus**span.ambient > EXHAUSTIVE_CAP:
        raise BudgetExceeded(
            f"span ambient space {span.modulus}^{span.ambient} exceeds cap {EXHAUSTIVE_CAP}"
        )
    gens = [PauliProduct.x_type(span.modulus, g) for g in span.generators]
    rows = enumerate_pauli_closure(gens, span.modulus, span.ambient, EXHAUSTIVE_CAP).rows
    return set(map(tuple, rows[:, 1 : span.ambient + 1].tolist()))


def complement_duality_checks(span: SubmoduleSpan) -> dict:
    """Exhaustive complement count and the character-sum dichotomy.

    For every eta in Z_D^n the sum of w^(eta.x) over x in the span is |E|
    when eta is orthogonal to the whole span and zero otherwise.  `ok` is
    the verdict: the two complement counts agree, |E| |E-perp| = D^n, and
    the character sums are within RESIDUAL_TOL.
    """
    D = span.modulus
    n = span.ambient
    dim = D**n
    if dim > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"exhaustive space {dim} exceeds cap {EXHAUSTIVE_CAP}")
    members = sorted(span_elements(span))
    size = len(members)
    elements = np.array(members, dtype=np.int64).reshape(size, n)
    etas = _digit_table(D, n)
    dots = (etas @ elements.T) % D
    char_sums = _roots_of_unity(D)[dots].sum(axis=1)
    perp_mask = (dots == 0).all(axis=1)
    exhaustive_perp = int(perp_mask.sum())
    char_residual = float(
        max(
            np.abs(char_sums[perp_mask] - size).max() if perp_mask.any() else 0.0,
            np.abs(char_sums[~perp_mask]).max() if (~perp_mask).any() else 0.0,
        )
    )
    complement_size = span_cardinality(orthogonal_complement(span))
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


def verify_complement_duality(span: SubmoduleSpan) -> bool:
    """|E| |E-perp| = D^n with the complement counted two independent ways."""
    return complement_duality_checks(span)["ok"]
