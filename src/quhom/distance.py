"""Code distance by two independent routes, plus normalizer predicates.

The symplectic route searches W = r(B)-perp minus r(A) union r(A)-perp
minus r(B); the homological route searches nontrivial cycles and cocycles
of the boundary pair.  The two must agree on any chain-complex-derived
spec; the CLI treats disagreement as a hard failure.

Search order is pinned for deterministic witnesses: weights increase,
supports are enumerated lexicographically, nonzero value assignments in
odometer order, and for each candidate the sides are tested in a fixed
order (cocycle first for the symplectic route, cycle first for the
homological one).

Candidates are checked in blocks with numpy: the check columns of a block
of supports times all their value rows, mod D.  A support is skipped
without a product when some check row has a single nonzero entry on it
and that entry is a unit.  `examined` is the witness's position in the
pinned order, skipped candidates included, so block sizes never show in
a report.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np

from .complex2 import TwoComplex, chain_complex
from .errors import BudgetExceeded, TheoremMismatch
from .pauli import PauliProduct, StabilizerSpec, syndrome
from .zmod import (
    SubmoduleSpan,
    ZModMatrix,
    contains,
    kernel_cardinality,
    orthogonal_complement,
    row_span,
    span_cardinality,
)

DEFAULT_BUDGET = 10**7
CELL_CAP = 1 << 14  # entries in one block's products or candidate masks; bounds memory
FIRST_BLOCK = 16  # candidates in the first block; later blocks double

CYCLE = "cycle"
COCYCLE = "cocycle"


@dataclass(frozen=True)
class DistanceReport:
    """Minimum logical weight, or no_logicals when W is empty.

    A cycle-side witness lifts to a Z-type logical operator, a cocycle-side
    witness to an X-type one.
    """

    distance: int | None
    witness: tuple[int, ...] | None
    witness_side: str | None
    method: str
    examined: int

    @property
    def no_logicals(self) -> bool:
        return self.distance is None


def is_in_normalizer(pauli: PauliProduct, spec: StabilizerSpec) -> bool:
    """Zero syndrome, cross-checked against the submodule characterization.

    Route one is the syndrome; route two asks x in r(B)-perp and z in
    r(A)-perp through the orthogonal-complement machinery.  They are
    proven equal, so disagreement raises.
    """
    by_syndrome = not any(syndrome(pauli, spec))
    by_modules = contains(orthogonal_complement(spec.face_span), pauli.x) and contains(
        orthogonal_complement(spec.vertex_span), pauli.z
    )
    if by_syndrome != by_modules:
        raise TheoremMismatch(
            "syndrome and submodule characterizations of the normalizer disagree"
        )
    return by_syndrome


def is_logical(pauli: PauliProduct, spec: StabilizerSpec) -> bool:
    """In the normalizer but outside the phase-extended stabilizer group."""
    if not is_in_normalizer(pauli, spec):
        return False
    in_group = contains(spec.vertex_span, pauli.x) and contains(spec.face_span, pauli.z)
    return not in_group


def _span_subset(inner: SubmoduleSpan, outer: SubmoduleSpan) -> bool:
    return all(contains(outer, g) for g in inner.generators)


def _odometer(modulus: int, weight: int, start: int, stop: int, dtype) -> np.ndarray:
    """Rows start..stop-1 of itertools.product(range(1, modulus), repeat=weight)."""
    index = np.arange(start, stop, dtype=dtype)
    values = np.empty((stop - start, weight), dtype=dtype)
    for pos in range(weight - 1, -1, -1):
        values[:, pos] = index % (modulus - 1) + 1
        index = index // (modulus - 1)
    return values


def _prepare_side(tag: str, checks: ZModMatrix, excluded: Callable, dtype):
    """(tag, check rows, unit code, excluded-span test) for the block search.

    The unit code of an entry is 0 when it is zero, 1 when it is a unit mod
    D and 2 otherwise, so a check row restricted to a support sums to 1
    exactly when it has one nonzero entry there and that entry is a unit.
    """
    rows = np.array(checks.entries, dtype=dtype).reshape(checks.nrows, checks.ncols)
    code = 2 * (rows != 0) - (np.gcd(rows, checks.modulus) == 1)
    return tag, rows, code, excluded


def _kernel_mask(side, supports: np.ndarray, values: np.ndarray, modulus: int) -> np.ndarray:
    """(supports, values) mask of the candidates the side's check rows annihilate.

    A support is skipped without a product when some check row restricted
    to it has a single nonzero entry and that entry is a unit: that row
    sends every nonzero value assignment to a nonzero syndrome.
    """
    _, rows, code, _ = side
    mask = np.zeros((len(supports), len(values)), dtype=bool)
    alive = np.flatnonzero((code[:, supports].sum(axis=2) != 1).all(axis=0))
    nrows = max(rows.shape[0], 1)
    support_step = max(1, CELL_CAP // (nrows * len(values)))
    value_step = max(1, CELL_CAP // nrows)
    for lo in range(0, len(alive), support_step):
        chosen = alive[lo : lo + support_step]
        restricted = rows[:, supports[chosen]]
        for vlo in range(0, len(values), value_step):
            syndromes = restricted @ values[vlo : vlo + value_step].T
            mask[chosen, vlo : vlo + value_step] = (syndromes % modulus == 0).all(axis=0)
    return mask


def _first_hit(sides, n: int, supports: np.ndarray, values: np.ndarray, modulus: int):
    """(support index, value index, tag, vector) of the first witness in a block, or None.

    Candidates with a zero syndrome go to the excluded-span test in the
    pinned order, sides in their given order for each candidate.
    """
    masks = [_kernel_mask(side, supports, values, modulus) for side in sides]
    for flat in np.flatnonzero(functools.reduce(np.logical_or, masks)).tolist():
        s, j = divmod(flat, len(values))
        vec = [0] * n
        for pos, val in zip(supports[s].tolist(), values[j].tolist()):
            vec[pos] = val
        vec = tuple(vec)
        for (tag, _, _, excluded), mask in zip(sides, masks):
            if mask[s, j] and not excluded(vec):
                return s, j, tag, vec
    return None


def _weight_shell_search(
    n: int,
    modulus: int,
    sides: Sequence[tuple[str, ZModMatrix, Callable]],
    method: str,
    budget: int,
) -> DistanceReport:
    """Shared shell scan; each side is (tag, check matrix, excluded-span contains).

    A candidate passes a side when the check matrix annihilates it and the
    excluded span does not contain it.  Candidates are checked in blocks of
    the pinned order: whole supports with all (D-1)^w value rows each, or
    one slice of a single support's value rows when a whole one does not
    fit.  Blocks start at FIRST_BLOCK candidates, double up to CELL_CAP,
    and never reach past the budget.  `examined` is the witness's 1-based
    position in the pinned order, counting the candidates of skipped
    supports.
    """
    if not sides:
        return DistanceReport(None, None, None, method, 0)
    D = modulus
    dtype = np.int64 if n * (D - 1) ** 2 < 2**63 else object  # syndromes must not wrap
    sides = [_prepare_side(tag, checks, excluded, dtype) for tag, checks, excluded in sides]
    nrows = max(max(side[1].shape[0] for side in sides), 1)
    examined = 0
    block = FIRST_BLOCK
    for weight in range(1, n + 1):
        per_support = (D - 1) ** weight
        max_supports = max(1, CELL_CAP // (nrows * weight))
        supports = itertools.combinations(range(n), weight)
        left = comb(n, weight)
        start = 0  # first value row of the current support not yet checked
        while left:
            allowed = budget - examined
            if allowed <= 0:
                raise BudgetExceeded(
                    f"distance search exceeded budget {budget} in weight shell {weight} "
                    f"of {n} after {examined} candidates ({method} route)",
                    examined=examined + 1,
                )
            if start == 0 and per_support <= min(block, allowed):
                k = min(left, block // per_support, allowed // per_support, max_supports)
                chunk = np.array(list(itertools.islice(supports, k)), dtype=np.int64)
                stop = per_support
            else:
                if start == 0:
                    chunk = np.array([next(supports)], dtype=np.int64)
                stop = min(per_support, start + block, start + allowed)
            values = _odometer(D, weight, start, stop, dtype)
            hit = _first_hit(sides, n, chunk, values, D)
            if hit is not None:
                s, j, tag, vec = hit
                return DistanceReport(weight, vec, tag, method, examined + s * len(values) + j + 1)
            examined += len(chunk) * len(values)
            if stop == per_support:
                left -= len(chunk)
                start = 0
            else:
                start = stop
            block = min(2 * block, CELL_CAP)
    return DistanceReport(None, None, None, method, examined)


def distance_css(spec: StabilizerSpec, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Minimum Hamming weight over W = r(B)p \\ r(A) union r(A)p \\ r(B).

    A side whose difference set is provably empty (the perp is contained in
    the excluded span) is dropped before scanning; when both drop, the
    report is no_logicals without examining any candidate.
    """
    sides = []
    if not _span_subset(orthogonal_complement(spec.face_span), spec.vertex_span):
        sides.append((COCYCLE, spec.face_matrix, spec.vertex_span.membership.contains))
    if not _span_subset(orthogonal_complement(spec.vertex_span), spec.face_span):
        sides.append((CYCLE, spec.vertex_matrix, spec.face_span.membership.contains))
    return _weight_shell_search(spec.n, spec.modulus, sides, "css", budget)


def distance_homological(
    complex2: TwoComplex, modulus: int, budget: int = DEFAULT_BUDGET
) -> DistanceReport:
    """Shortest nontrivial cycle or cocycle of the boundary pair.

    Cycle side: ker d1 minus im d2; cocycle side: ker delta2 minus im
    delta1, with the coboundary maps realized as transposes.  Emptiness is
    prechecked through cardinalities: im is always inside ker, so the side
    is empty exactly when |ker| equals |im|.
    """
    chain = chain_complex(complex2, modulus)
    d1 = chain.d1
    delta2 = chain.d2.transpose()
    boundaries = row_span(chain.d2.transpose())  # im d2, as row vectors
    coboundaries = row_span(chain.d1)  # im delta1

    sides = []
    if kernel_cardinality(d1) != span_cardinality(boundaries):
        sides.append((CYCLE, d1, boundaries.membership.contains))
    if kernel_cardinality(delta2) != span_cardinality(coboundaries):
        sides.append((COCYCLE, delta2, coboundaries.membership.contains))
    return _weight_shell_search(chain.num_edges, modulus, sides, "homological", budget)


def witness_pauli(report: DistanceReport, modulus: int) -> PauliProduct | None:
    """Lift the witness to its pure-type Pauli operator (X for cocycle, Z for cycle)."""
    if report.witness is None:
        return None
    if report.witness_side == COCYCLE:
        return PauliProduct.x_type(modulus, report.witness)
    return PauliProduct.z_type(modulus, report.witness)
