"""Code distance by one weight-shell search, plus normalizer predicates.

The search covers W = r(B)-perp minus r(A) union r(A)-perp minus r(B).
On a spec built from a chain complex these two sides are the nontrivial
cocycles (ker delta2 minus im delta1) and the nontrivial cycles (ker d1
minus im d2).  One search gives one report, which lists every side its
witness passes, the cocycle side first; `read_as(CYCLE)` prefers the
cycle side, as the CLI's homological keys do for output compatibility.
The independent check of the distance is the brute-force scan of the
tests.

Search order is pinned for deterministic witnesses: weights increase,
supports are enumerated lexicographically, nonzero value assignments in
odometer order.  The first candidate that passes a side is the witness,
and every side it passes is recorded.

The search holds each side's check rows and unit code densely; their
bytes are predicted from the shapes first, and a prediction over
DENSE_BYTES_CAP (1 GiB) raises BudgetExceeded with nothing examined.

Candidates are checked in blocks with numpy: the check columns of a block
of supports times all their value rows, mod D.  A support is skipped
without a product when some check row has a single nonzero entry on it
and that entry is a unit.  `examined` is the witness's position in the
pinned order, skipped candidates included, so block sizes never show in
a report.

A side's floor is the least weight at which that prune can pass a
support.  When every column of the side's check matrix holds one or two
entries, all units mod D, the columns are the edges of a graph on the
check rows and one ground node, and the floor is its girth: a support
with fewer edges is a forest, whose leaf row holds a single unit entry
on it.  Otherwise the floor is 1.  The floors are worked out when the
search enters shell 2, so a budget spent in shell 1 never pays for them.
A shell checks only the sides whose floor it has reached; a shell below
every floor is added to `examined` without enumerating a support, and a
budget that ends inside it raises as the enumeration would have.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from math import comb, gcd
from typing import Callable, Sequence

import numpy as np

from .complex2 import ChainComplexData
from .errors import BudgetExceeded, TheoremMismatch
from .pauli import PauliProduct, StabilizerSpec, stabilizer_size, syndrome
from .zmod import ZModMatrix, contains, orthogonal_complement, product_dtype

DEFAULT_BUDGET = 10**7
CELL_CAP = 1 << 14  # entries in one block's products or candidate masks; bounds memory
FIRST_BLOCK = 16  # candidates in the first block; later blocks double
DENSE_BYTES_CAP = 1 << 30  # bytes of the check rows and unit codes the search holds densely

CYCLE = "cycle"
COCYCLE = "cocycle"


@dataclass(frozen=True)
class DistanceReport:
    """Minimum logical weight, or no_logicals when W is empty.

    A cycle-side witness lifts to a Z-type logical operator, a cocycle-side
    witness to an X-type one.  `sides` lists every side the witness passes,
    the preferred one first.
    """

    distance: int | None
    witness: tuple[int, ...] | None
    examined: int
    sides: tuple[str, ...] = ()

    @property
    def no_logicals(self) -> bool:
        return self.distance is None

    @property
    def witness_side(self) -> str | None:
        return self.sides[0] if self.sides else None

    def read_as(self, side: str) -> DistanceReport:
        """The same search with `side` preferred when the witness passes it."""
        return replace(self, sides=tuple(sorted(self.sides, key=lambda s: s != side)))


def is_in_normalizer(pauli: PauliProduct, spec: StabilizerSpec) -> bool:
    """Zero syndrome, cross-checked against the submodule characterization.

    Route one is the syndrome; route two asks x in r(B)-perp and z in
    r(A)-perp by reduction against the generators of the orthogonal
    complements, which each check matrix builds once, and only for a
    nonzero part.  They are proven equal, so disagreement raises.
    """
    by_syndrome = not any(syndrome(pauli, spec))
    by_modules = all(
        contains(orthogonal_complement(checks), part)
        for checks, part in ((spec.face_matrix, pauli.x), (spec.vertex_matrix, pauli.z))
        if any(part)  # the zero part lies in every span
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
    in_group = contains(spec.vertex_matrix, pauli.x) and contains(spec.face_matrix, pauli.z)
    return not in_group


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
    rows = checks.array(dtype)
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


def _shell_floor(checks: ZModMatrix, bound: int | None = None) -> int:
    """Least weight of a support the unit prune passes, or 1 when the checks are no graph.

    When every column holds one or two entries, all units mod D, the
    columns are the edges of a graph on the check rows and one ground
    node; a one-entry column joins its row to ground.  A support with
    fewer edges than the girth is a forest, and a forest with an edge has
    a leaf row, which holds a single unit entry on the support: the prune
    rejects it.  A shortest cycle puts two entries on each row it meets,
    so the girth is exact.  A BFS from every node finds it, stopping at
    depth best/2; each node keeps the column of its tree edge, so that
    parallel columns close a 2-cycle.  With no cycle shorter than `bound`
    (default n + 1, which is what a forest gives) the result is `bound`.
    """
    columns = checks.transpose()
    ptr, rows = columns.indptr.tolist(), columns.indices.tolist()
    if any(gcd(e, checks.modulus) != 1 for e in set(columns.data.tolist())):
        return 1
    ground = checks.nrows
    adjacent = [[] for _ in range(ground + 1)]  # node -> [(neighbour, column)]
    for column, (start, stop) in enumerate(zip(ptr, ptr[1:])):
        if stop - start not in (1, 2):
            return 1
        a, b = rows[start], rows[start + 1] if stop - start == 2 else ground
        adjacent[a].append((b, column))
        adjacent[b].append((a, column))
    best = checks.ncols + 1 if bound is None else bound
    for source in range(ground + 1):
        via = {source: -1}  # node -> column of its tree edge
        depth = {source: 0}
        frontier, d = [source], 0
        while frontier and 2 * d + 1 < best:  # cycles first closed at depth d have length >= 2d + 1
            reached = []
            for u in frontier:
                for v, column in adjacent[u]:
                    if column == via[u]:
                        continue
                    if v in via:
                        best = min(best, d + depth[v] + 1)
                    else:
                        via[v], depth[v] = column, d + 1
                        reached.append(v)
            frontier, d = reached, d + 1
    return best


def _first_hit(sides, n: int, supports: np.ndarray, values: np.ndarray, modulus: int):
    """(support index, value index, passing tags, vector) of a block's first witness, or None.

    Candidates with a zero syndrome on some side go to that side's
    excluded-span test in the pinned order; the first candidate passing a
    side is the witness, with every side it passes.
    """
    masks = [_kernel_mask(side, supports, values, modulus) for side in sides]
    for flat in np.flatnonzero(functools.reduce(np.logical_or, masks)).tolist():
        s, j = divmod(flat, len(values))
        vec = [0] * n
        for pos, val in zip(supports[s].tolist(), values[j].tolist()):
            vec[pos] = val
        vec = tuple(vec)
        tags = tuple(
            tag
            for (tag, _, _, excluded), mask in zip(sides, masks)
            if mask[s, j] and not excluded(vec)
        )
        if tags:
            return s, j, tags, vec
    return None


def _weight_shell_search(
    n: int,
    modulus: int,
    sides: Sequence[tuple[str, ZModMatrix, Callable]],
    budget: int,
) -> DistanceReport:
    """The shell scan; each side is (tag, check matrix, excluded-span contains).

    A candidate passes a side when the check matrix annihilates it and the
    excluded span does not contain it.  The report's `sides` are the
    passing sides in the given order.
    Candidates are checked in blocks of the pinned order: whole supports
    with all (D-1)^w value rows each, or one slice of a single support's
    value rows when a whole one does not fit.  Blocks start at FIRST_BLOCK
    candidates, double up to CELL_CAP, and never reach past the budget.
    From shell 2 on, a shell checks only the sides whose `_shell_floor` it
    has reached, and a shell below every floor is counted without a block.
    The floors are bounded by the last shell the budget reaches, since no
    later shell is searched.  `examined` is the witness's 1-based position
    in the pinned order, counting the candidates of skipped supports and
    shells.
    """
    if not sides:
        return DistanceReport(None, None, 0)
    D = modulus
    dtype = product_dtype(n, D)
    dense = sum(2 * c.nrows * c.ncols for _, c, _ in sides) * np.dtype(dtype).itemsize
    if dense > DENSE_BYTES_CAP:  # _prepare_side's check rows and unit codes
        message = f"distance search would hold {dense} bytes of dense check rows"
        raise BudgetExceeded(f"{message}, over the cap of {DENSE_BYTES_CAP}", examined=0)
    prepared = [_prepare_side(tag, checks, excluded, dtype) for tag, checks, excluded in sides]
    nrows = max(max(side[1].shape[0] for side in prepared), 1)
    floors = [1] * len(sides)
    examined = 0
    block = FIRST_BLOCK
    for weight in range(1, n + 1):
        per_support = (D - 1) ** weight
        if weight == 2:
            last, total = 1, examined
            while last < n and total <= budget:
                last += 1
                total += comb(n, last) * (D - 1) ** last
            floors = [_shell_floor(checks, last + 1) for _, checks, _ in sides]
        active = [side for side, floor in zip(prepared, floors) if floor <= weight]
        if not active:
            size = comb(n, weight) * per_support
            if examined + size <= budget:
                examined += size
                continue
            examined = budget  # the budget ends in this shell: the loop below raises at once
        max_supports = max(1, CELL_CAP // (nrows * weight))
        supports = itertools.combinations(range(n), weight)
        left = comb(n, weight)
        start = 0  # first value row of the current support not yet checked
        while left:
            allowed = budget - examined
            if allowed <= 0:
                raise BudgetExceeded(
                    f"distance search exceeded budget {budget} in weight shell {weight} "
                    f"of {n} after {examined} candidates (css route)",
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
            hit = _first_hit(active, n, chunk, values, D)
            if hit is not None:
                s, j, tags, vec = hit
                position = examined + s * len(values) + j + 1
                return DistanceReport(weight, vec, position, tags)
            examined += len(chunk) * len(values)
            if stop == per_support:
                left -= len(chunk)
                start = 0
            else:
                start = stop
            block = min(2 * block, CELL_CAP)
    return DistanceReport(None, None, examined)


def distance_css(spec: StabilizerSpec, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Minimum Hamming weight over W = r(B)p \\ r(A) union r(A)p \\ r(B).

    Raises ScalarViolation when the spec's group holds a nontrivial scalar.
    Otherwise r(A) lies in r(B)p and r(B) in r(A)p, and |Mp| = D^n / |M|
    over Z_D, so each side is empty exactly when |r(A)| |r(B)| = D^n, that
    is K = 1.  Then the report is no_logicals without examining any
    candidate.  A membership solver is built only once a zero-syndrome
    candidate reaches it.  The witness side is the cocycle side when the
    witness passes both.
    """
    sides = []
    if stabilizer_size(spec) != spec.modulus**spec.n:
        sides = [
            (COCYCLE, spec.face_matrix, functools.partial(contains, spec.vertex_matrix)),
            (CYCLE, spec.vertex_matrix, functools.partial(contains, spec.face_matrix)),
        ]
    return _weight_shell_search(spec.n, spec.modulus, sides, budget)


def distance_homological(chain: ChainComplexData, budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Shortest nontrivial cycle or cocycle of the boundary pair.

    The spec of the chain has face matrix delta2 = d2^T and vertex matrix
    d1, so W's sides are ker delta2 minus im delta1 (cocycles) and ker d1
    minus im d2 (cycles), and K = 1 exactly when |H_1| = 1.  This is the
    css search read with the cycle side preferred.
    """
    return distance_css(StabilizerSpec.from_chain(chain), budget).read_as(CYCLE)


def witness_pauli(report: DistanceReport, modulus: int) -> PauliProduct | None:
    """Lift the witness to its pure-type Pauli operator (X for cocycle, Z for cycle)."""
    if report.witness is None:
        return None
    if report.witness_side == COCYCLE:
        return PauliProduct.x_type(modulus, report.witness)
    return PauliProduct.z_type(modulus, report.witness)
