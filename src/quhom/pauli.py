"""Phase-tracked symplectic arithmetic for the qudit Pauli group.

A Pauli product w^phase X^x Z^z on n qudits is stored as (phase, x, z) with
all components in [0, D).  The multiplication rule keeps the phase inside
Z_D: commuting Z^z past X^x costs w^(z.x), so products of Pauli products
never leave the representable set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, filterfalse
from typing import Iterable, Sequence

import numpy as np

from .complex2 import ChainComplexData
from .errors import BudgetExceeded, ScalarViolation, SchemaError
from .zmod import ZModMatrix, product_dtype, span_cardinality

ENUMERATION_CAP = 10**6
CELL_CAP = 1 << 14  # entries in one block of closure products; bounds memory
CLAIM_FACTOR = 16  # a claim table covers key spaces up to this many times the cap
SEEN = -(2**31)  # a claim table's mark for a key found
CHECK_MATRIX_QUDIT_CAP = 2 * 10**4  # largest n of a check matrix: 2 per cell of the largest grid


@dataclass(frozen=True)
class PauliProduct:
    """w^phase X^x Z^z with phase and components reduced to [0, D)."""

    modulus: int
    phase: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        D = self.modulus
        if D < 2:
            raise ValueError(f"modulus must be >= 2, got {D}")
        if len(self.x) != len(self.z):
            raise ValueError("x and z must have the same length")
        object.__setattr__(self, "phase", int(self.phase) % D)
        object.__setattr__(self, "x", tuple(int(e) % D for e in self.x))
        object.__setattr__(self, "z", tuple(int(e) % D for e in self.z))

    @classmethod
    def x_type(cls, modulus: int, x: Sequence[int]) -> PauliProduct:
        return cls(modulus, 0, tuple(x), (0,) * len(x))

    @classmethod
    def z_type(cls, modulus: int, z: Sequence[int]) -> PauliProduct:
        return cls(modulus, 0, (0,) * len(z), tuple(z))

    @classmethod
    def scalar(cls, modulus: int, phase: int, n: int = 0) -> PauliProduct:
        return cls(modulus, phase, (0,) * n, (0,) * n)

    @property
    def num_qudits(self) -> int:
        return len(self.x)

    def weight(self) -> int:
        """Number of qudits acted on nontrivially."""
        return sum(1 for a, b in zip(self.x, self.z) if a or b)


@dataclass(frozen=True)
class StabilizerSpec:
    """CSS generator data: face rows are z-parts, vertex rows are x-parts.

    For specs built from a chain complex every face/vertex pair commutes
    (the boundary condition d1 @ d2 = 0 in disguise); specs imported from a
    check matrix may violate that, in which case the generated group picks
    up nontrivial scalars and the code space collapses to {0}.
    """

    modulus: int
    n: int
    face_matrix: ZModMatrix
    vertex_matrix: ZModMatrix

    def __post_init__(self):
        if self.face_matrix.ncols != self.n or self.vertex_matrix.ncols != self.n:
            raise ValueError("generator rows must have length n")
        if self.face_matrix.modulus != self.modulus or self.vertex_matrix.modulus != self.modulus:
            raise ValueError("modulus mismatch")

    @classmethod
    def from_chain(cls, chain: ChainComplexData) -> StabilizerSpec:
        return cls(
            modulus=chain.modulus,
            n=chain.num_edges,
            face_matrix=chain.d2.transpose(),
            vertex_matrix=chain.d1,
        )

    @property
    def num_face_generators(self) -> int:
        return self.face_matrix.nrows

    @property
    def num_vertex_generators(self) -> int:
        return self.vertex_matrix.nrows

    def face_generator(self, i: int) -> PauliProduct:
        return PauliProduct.z_type(self.modulus, self.face_matrix.row(i))

    def vertex_generator(self, i: int) -> PauliProduct:
        return PauliProduct.x_type(self.modulus, self.vertex_matrix.row(i))

    def generators(self) -> tuple[PauliProduct, ...]:
        """Faces first, then vertices, each in input order; built once per spec."""
        return self._generators

    @cached_property
    def _generators(self) -> tuple[PauliProduct, ...]:
        faces = tuple(self.face_generator(i) for i in range(self.num_face_generators))
        vertices = tuple(self.vertex_generator(i) for i in range(self.num_vertex_generators))
        return faces + vertices

    @cached_property
    def pairings(self) -> ZModMatrix:
        """F V^T: entry (f, v) is the commutation phase of face f with vertex v; built once.

        Z^v X^u and X^u Z^v differ by w^(v.u), so the commutator of a face
        and a vertex generator is the scalar w^(v.u), and a face-vertex
        pair fails to commute exactly where the product stores an entry.
        """
        return self.face_matrix @ self.vertex_matrix.transpose()

    def scalar_witness(self) -> PauliProduct | None:
        """A nontrivial scalar in the generated group, if one exists.

        The group is scalar-free iff every face-vertex pairing vanishes
        mod D; the witness is the first nonzero one in face-major order,
        the first stored entry of `pairings`.
        """
        if self.pairings.is_zero():
            return None
        return PauliProduct.scalar(self.modulus, int(self.pairings.data[0]), self.n)


def syndrome(error: PauliProduct, spec: StabilizerSpec) -> tuple[int, ...]:
    """Commutation phase of the error against every generator, faces first.

    Against a face Z^f the phase is -f.x, against a vertex X^v it is v.z,
    so the syndrome is (-F x, V z) mod D, read off the stored rows.
    """
    if error.modulus != spec.modulus or error.num_qudits != spec.n:
        raise ValueError("error does not match the spec dimensions")
    D = spec.modulus
    faces = tuple(-e % D for e in spec.face_matrix.matvec(error.x))
    return faces + spec.vertex_matrix.matvec(error.z)


@dataclass(frozen=True, eq=False)
class GroupEnumeration:
    """Closure result: group order, first scalar found, and the elements.

    The elements are `keys`, in discovery order, over the part arrays
    `x_parts` (X) and `z_parts` (Z), one part per row: w^phase X^x Z^z with
    x = X[a] and z = Z[b] has the key phase |X| |Z| + a |Z| + b.
    """

    size: int
    scalar_violation: PauliProduct | None
    keys: np.ndarray = field(repr=False)
    x_parts: np.ndarray = field(repr=False)
    z_parts: np.ndarray = field(repr=False)


def _claim_table(space: int):
    """First-occurrence filter over keys in [0, space), key 0 already seen.

    A dense int32 table, 0 for a key not yet seen and SEEN for one seen.
    Each key of a block claims its entry with its position less the block
    length, which is negative and above SEEN; np.minimum.at keeps the
    earliest claim, so a key is new where its own claim stands.  The new
    keys are then marked seen.
    """
    claim = np.zeros(space, dtype=np.int32)
    claim[0] = SEEN

    def fresh(keys):
        marks = np.arange(-len(keys), 0, dtype=np.int32)
        np.minimum.at(claim, keys, marks)
        keys = keys[claim[keys] == marks]
        claim[keys] = SEEN
        return keys

    return fresh


def _seen_set():
    """First-occurrence filter over keys, key 0 already seen, with a set.

    For keys past int64, or a key space too large for a claim table.
    """
    seen = {0}

    def fresh(keys):
        new = list(dict.fromkeys(filterfalse(seen.__contains__, keys.tolist())))
        seen.update(new)
        return np.array(new, dtype=keys.dtype)

    return fresh


def _closure_keys(expand, fresh, num_generators: int, cap: int, key_dtype) -> np.ndarray:
    """Breadth-first closure over integer keys from key 0, in FIFO discovery order.

    `expand(keys)` gives the products' keys for an array of keys,
    parent-major, `num_generators` per parent, and `fresh(keys)` the ones
    not seen before, each once, in order of first occurrence.  The frontier
    goes one bounded block at a time.  Raises BudgetExceeded as soon as
    more than `cap` keys are found.
    """
    frontier = np.zeros(1, dtype=key_dtype)
    levels = [frontier]
    size = 1
    step = max(1, CELL_CAP // max(num_generators, 1))  # frontier elements per block
    level = 0
    while len(frontier) and num_generators:
        level += 1
        found = []
        for lo in range(0, len(frontier), step):
            found.append(fresh(expand(frontier[lo : lo + step])))
            size += len(found[-1])
            if size > cap:
                raise BudgetExceeded(
                    f"group closure exceeded cap {cap} at BFS level {level}"
                    f" ({cap + 1} elements found)",
                    examined=cap + 1,
                )
        frontier = np.concatenate(found)
        levels.append(frontier)
    return np.concatenate(levels)


def additive_closure(rows: np.ndarray, modulus: int, cap: int, table: bool = False):
    """The subgroup of Z_D^n the rows generate, as an (elements, n) array, zero first.

    The rows are taken one at a time: S + <g> is S and then its cosets
    S + j g, for j = 1, ..., t until (t + 1) g falls in S.  S is a
    subgroup, so each coset is new as a whole and no element is formed
    twice; all the cosets of one row are one numpy sum.  An element's key
    is its digits read in base D, or, when D^n passes int64 and place
    values would grow with n, the tuple of its entries.  With `table`,
    also returns the addition table, an (elements, rows) array: entry
    (i, g) is the index of element i plus rows[g], mod D.  Raises
    BudgetExceeded before the set would outgrow `cap`.
    """
    D = modulus
    n = rows.shape[1]
    if D**n < 2**63:
        place = [D**q for q in range(n - 1, -1, -1)]
        weights = np.array(place, dtype=np.int64)

        def key(vector):
            return sum(a * w for a, w in zip(vector, place))

        def keys(vectors):
            return (vectors.astype(np.int64, copy=False) @ weights).tolist()

    else:
        key = tuple

        def keys(vectors):
            return list(map(tuple, vectors.tolist()))

    elements = np.zeros((1, n), dtype=rows.dtype)
    index = {key((0,) * n): 0}  # key -> position in elements
    gens = list(map(tuple, rows.tolist()))
    stages = {}  # row -> (|S| before it, cosets t it added, (t + 1) g)
    for g in dict.fromkeys(gens):
        shifts = []  # g, 2g, ... while outside the subgroup so far
        shift = g
        while key(shift) not in index:
            if len(elements) * (len(shifts) + 2) > cap:
                raise BudgetExceeded(
                    f"additive closure exceeded cap {cap} ({cap + 1} elements found)",
                    examined=cap + 1,
                )
            shifts.append(shift)
            shift = tuple([(a + b) % D for a, b in zip(shift, g)])
        stages[g] = len(elements), len(shifts), shift
        if shifts:
            cosets = (elements + np.array(shifts, dtype=rows.dtype)[:, None, :]) % D
            cosets = cosets.reshape(-1, n)
            index.update(zip(keys(cosets), count(len(elements))))
            elements = np.concatenate((elements, cosets))
    if not table:
        return elements
    # Row g added t cosets to the m elements before it, so element i is
    # hi (t + 1) m + j m + lo with lo < m.  Plus g it is i + m while j < t;
    # for j = t it is lo + (t + 1) g, which lies in the first m elements,
    # moved by the same hi.  Only a nonzero (t + 1) g needs lookups, m of them.
    before = np.array([m for m, _, _ in stages.values()], dtype=np.intp)
    columns = np.arange(len(elements)) + before[:, None]
    step = max(1, CELL_CAP // max(n, 1))  # elements per block of CELL_CAP digits
    for column, (m, t, wrap) in zip(columns, stages.values()):
        last = column.reshape(-1, t + 1, m)[:, t]
        last -= (t + 1) * m  # hi (t + 1) m + lo
        if any(wrap):
            wrapped = []  # the index of element lo plus (t + 1) g, for lo < m
            for lo in range(0, m, step):
                sums = (elements[lo : min(m, lo + step)] + np.array(wrap, dtype=rows.dtype)) % D
                wrapped += map(index.__getitem__, keys(sums))
            last += np.array(wrapped, dtype=np.intp) - np.arange(m)
    position = {g: c for c, g in enumerate(stages)}
    return elements, np.ascontiguousarray(columns.T[:, [position[g] for g in gens]])


def enumerate_pauli_closure(
    generators: Iterable[PauliProduct],
    modulus: int,
    num_qudits: int,
    cap: int = ENUMERATION_CAP,
) -> GroupEnumeration:
    """Breadth-first closure under multiplication, starting from the identity.

    The generators' x rows and z rows are closed first, each by addition
    mod D, into part arrays X and Z with addition tables tx and tz.  The
    group holds every x part and every z part, so either closure passing
    the cap raises BudgetExceeded.  An element is then one key for
    (phase, x index, z index), and its product with generator g is
    ((phase + zdot[z][g]) mod D, tx[x][g], tz[z][g]), where zdot is
    Z g_x + g_phase mod D: two numpy gathers per block of the frontier,
    into tables that hold each index's share of the key.  Products are
    kept in (parent, generator) order, the discovery order of a FIFO
    queue; the identity and repeated generators add nothing new there and
    are left out.  Keys already found are filtered out with a claim table
    over the D |X| |Z| keys, or with a set where the keys are Python ints
    or the key space passes CLAIM_FACTOR times the cap.  The group is
    returned as its keys with X and Z.  The first element found with
    x = z = 0 and nonzero phase is reported as the scalar violation.
    """
    D = modulus
    n = num_qudits
    width = 2 * n + 1
    gens = []
    for g in generators:
        if g.modulus != D or g.num_qudits != n:
            raise ValueError("generator does not match the requested dimensions")
        gens.append((g.phase, *g.x, *g.z))
    steps = [g for g in dict.fromkeys(gens) if any(g)]  # the identity or a repeat adds nothing
    k = len(steps)
    dtype = product_dtype(n + 2, D)  # phase + g_phase + z . g_x
    steps = np.array(steps, dtype=dtype).reshape(k, width)
    g_x = steps[:, 1 : n + 1]
    try:
        x_parts, tx = additive_closure(g_x, D, cap, table=True)
        z_parts, tz = additive_closure(steps[:, n + 1 :], D, cap, table=True)
    except BudgetExceeded:
        raise BudgetExceeded(
            f"group closure exceeded cap {cap} at BFS level 0 ({cap + 1} elements found):"
            " the group holds more x parts or z parts than that",
            examined=cap + 1,
        ) from None
    nz = len(z_parts)
    parts = len(x_parts) * nz  # keys are phase * parts + x index * nz + z index
    space = D * parts
    key_dtype = np.int64 if space < 2**63 else object
    # A product's key is its parent's phase share (key - index) plus zt[z, g],
    # mod the key space, plus tx[x, g].  zt holds each share less the key
    # space, so the sum lies in [-space, space) and stays inside int64.
    zt = ((z_parts @ g_x.T + steps[:, 0]) % D).astype(key_dtype) * parts + tz - space
    tx = tx.astype(key_dtype) * nz

    def expand(keys):
        index = keys % parts
        products = (keys - index)[:, None] + zt[(index % nz).astype(np.intp, copy=False)]
        products %= space
        products += tx[(index // nz).astype(np.intp, copy=False)]
        return products.ravel()

    claims = key_dtype is np.int64 and space <= CLAIM_FACTOR * cap
    fresh = _claim_table(space) if claims else _seen_set()
    keys = _closure_keys(expand, fresh, k, cap, key_dtype)
    scalars = np.flatnonzero(keys % parts == 0)  # x = z = 0; the identity is first
    violation = None
    if len(scalars) > 1:
        violation = PauliProduct(D, keys[scalars[1]] // parts, (0,) * n, (0,) * n)
    return GroupEnumeration(len(keys), violation, keys, x_parts, z_parts)


def enumerate_group(spec: StabilizerSpec, cap: int = ENUMERATION_CAP) -> GroupEnumeration:
    """Closure of the spec's generators; refuses when the predicted size is over cap.

    Each x part in r(A) and z part in r(B) comes with every scalar, and the
    scalars are the subgroup of Z_D the pairings generate, of order
    D / gcd(D, pairings), so the group has |r(B)| |r(A)| D / gcd(D, pairings)
    elements.
    """
    scalars = spec.modulus // math.gcd(spec.modulus, *map(int, spec.pairings.data))
    spans = span_cardinality(spec.face_matrix) * span_cardinality(spec.vertex_matrix)
    predicted = spans * scalars
    if predicted > cap:
        raise BudgetExceeded(
            f"predicted group size {predicted} exceeds cap {cap}", examined=0
        )
    return enumerate_pauli_closure(spec.generators(), spec.modulus, spec.n, cap)


def stabilizer_size(spec: StabilizerSpec) -> int:
    """|S| = |r(B)| * |r(A)|, valid once the group is known scalar-free."""
    witness = spec.scalar_witness()
    if witness is not None:
        raise ScalarViolation(
            f"generated group contains the scalar w^{witness.phase} I", witness=witness
        )
    return span_cardinality(spec.face_matrix) * span_cardinality(spec.vertex_matrix)


def code_dimension(spec: StabilizerSpec) -> int:
    """K = D^n / |S|; the division is exact for scalar-free groups."""
    size = stabilizer_size(spec)
    total = spec.modulus**spec.n
    if total % size:
        raise AssertionError("stabilizer size does not divide D^n")
    return total // size


def export_check_matrix(spec: StabilizerSpec) -> str:
    """Plain-text dump: header 'D n num_faces num_vertices', then r(B) rows, then r(A) rows."""
    lines = [
        f"{spec.modulus} {spec.n} {spec.num_face_generators} {spec.num_vertex_generators}"
    ]
    for row in spec.face_matrix.entries:
        lines.append(" ".join(str(e) for e in row))
    for row in spec.vertex_matrix.entries:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_check_matrix(text: str) -> StabilizerSpec:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise SchemaError("empty check matrix document")
    header = lines[0].split()
    if len(header) != 4:
        raise SchemaError("check matrix header must be 'D n num_faces num_vertices'")
    try:
        D, n, nf, nv = (int(tok) for tok in header)
    except ValueError as exc:
        raise SchemaError(f"bad check matrix header: {exc}") from None
    if D < 2 or n < 0 or nf < 0 or nv < 0:
        raise SchemaError("check matrix header values out of range")
    if n > CHECK_MATRIX_QUDIT_CAP:
        raise BudgetExceeded(
            f"check matrix has {n} qudits, over the cap of {CHECK_MATRIX_QUDIT_CAP}"
        )
    body = lines[1:]
    if len(body) != nf + nv:
        raise SchemaError(f"expected {nf + nv} generator rows, found {len(body)}")
    rows = []
    for ln in body:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise SchemaError(f"bad generator row: {exc}") from None
        if len(row) != n:
            raise SchemaError(f"generator row has {len(row)} entries, expected {n}")
        if any(not 0 <= e < D for e in row):
            raise SchemaError("generator entries must lie in [0, D)")
        rows.append(tuple(row))
    return StabilizerSpec(
        modulus=D,
        n=n,
        face_matrix=ZModMatrix.from_rows(rows[:nf], n, D),
        vertex_matrix=ZModMatrix.from_rows(rows[nf:], n, D),
    )
