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
from itertools import count
from typing import Sequence

import numpy as np

from .complex2 import ChainComplexData
from .errors import BudgetExceeded, ScalarViolation, SchemaError
from .zmod import ZModMatrix, product_dtype, span_cardinality

ENUMERATION_CAP = 10**6
CELL_CAP = 1 << 14  # entries in one block of closure products; bounds memory
SEEN = -(2**31)  # a claim table's mark for a key found
# largest n of a check matrix, and its most rows when n = 0: 2 per cell of the largest grid
CHECK_MATRIX_QUDIT_CAP = 2 * 10**4


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
        """The spec of a chain: F = d2^T and V = d1.

        Their pairings F V^T = (d1 d2)^T are zero, as the chain checked
        when it was built, so the spec holds the empty F x V matrix and
        forms no second product.
        """
        spec = cls(
            modulus=chain.modulus,
            n=chain.num_edges,
            face_matrix=chain.d2.transpose(),
            vertex_matrix=chain.d1,
        )
        vars(spec)["pairings"] = ZModMatrix.from_coo(
            spec.num_face_generators, spec.num_vertex_generators, chain.modulus, (), (), ()
        )
        return spec

    @property
    def num_face_generators(self) -> int:
        return self.face_matrix.nrows

    @property
    def num_vertex_generators(self) -> int:
        return self.vertex_matrix.nrows

    def generators(self) -> tuple[PauliProduct, ...]:
        """Z to each face row, then X to each vertex row, each in input order."""
        D = self.modulus
        faces = (PauliProduct.z_type(D, row) for row in self.face_matrix.entries)
        return (*faces, *(PauliProduct.x_type(D, row) for row in self.vertex_matrix.entries))

    @cached_property
    def pairings(self) -> ZModMatrix:
        """F V^T: entry (f, v) is the commutation phase of face f with vertex v; built once,
        and given as zero by `from_chain`.

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
    `x_parts` (X) and `z_parts` (Z), one part per row.  Every phase is a
    multiple of `phase_step` (g): w^phase X^x Z^z with x = X[a] and
    z = Z[b] has the key (phase / g) |X| |Z| + a |Z| + b.
    """

    size: int
    scalar_violation: PauliProduct | None
    keys: np.ndarray = field(repr=False)
    x_parts: np.ndarray = field(repr=False)
    z_parts: np.ndarray = field(repr=False)
    phase_step: int


def _closure_keys(expand, space: int, num_generators: int) -> np.ndarray:
    """Breadth-first closure over keys in [0, space) from key 0, in FIFO discovery order.

    `expand(keys)` gives the products' keys for an array of keys,
    parent-major, `num_generators` per parent.  The frontier goes one
    bounded block at a time, and a dense int32 claim table over the key
    space keeps each key's first occurrence: 0 for a key not yet seen,
    SEEN for one seen.  Each key of a block claims its entry with its
    position less the block length, which is negative and above SEEN;
    np.minimum.at keeps the earliest claim, so a key is new where its own
    claim stands.  The new keys are then marked seen.
    """
    claim = np.zeros(space, dtype=np.int32)
    claim[0] = SEEN
    frontier = np.zeros(1, dtype=np.int64)
    levels = [frontier]
    step = max(1, CELL_CAP // max(num_generators, 1))  # frontier elements per block
    while len(frontier) and num_generators:
        found = []
        for lo in range(0, len(frontier), step):
            keys = expand(frontier[lo : lo + step])
            marks = np.arange(-len(keys), 0, dtype=np.int32)
            np.minimum.at(claim, keys, marks)
            keys = keys[claim[keys] == marks]
            claim[keys] = SEEN
            found.append(keys)
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


def enumerate_pauli_closure(spec: StabilizerSpec, cap: int = ENUMERATION_CAP) -> GroupEnumeration:
    """Breadth-first closure of the spec's generators under multiplication, from the identity.

    The generators are Z to each face row and X to each vertex row, faces
    first.  Their x rows and z rows are closed first, each by addition
    mod D, into part arrays X and Z with addition tables tx and tz.  The
    group holds every x part and every z part, so either closure passing
    the cap raises BudgetExceeded.  The product of w^phase X^x Z^z with
    generator g is ((phase + zdot[z][g]) mod D, tx[x][g], tz[z][g]),
    where zdot is Z g_x mod D.  So every phase is a multiple of
    g = gcd(D, zdot), the gcd of D and the face-vertex pairings, and the
    group is the D/g scalars of those phases times X times Z.  An element
    is one key (phase / g) |X| |Z| + x index |Z| + z index, and the group
    fills that key space; over the cap, BudgetExceeded is raised before
    the BFS.  A product is two numpy gathers per block of the frontier,
    into tables that hold each index's share of the key.  Products are
    kept in (parent, generator) order, the discovery order of a FIFO
    queue; the identity and repeated rows add nothing new there and are
    left out.  The group is returned as its keys with X, Z and g.  The
    first element found with x = z = 0 and nonzero phase is reported as
    the scalar violation.
    """
    D = spec.modulus
    n = spec.n
    zero = (0,) * n
    rows = [(*zero, *z) for z in spec.face_matrix.entries]
    rows += [(*x, *zero) for x in spec.vertex_matrix.entries]
    steps = [g for g in dict.fromkeys(rows) if any(g)]  # the identity or a repeat adds nothing
    k = len(steps)
    steps = np.array(steps, dtype=product_dtype(n, D)).reshape(k, 2 * n)  # z . g_x fits
    g_x = steps[:, :n]
    try:
        x_parts, tx = additive_closure(g_x, D, cap, table=True)
        z_parts, tz = additive_closure(steps[:, n:], D, cap, table=True)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"group closure exceeded cap {cap}: the group holds more x parts or z parts than that",
            examined=exc.examined,
        ) from None
    zdot = (z_parts @ g_x.T) % D
    g = math.gcd(D, int(np.gcd.reduce(zdot, axis=None)))
    nz = len(z_parts)
    parts = len(x_parts) * nz  # keys are phase / g * parts + x index * nz + z index
    space = D // g * parts
    if space > cap:
        raise BudgetExceeded(
            f"group closure exceeded cap {cap}: the group has {space} elements", examined=0
        )
    zt = (zdot // g).astype(np.int64) * parts + tz  # a phase share plus a z index
    tx = tx.astype(np.int64) * nz

    def expand(keys):
        index = keys % parts
        products = (keys - index)[:, None] + zt[index % nz]
        products %= space
        products += tx[index // nz]
        return products.ravel()

    keys = _closure_keys(expand, space, k)
    scalars = np.flatnonzero(keys % parts == 0)  # x = z = 0; the identity is first
    violation = None
    if len(scalars) > 1:
        violation = PauliProduct.scalar(D, int(keys[scalars[1]] // parts) * g, n)
    return GroupEnumeration(len(keys), violation, keys, x_parts, z_parts, g)


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
    return enumerate_pauli_closure(spec, cap)


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
    if n == 0 and not body:
        # rows with no entries are the blank lines skipped above; the header alone counts them
        if nf + nv > CHECK_MATRIX_QUDIT_CAP:
            raise BudgetExceeded(
                f"check matrix has {nf + nv} rows, over the cap of {CHECK_MATRIX_QUDIT_CAP}"
            )
        body = [""] * (nf + nv)
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
