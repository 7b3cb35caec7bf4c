"""Phase-tracked symplectic arithmetic for the qudit Pauli group.

A Pauli product w^phase X^x Z^z on n qudits is stored as (phase, x, z) with
all components in [0, D).  The multiplication rule keeps the phase inside
Z_D: commuting Z^z past X^x costs w^(z.x), so products of Pauli products
never leave the representable set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .complex2 import ChainComplexData
from .errors import BudgetExceeded, ScalarViolation, SchemaError
from .zmod import ZModMatrix, product_dtype, span_cardinality

ENUMERATION_CAP = 10**6
CELL_CAP = 1 << 14  # entries in one block of closure products; bounds memory


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


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
    def identity(cls, modulus: int, n: int) -> PauliProduct:
        return cls(modulus, 0, (0,) * n, (0,) * n)

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

    def _check_compatible(self, other: PauliProduct):
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.num_qudits != other.num_qudits:
            raise ValueError("qudit count mismatch")

    def multiply(self, other: PauliProduct) -> PauliProduct:
        """Product in X-before-Z normal form; reordering costs w^(z_P . x_Q)."""
        self._check_compatible(other)
        D = self.modulus
        return PauliProduct(
            D,
            self.phase + other.phase + _dot(self.z, other.x),
            tuple(a + b for a, b in zip(self.x, other.x)),
            tuple(a + b for a, b in zip(self.z, other.z)),
        )

    __mul__ = multiply

    def inverse(self) -> PauliProduct:
        return PauliProduct(
            self.modulus,
            _dot(self.z, self.x) - self.phase,
            tuple(-a for a in self.x),
            tuple(-a for a in self.z),
        )

    def commutation_phase(self, other: PauliProduct) -> int:
        """beta with P Q = w^beta Q P; zero iff the two commute."""
        self._check_compatible(other)
        return (_dot(self.z, other.x) - _dot(self.x, other.z)) % self.modulus

    def weight(self) -> int:
        """Number of qudits acted on nontrivially."""
        return sum(1 for a, b in zip(self.x, self.z) if a or b)

    def is_scalar(self) -> bool:
        return not any(self.x) and not any(self.z)


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


def face_operator(chain: ChainComplexData, f: int) -> PauliProduct:
    """Z-type product whose exponents are column f of the face boundary."""
    return PauliProduct.z_type(chain.modulus, chain.d2.column(f))


def vertex_operator(chain: ChainComplexData, v: int) -> PauliProduct:
    """X-type product read off row v of the edge boundary; self-loops cancel."""
    return PauliProduct.x_type(chain.modulus, chain.d1.row(v))


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

    `rows` holds one element per row, (phase, x..., z...), in discovery
    order; `elements` is the same set as raw (phase, x, z) triples, built
    on first use.
    """

    size: int
    scalar_violation: PauliProduct | None
    rows: np.ndarray = field(repr=False)

    @cached_property
    def elements(self) -> frozenset:
        n = (self.rows.shape[1] - 1) // 2
        return frozenset(
            (row[0], tuple(row[1 : n + 1]), tuple(row[n + 1 :])) for row in self.rows.tolist()
        )


def enumerate_pauli_closure(
    generators: Iterable[PauliProduct],
    modulus: int,
    num_qudits: int,
    cap: int = ENUMERATION_CAP,
) -> GroupEnumeration:
    """Breadth-first closure under multiplication, starting from the identity.

    One BFS level at a time: each block of the frontier times every
    generator is one numpy product, and new elements are kept in
    (parent, generator) order, the discovery order of a FIFO queue.  An
    element's key is its digits (phase, x, z) read in base D, exact in
    int64 or in Python ints.  Raises BudgetExceeded as soon as the
    discovered set outgrows the cap; the first element found with
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
    dtype = product_dtype(n + 2, D)  # phase + g_phase + z . g_x
    gens = np.array(gens, dtype=dtype).reshape(len(gens), width)
    g_x = gens[:, 1 : n + 1]
    key_dtype = np.int64 if D**width <= 2**63 else object
    weights = np.array([D**p for p in range(width - 1, -1, -1)], dtype=key_dtype)
    step = max(1, CELL_CAP // (max(len(gens), 1) * width))  # frontier rows per block

    frontier = np.zeros((1, width), dtype=dtype)
    levels = [frontier]
    seen = {0}  # the identity's key
    violation = None
    level = 0
    while len(frontier) and len(gens):
        level += 1
        found = []
        for lo in range(0, len(frontier), step):
            block = frontier[lo : lo + step]
            products = block[:, None, :] + gens
            products[:, :, 0] += block[:, n + 1 :] @ g_x.T
            products = products.reshape(-1, width) % D
            keys = products.astype(key_dtype, copy=False) @ weights
            fresh = []
            for i, key in enumerate(keys.tolist()):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            if len(seen) > cap:
                raise BudgetExceeded(
                    f"group closure exceeded cap {cap} at BFS level {level}"
                    f" ({cap + 1} elements found)",
                    examined=cap + 1,
                )
            new = products[fresh]
            if violation is None:
                scalars = np.flatnonzero((new[:, 0] != 0) & ~(new[:, 1:] != 0).any(axis=1))
                if len(scalars):
                    row = new[scalars[0]].tolist()
                    violation = PauliProduct(D, row[0], row[1 : n + 1], row[n + 1 :])
            found.append(new)
        frontier = np.concatenate(found)
        levels.append(frontier)
    rows = np.concatenate(levels)
    return GroupEnumeration(len(rows), violation, rows)


def enumerate_group(spec: StabilizerSpec, cap: int = ENUMERATION_CAP) -> GroupEnumeration:
    """Closure of the spec's generators; refuses when the span-predicted size is over cap."""
    predicted = span_cardinality(spec.face_matrix) * span_cardinality(spec.vertex_matrix)
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
