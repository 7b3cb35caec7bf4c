"""Combinatorial oriented 2-complexes and their chain complexes over Z_D.

A 2-complex is an oriented graph (vertices, directed edges with source and
target maps) plus faces, each glued along a closed walk of edges and their
formal inverses.  Everything is immutable; matrices come out as ZModMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .zmod import ZModMatrix, kernel_cardinality, span_cardinality


@dataclass(frozen=True)
class SignedEdge:
    """An edge traversed forward (sign +1) or against its orientation (-1)."""

    edge: str
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class ClosedWalk:
    """Cyclic sequence of signed edges, stored in canonical rotation.

    The canonical representative is the lexicographically minimal rotation
    of the (edge id, sign) sequence with + ordered before -.  An empty walk
    is the degenerate face produced by hypermap conversion (its boundary
    column is zero).
    """

    steps: tuple[SignedEdge, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if steps:
            # the first rotation with the minimal key starts at a minimal step key
            keys = [(s.edge, s.sign < 0) for s in steps]
            first = min(keys)
            start = keys.index(first)
            if keys.count(first) > 1:
                doubled, n = keys * 2, len(keys)
                starts = (i for i, key in enumerate(keys) if key == first)
                start = min(starts, key=lambda i: doubled[i : i + n])
            steps = steps[start:] + steps[:start]
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def is_degenerate(self) -> bool:
        return not self.steps


@dataclass(frozen=True)
class TwoComplex:
    """(V, E, I_s, I_t, F, B) with edge data aligned positionally."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    faces: tuple[str, ...]
    walks: tuple[ClosedWalk, ...]

    def __post_init__(self):
        if len(self.sources) != len(self.edges) or len(self.targets) != len(self.edges):
            raise ValueError("sources/targets must align with edges")
        if len(self.walks) != len(self.faces):
            raise ValueError("walks must align with faces")

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.edges)}

    def step_source(self, step: SignedEdge) -> str:
        i = self.edge_index[step.edge]
        return self.sources[i] if step.sign > 0 else self.targets[i]

    def step_target(self, step: SignedEdge) -> str:
        i = self.edge_index[step.edge]
        return self.targets[i] if step.sign > 0 else self.sources[i]


def validate(complex2: TwoComplex) -> list[str]:
    """All structural violations, empty when valid.

    Reports dangling vertex/edge references and every incidence break
    (target of step i must be the source of step i+1, cyclically).
    """
    violations = []
    vset = set(complex2.vertices)
    eset = set(complex2.edges)
    for e, s, t in zip(complex2.edges, complex2.sources, complex2.targets):
        if s not in vset:
            violations.append(f"edge {e}: unknown source vertex {s!r}")
        if t not in vset:
            violations.append(f"edge {e}: unknown target vertex {t!r}")
    for f, walk in zip(complex2.faces, complex2.walks):
        bad_ref = False
        for pos, step in enumerate(walk.steps):
            if step.edge not in eset:
                violations.append(f"face {f}: step {pos} references unknown edge {step.edge!r}")
                bad_ref = True
        if bad_ref or walk.is_degenerate:
            continue
        n = len(walk.steps)
        for pos in range(n):
            cur = walk.steps[pos]
            nxt = walk.steps[(pos + 1) % n]
            if complex2.step_target(cur) != complex2.step_source(nxt):
                violations.append(
                    f"face {f}: incidence break at position {pos}->{(pos + 1) % n}: "
                    f"target {complex2.step_target(cur)!r} != source {complex2.step_source(nxt)!r}"
                )
    return violations


def boundary1(complex2: TwoComplex, modulus: int) -> ZModMatrix:
    """|V| x |E| matrix: column e is I_t(e) - I_s(e); zero for self-loops."""
    index = complex2.vertex_index
    num_edges = len(complex2.edges)
    return ZModMatrix.from_coo(
        len(complex2.vertices),
        num_edges,
        modulus,
        [index[v] for v in complex2.targets + complex2.sources],
        [*range(num_edges), *range(num_edges)],
        [1] * num_edges + [-1] * num_edges,
    )


def boundary2(complex2: TwoComplex, modulus: int) -> ZModMatrix:
    """|E| x |F| matrix: column f holds the signed edge multiplicities of B(f).

    Each step is one signed entry, and entries at the same position are
    summed over the integers before reduction, so a walk traversing an
    edge both ways cancels and one traversing it twice the same way
    contributes 2.
    """
    index = complex2.edge_index
    steps = [(index[s.edge], f, s.sign) for f, walk in enumerate(complex2.walks) for s in walk.steps]
    rows, cols, signs = zip(*steps) if steps else ((), (), ())
    return ZModMatrix.from_coo(
        len(complex2.edges), len(complex2.faces), modulus, rows, cols, signs
    )


@dataclass(frozen=True)
class ChainComplexData:
    """Boundary pair with d1 @ d2 = 0 over Z_D."""

    modulus: int
    d1: ZModMatrix
    d2: ZModMatrix

    def __post_init__(self):
        if self.d1.modulus != self.modulus or self.d2.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        if self.d1.ncols != self.d2.nrows:
            raise ValueError("boundary shapes do not compose")
        if not (self.d1 @ self.d2).is_zero():
            raise ValueError("not a chain complex: d1 @ d2 != 0 mod D")

    @property
    def num_edges(self) -> int:
        return self.d1.ncols


def chain_complex(complex2: TwoComplex, modulus: int) -> ChainComplexData:
    return ChainComplexData(
        modulus=modulus,
        d1=boundary1(complex2, modulus),
        d2=boundary2(complex2, modulus),
    )


def homology_cardinality(chain: ChainComplexData) -> int:
    """|H_1| = |ker d1| / |im d2|; the division is exact since im is in ker.

    Both counts come from the row spans of d1 and d2^T, the spans a spec
    built from this chain reads K from, so each is counted once.
    """
    cycles = kernel_cardinality(chain.d1)
    boundaries = span_cardinality(chain.d2.transpose())
    if cycles % boundaries:
        raise AssertionError("im d2 not contained in ker d1")
    return cycles // boundaries


def faces_sum_to_zero(d2: ZModMatrix) -> bool:
    """True iff the columns of d2, the face boundaries, sum to zero mod D."""
    return not d2.row_sums().any()


def is_orientable_integral(complex2: TwoComplex) -> bool:
    """The D-independent version: signed multiplicities sum to zero over Z."""
    totals = dict.fromkeys(complex2.edges, 0)  # the integral row sums of d2
    for walk in complex2.walks:
        for step in walk.steps:
            totals[step.edge] += step.sign
    return not any(totals.values())


def rp2() -> TwoComplex:
    """Projective plane: one vertex, one self-loop, one face glued along [e, e]."""
    return TwoComplex(
        vertices=("v",),
        edges=("e",),
        sources=("v",),
        targets=("v",),
        faces=("f",),
        walks=(ClosedWalk((SignedEdge("e", 1), SignedEdge("e", 1))),),
    )


def torus() -> TwoComplex:
    """Torus as a single cell: one vertex, two self-loops, B(f) = [e1, e2, e1~, e2~]."""
    walk = ClosedWalk(
        (SignedEdge("e1", 1), SignedEdge("e2", 1), SignedEdge("e1", -1), SignedEdge("e2", -1))
    )
    return TwoComplex(
        vertices=("v",),
        edges=("e1", "e2"),
        sources=("v", "v"),
        targets=("v", "v"),
        faces=("f",),
        walks=(walk,),
    )


def torus_grid(k: int, l: int) -> TwoComplex:
    """k x l square grid on the torus with periodic wrap.

    Edges point rightward (r{i}.{j}) and upward (u{i}.{j}) from vertex
    v{i}.{j}; each face is the counterclockwise walk around one square.
    """
    if k < 1 or l < 1:
        raise ValueError("grid dimensions must be >= 1")
    vertices = tuple(f"v{i}.{j}" for i in range(k) for j in range(l))
    edges = []
    sources = []
    targets = []
    for i in range(k):
        for j in range(l):
            edges.append(f"r{i}.{j}")
            sources.append(f"v{i}.{j}")
            targets.append(f"v{i}.{(j + 1) % l}")
            edges.append(f"u{i}.{j}")
            sources.append(f"v{i}.{j}")
            targets.append(f"v{(i + 1) % k}.{j}")
    faces = []
    walks = []
    for i in range(k):
        for j in range(l):
            faces.append(f"f{i}.{j}")
            walks.append(
                ClosedWalk(
                    (
                        SignedEdge(f"r{i}.{j}", 1),
                        SignedEdge(f"u{i}.{(j + 1) % l}", 1),
                        SignedEdge(f"r{(i + 1) % k}.{j}", -1),
                        SignedEdge(f"u{i}.{j}", -1),
                    )
                )
            )
    return TwoComplex(
        vertices=vertices,
        edges=tuple(edges),
        sources=tuple(sources),
        targets=tuple(targets),
        faces=tuple(faces),
        walks=tuple(walks),
    )
