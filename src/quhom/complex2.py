"""Combinatorial oriented 2-complexes and their chain complexes over Z_D.

A 2-complex is an oriented graph (vertices, directed edges with source and
target maps) plus faces, each glued along a closed walk of edges and their
formal inverses.  It is held as names and index lists, resolved once when
it is read or built.  Everything is immutable; matrices come out as
ZModMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .zmod import ZModMatrix, kernel_cardinality, span_cardinality


@dataclass(frozen=True)
class TwoComplex:
    """(V, E, I_s, I_t, F, B) as names and index lists.

    Edge e runs from vertex `sources[e]` to vertex `targets[e]`.  The walks
    are flat: face f's steps are k in range(walk_offsets[f],
    walk_offsets[f + 1]), and step k traverses edge `walk_edges[k]` forward
    when `walk_signs[k]` is +1 and against its orientation when it is -1.
    An empty walk is the degenerate face produced by hypermap conversion
    (its boundary column is zero).

    A document may refer to vertices and edges it does not declare.  Such a
    reference is an index past the declared names, into `unknown_vertices`
    or `unknown_edges`; `validate` reports it.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    sources: tuple[int, ...]
    targets: tuple[int, ...]
    faces: tuple[str, ...]
    walk_edges: tuple[int, ...]
    walk_signs: tuple[int, ...]
    walk_offsets: tuple[int, ...]
    unknown_vertices: tuple[str, ...] = ()
    unknown_edges: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.sources) != len(self.edges) or len(self.targets) != len(self.edges):
            raise ValueError("sources/targets must align with edges")
        offsets = self.walk_offsets
        if len(offsets) != len(self.faces) + 1 or offsets[0] != 0 or offsets[-1] != len(self.walk_edges):
            raise ValueError("walk offsets must align with faces and steps")
        if len(self.walk_signs) != len(self.walk_edges):
            raise ValueError("walk signs must align with steps")

    @property
    def vertex_names(self) -> tuple[str, ...]:
        """Every vertex index's name: the declared vertices, then the unknown ones."""
        return self.vertices + self.unknown_vertices

    @property
    def edge_names(self) -> tuple[str, ...]:
        """Every edge index's name: the declared edges, then the unknown ones."""
        return self.edges + self.unknown_edges


def canonical_steps(complex2: TwoComplex, face: int) -> list[int]:
    """The face's step indices, in its walk's canonical rotation.

    That is the lexicographically least rotation of the (edge name, sign)
    sequence, with + ordered before -.  Documents are written in it, and
    `validate` numbers the positions of a walk in it.
    """
    lo, hi = complex2.walk_offsets[face], complex2.walk_offsets[face + 1]
    if lo == hi:
        return []
    names, signs = complex2.edge_names, complex2.walk_signs
    keys = [(names[complex2.walk_edges[k]], signs[k] < 0) for k in range(lo, hi)]
    # the first least rotation starts at a least key
    first = min(keys)
    start = keys.index(first)
    if keys.count(first) > 1:
        doubled, n = keys * 2, len(keys)
        starts = (i for i, key in enumerate(keys) if key == first)
        start = min(starts, key=lambda i: doubled[i : i + n])
    return [*range(lo + start, hi), *range(lo, lo + start)]


def _step_ends(complex2: TwoComplex) -> tuple[list, list]:
    """The vertex each walk step leaves and the one it reaches; None on an unknown edge."""
    pad = (None,) * len(complex2.unknown_edges)
    sources, targets = complex2.sources + pad, complex2.targets + pad
    steps = complex2.walk_edges, complex2.walk_signs
    tails = [sources[e] if s > 0 else targets[e] for e, s in zip(*steps)]
    heads = [targets[e] if s > 0 else sources[e] for e, s in zip(*steps)]
    return tails, heads


def validate(complex2: TwoComplex) -> list[str]:
    """All structural violations, empty when valid.

    Reports dangling vertex/edge references and every incidence break
    (target of step i must be the source of step i+1, cyclically), with
    positions in each walk's canonical rotation.  The heads and tails of
    all steps are compared at once; the rotation is found only for the
    faces that have a violation.
    """
    violations = []
    num_vertices, num_edges = len(complex2.vertices), len(complex2.edges)
    vertex_names = complex2.vertex_names
    if complex2.unknown_vertices:
        for e, s, t in zip(complex2.edges, complex2.sources, complex2.targets):
            if s >= num_vertices:
                violations.append(f"edge {e}: unknown source vertex {vertex_names[s]!r}")
            if t >= num_vertices:
                violations.append(f"edge {e}: unknown target vertex {vertex_names[t]!r}")
    tails, heads = _step_ends(complex2)
    bounds = list(zip(complex2.walk_offsets, complex2.walk_offsets[1:]))
    nexts = tails[1:] + tails[:1]  # the tail of the next step of the same walk
    for lo, hi in bounds:
        if hi > lo:
            nexts[hi - 1] = tails[lo]
    if heads == nexts and not complex2.unknown_edges:
        return violations
    edge_names, walk_edges = complex2.edge_names, complex2.walk_edges
    for f, (lo, hi) in enumerate(bounds):
        if heads[lo:hi] == nexts[lo:hi] and None not in heads[lo:hi]:
            continue
        face = complex2.faces[f]
        order = canonical_steps(complex2, f)
        unknown = [
            f"face {face}: step {pos} references unknown edge {edge_names[walk_edges[k]]!r}"
            for pos, k in enumerate(order)
            if walk_edges[k] >= num_edges
        ]
        violations += unknown
        if unknown:
            continue
        n = len(order)
        for pos, k in enumerate(order):
            head, tail = heads[k], tails[order[(pos + 1) % n]]
            if head != tail:
                violations.append(
                    f"face {face}: incidence break at position {pos}->{(pos + 1) % n}: "
                    f"target {vertex_names[head]!r} != source {vertex_names[tail]!r}"
                )
    return violations


def boundary1(complex2: TwoComplex, modulus: int) -> ZModMatrix:
    """|V| x |E| matrix: column e is I_t(e) - I_s(e); zero for self-loops."""
    num_edges = len(complex2.edges)
    return ZModMatrix.from_coo(
        len(complex2.vertices),
        num_edges,
        modulus,
        complex2.targets + complex2.sources,
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
    offsets = complex2.walk_offsets
    faces = [f for f, (lo, hi) in enumerate(zip(offsets, offsets[1:])) for _ in range(lo, hi)]
    return ZModMatrix.from_coo(
        len(complex2.edges), len(complex2.faces), modulus,
        complex2.walk_edges, faces, complex2.walk_signs,
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
    totals = [0] * len(complex2.edges)  # the integral row sums of d2
    for e, s in zip(complex2.walk_edges, complex2.walk_signs):
        totals[e] += s
    return not any(totals)


def rp2() -> TwoComplex:
    """Projective plane: one vertex, one self-loop, one face glued along [e, e]."""
    return TwoComplex(
        vertices=("v",),
        edges=("e",),
        sources=(0,),
        targets=(0,),
        faces=("f",),
        walk_edges=(0, 0),
        walk_signs=(1, 1),
        walk_offsets=(0, 2),
    )


def torus() -> TwoComplex:
    """Torus as a single cell: one vertex, two self-loops, B(f) = [e1, e2, e1~, e2~]."""
    return TwoComplex(
        vertices=("v",),
        edges=("e1", "e2"),
        sources=(0, 0),
        targets=(0, 0),
        faces=("f",),
        walk_edges=(0, 1, 0, 1),
        walk_signs=(1, 1, -1, -1),
        walk_offsets=(0, 4),
    )


def torus_grid(k: int, l: int) -> TwoComplex:
    """k x l square grid on the torus with periodic wrap.

    Edges point rightward (r{i}.{j}, index 2(il + j)) and upward (u{i}.{j},
    index 2(il + j) + 1) from vertex v{i}.{j} (index il + j); each face is
    the counterclockwise walk around one square.
    """
    if k < 1 or l < 1:
        raise ValueError("grid dimensions must be >= 1")
    cells = [(i, j) for i in range(k) for j in range(l)]
    sources, targets, walk_edges = [], [], []
    for i, j in cells:
        right, up = i * l + (j + 1) % l, (i + 1) % k * l + j
        sources += [i * l + j, i * l + j]
        targets += [right, up]
        walk_edges += [2 * (i * l + j), 2 * right + 1, 2 * up, 2 * (i * l + j) + 1]
    return TwoComplex(
        vertices=tuple(f"v{i}.{j}" for i, j in cells),
        edges=tuple(name for i, j in cells for name in (f"r{i}.{j}", f"u{i}.{j}")),
        sources=tuple(sources),
        targets=tuple(targets),
        faces=tuple(f"f{i}.{j}" for i, j in cells),
        walk_edges=tuple(walk_edges),
        walk_signs=(1, 1, -1, -1) * len(cells),
        walk_offsets=tuple(range(0, 4 * len(cells) + 1, 4)),
    )
