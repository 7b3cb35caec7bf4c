"""Combinatorial hypermaps and their conversion to equivalent 2-complexes.

A hypermap is a pair of permutations (alpha, sigma) on the darts {1..n}.
Hyperedges are the orbits of alpha, hypervertices the orbits of sigma, and
faces the orbits of the map i -> sigma(alpha^-1(i)) (the left-to-right
composition convention; the face traversal is i_{s+1} = alpha^-1 sigma (i_s)).

Choosing one special dart per hyperedge makes the dart quotient free with
the non-special darts as basis.  The Delta matrices of the hypermap code
are two sparse products with that quotient: Delta2 = Q d2, where Q maps a
dart vector to its basis coordinates, and Delta1 = d1 J, where J includes
the basis in the darts.  Independently, face walks build a 2-complex
whose boundary matrices coincide with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .complex2 import ChainComplexData, ClosedWalk, SignedEdge, TwoComplex, boundary1
from .zmod import ZModMatrix

Permutation = tuple[int, ...]


def permutation_from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> Permutation:
    """Build a permutation of {1..n} from disjoint cycles; fixed points may be omitted."""
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cycle in cycles:
        for dart in cycle:
            if not isinstance(dart, int) or isinstance(dart, bool) or not 1 <= dart <= n:
                raise ValueError(f"dart {dart!r} out of range 1..{n}")
            if dart in seen:
                raise ValueError(f"dart {dart} appears in more than one cycle")
            seen.add(dart)
        for a, b in zip(cycle, list(cycle[1:]) + list(cycle[:1])):
            images[a - 1] = b
    perm = tuple(images)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("cycles do not describe a permutation")
    return perm


def inverse_permutation(perm: Permutation) -> Permutation:
    inv = [0] * len(perm)
    for i, img in enumerate(perm, start=1):
        inv[img - 1] = i
    return tuple(inv)


def orbits(perm: Permutation) -> tuple[tuple[int, ...], ...]:
    """Cycle partition; each orbit traversed from its smallest element."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        orbit = [start]
        seen[start - 1] = True
        cur = perm[start - 1]
        while cur != start:
            orbit.append(cur)
            seen[cur - 1] = True
            cur = perm[cur - 1]
        out.append(tuple(orbit))
    return tuple(out)


def _orbit_lookup(parts: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    lookup = [0] * n
    for idx, orbit in enumerate(parts):
        for dart in orbit:
            lookup[dart - 1] = idx
    return tuple(lookup)


@dataclass(frozen=True)
class OrbitStructure:
    """Hyperedges, hypervertices, faces, and dart -> hyperedge and hypervertex lookups."""

    hyperedges: tuple[tuple[int, ...], ...]
    hypervertices: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]
    hyperedge_of: tuple[int, ...]
    hypervertex_of: tuple[int, ...]


@dataclass(frozen=True)
class Hypermap:
    n: int
    alpha: Permutation
    sigma: Permutation

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dart count must be >= 1")
        for name, perm in (("alpha", self.alpha), ("sigma", self.sigma)):
            if sorted(perm) != list(range(1, self.n + 1)):
                raise ValueError(f"{name} is not a permutation of 1..{self.n}")

    @classmethod
    def from_cycles(cls, n: int, alpha: Sequence[Sequence[int]], sigma: Sequence[Sequence[int]]) -> Hypermap:
        return cls(n, permutation_from_cycles(n, alpha), permutation_from_cycles(n, sigma))

    @cached_property
    def alpha_inverse(self) -> Permutation:
        return inverse_permutation(self.alpha)

    @cached_property
    def face_map(self) -> Permutation:
        """i -> sigma(alpha^-1(i))."""
        return tuple(self.sigma[self.alpha_inverse[i - 1] - 1] for i in range(1, self.n + 1))

    def orbit_structure(self) -> OrbitStructure:
        return self._orbit_structure

    @cached_property
    def _orbit_structure(self) -> OrbitStructure:
        hyperedges = orbits(self.alpha)
        hypervertices = orbits(self.sigma)
        faces = orbits(self.face_map)
        return OrbitStructure(
            hyperedges=hyperedges,
            hypervertices=hypervertices,
            faces=faces,
            hyperedge_of=_orbit_lookup(hyperedges, self.n),
            hypervertex_of=_orbit_lookup(hypervertices, self.n),
        )


@dataclass(frozen=True)
class SpecialDarts:
    """One chosen dart per hyperedge, aligned with the hyperedge orbit order."""

    darts: tuple[int, ...]

    @classmethod
    def default(cls, hypermap: Hypermap) -> SpecialDarts:
        return cls(tuple(orbit[0] for orbit in hypermap.orbit_structure().hyperedges))

    @classmethod
    def from_darts(cls, hypermap: Hypermap, darts: Iterable[int]) -> SpecialDarts:
        chosen = list(darts)
        structure = hypermap.orbit_structure()
        if len(chosen) != len(structure.hyperedges):
            raise ValueError(
                f"need exactly one special dart per hyperedge "
                f"({len(structure.hyperedges)}), got {len(chosen)}"
            )
        if len(set(chosen)) != len(chosen):
            raise ValueError("special darts must be distinct")
        slots: list[int | None] = [None] * len(structure.hyperedges)
        for dart in chosen:
            if not 1 <= dart <= hypermap.n:
                raise ValueError(f"dart {dart} out of range 1..{hypermap.n}")
            idx = structure.hyperedge_of[dart - 1]
            if slots[idx] is not None:
                raise ValueError(f"hyperedge {structure.hyperedges[idx]} has two special darts")
            slots[idx] = dart
        return cls(tuple(slots))  # no None left: counts matched and all distinct

    @cached_property
    def special_set(self) -> frozenset:
        return frozenset(self.darts)

    def non_special(self, n: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, n + 1) if i not in self.special_set)


def d2_matrix(hypermap: Hypermap, modulus: int) -> ZModMatrix:
    """Darts x faces; column f is the indicator of the darts in face f."""
    faces = hypermap.orbit_structure().faces
    pairs = [(dart - 1, f) for f, orbit in enumerate(faces) for dart in orbit]
    rows, cols = zip(*pairs)  # every dart lies in one face, and there is at least one dart
    return ZModMatrix.from_coo(hypermap.n, len(faces), modulus, rows, cols, [1] * len(pairs))


def d1_matrix(hypermap: Hypermap, modulus: int) -> ZModMatrix:
    """Hypervertices x darts; column i is v(alpha^-1(i)) - v(i)."""
    structure = hypermap.orbit_structure()
    n = hypermap.n
    heads = [structure.hypervertex_of[a - 1] for a in hypermap.alpha_inverse]
    return ZModMatrix.from_coo(
        len(structure.hypervertices), n, modulus, heads + list(structure.hypervertex_of),
        [*range(n), *range(n)], [1] * n + [-1] * n,
    )


def quotient_matrix(hypermap: Hypermap, specials: SpecialDarts, modulus: int) -> ZModMatrix:
    """Q, non-special darts x darts: coordinates in the basis of the dart quotient.

    Each special dart satisfies [s_e] = -sum of the other darts of its
    hyperedge, so the coefficient landing on the k-th non-special dart j is
    v[j] - v[s_e(j)]: row k has +1 at j and -1 at s_e(j).
    """
    structure = hypermap.orbit_structure()
    basis = specials.non_special(hypermap.n)
    k = len(basis)
    partners = [specials.darts[structure.hyperedge_of[j - 1]] for j in basis]
    return ZModMatrix.from_coo(
        k, hypermap.n, modulus, [*range(k), *range(k)],
        [j - 1 for j in (*basis, *partners)], [1] * k + [-1] * k,
    )


def delta_matrices(hypermap: Hypermap, specials: SpecialDarts, modulus: int) -> ChainComplexData:
    """The hypermap code's chain: Delta2 = Q d2 and Delta1 = d1 J.

    Q is `quotient_matrix` and J (darts x non-special darts) the inclusion
    of the basis, so Delta1 is d1 on the non-special darts.
    """
    basis = specials.non_special(hypermap.n)
    inclusion = ZModMatrix.from_coo(
        hypermap.n, len(basis), modulus, [j - 1 for j in basis], range(len(basis)), [1] * len(basis)
    )
    return ChainComplexData(
        modulus,
        d1_matrix(hypermap, modulus) @ inclusion,
        quotient_matrix(hypermap, specials, modulus) @ d2_matrix(hypermap, modulus),
    )


def to_two_complex(hypermap: Hypermap, specials: SpecialDarts) -> TwoComplex:
    """The 2-complex whose boundary matrices equal the Delta matrices.

    Vertices are the hypervertices, edges the non-special darts (dart i runs
    from v(i) to v(alpha^-1(i))), faces the face orbits.  In each face
    traversal a special dart is replaced by the reversed remainder of its
    hyperedge walked under alpha; a face of nothing but singleton special
    darts degenerates to the empty walk.
    """
    structure = hypermap.orbit_structure()
    vertices = tuple(f"v{orbit[0]}" for orbit in structure.hypervertices)
    basis = specials.non_special(hypermap.n)
    edges = tuple(f"d{i}" for i in basis)
    sources = tuple(vertices[structure.hypervertex_of[i - 1]] for i in basis)
    targets = tuple(
        vertices[structure.hypervertex_of[hypermap.alpha_inverse[i - 1] - 1]]
        for i in basis
    )
    faces = []
    walks = []
    for orbit in structure.faces:
        steps: list[SignedEdge] = []
        for dart in orbit:
            if dart not in specials.special_set:
                steps.append(SignedEdge(f"d{dart}", 1))
                continue
            j = hypermap.alpha[dart - 1]
            while j != dart:
                steps.append(SignedEdge(f"d{j}", -1))
                j = hypermap.alpha[j - 1]
        faces.append(f"f{orbit[0]}")
        walks.append(ClosedWalk(steps))
    return TwoComplex(
        vertices=vertices,
        edges=edges,
        sources=sources,
        targets=targets,
        faces=tuple(faces),
        walks=tuple(walks),
    )


def verify_equivalence(
    hypermap: Hypermap, specials: SpecialDarts, complex2: TwoComplex, modulus: int, d2: ZModMatrix
) -> bool:
    """Entrywise equality of complex2's (boundary1, boundary2) with (Delta1, Delta2).

    complex2 is the output of to_two_complex(hypermap, specials), so the
    check reads the complex that is emitted.  Both sides are expressed in
    the same bases: hypervertices, non-special darts in increasing order,
    and face orbits.  A Delta pair that is not a chain complex equals none.
    `d2` is boundary2(complex2, modulus), which the caller builds once.
    """
    try:
        chain = delta_matrices(hypermap, specials, modulus)
    except ValueError:
        return False
    return boundary1(complex2, modulus) == chain.d1 and d2 == chain.d2
