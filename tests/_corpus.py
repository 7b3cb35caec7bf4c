"""Frozen randomized corpora shared by the unit and acceptance tests.

Seeds are fixed so every run sees the same instances; generators only use
the local Random instance, never the global one.
"""

import random
from functools import lru_cache

from quhom.complex2 import ClosedWalk, SignedEdge, TwoComplex
from quhom.hypermap import Hypermap, SpecialDarts
from quhom.zmod import ZModMatrix

ACCEPTANCE_MODULI = (2, 3, 4, 6)


def _random_closed_walk(rng, vertices, out_steps, max_walk):
    for _ in range(60):
        start = rng.choice(vertices)
        if not out_steps[start]:
            continue
        length = rng.randint(1, max_walk)
        cur = start
        steps = []
        dead_end = False
        for _ in range(length):
            options = out_steps[cur]
            if not options:
                dead_end = True
                break
            signed, nxt = rng.choice(options)
            steps.append(signed)
            cur = nxt
        if not dead_end and cur == start:
            return ClosedWalk.of(steps)
    return None


def random_two_complex(rng, max_vertices=4, max_edges=6, max_faces=4, max_walk=6):
    nv = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(1, max_edges)
    edges, sources, targets = [], [], []
    for i in range(ne):
        edges.append(f"e{i}")
        sources.append(rng.choice(vertices))
        targets.append(rng.choice(vertices))
    out_steps = {v: [] for v in vertices}
    for e, s, t in zip(edges, sources, targets):
        out_steps[s].append((SignedEdge(e, 1), t))
        out_steps[t].append((SignedEdge(e, -1), s))
    faces, walks = [], []
    for _ in range(rng.randint(0, max_faces)):
        walk = _random_closed_walk(rng, vertices, out_steps, max_walk)
        if walk is not None:
            faces.append(f"f{len(faces)}")
            walks.append(walk)
    return TwoComplex(
        vertices=vertices,
        edges=tuple(edges),
        sources=tuple(sources),
        targets=tuple(targets),
        faces=tuple(faces),
        walks=tuple(walks),
    )


@lru_cache(maxsize=None)
def two_complex_corpus(count, seed=20240):
    rng = random.Random(seed)
    return tuple((random_two_complex(rng), f"c{i}") for i in range(count))


def acceptance_complexes():
    """The 100 instances every corpus-based acceptance criterion runs on."""
    return two_complex_corpus(100)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


@lru_cache(maxsize=None)
def hypermap_corpus(count, seed=771, max_darts=8):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, max_darts)
        h = Hypermap(n, random_permutation(rng, n), random_permutation(rng, n))
        out.append((h, f"h{i}"))
    return tuple(out)


def random_special_darts(rng, hypermap):
    choice = tuple(rng.choice(orbit) for orbit in hypermap.orbit_structure().hyperedges)
    return SpecialDarts.from_darts(hypermap, choice)


@lru_cache(maxsize=None)
def span_corpus(count, seed=40951):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 4)
        D = rng.choice([2, 3, 4, 5, 6])
        k = rng.randint(0, n)
        gens = [tuple(rng.randrange(D) for _ in range(n)) for _ in range(k)]
        out.append((ZModMatrix.from_rows(gens, n, D), f"s{i}"))
    return tuple(out)
