"""Frozen randomized corpora shared by the unit and acceptance tests.

Seeds are fixed so every run sees the same instances; generators only use
the local Random instance, never the global one.
"""

import random
from functools import lru_cache

from quhom.complex2 import TwoComplex
from quhom.documents import complex_from_dict
from quhom.hypermap import Hypermap, SpecialDarts
from quhom.zmod import ZModMatrix

ACCEPTANCE_MODULI = (2, 3, 4, 6)


def _random_closed_walk(rng, vertices, out_steps, max_walk):
    """A closed walk as (edge index, sign) steps, or None after 60 tries."""
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
            return steps
    return None


def random_two_complex(rng, max_vertices=4, max_edges=6, max_faces=4, max_walk=6):
    nv = rng.randint(1, max_vertices)
    vertices = tuple(range(nv))
    ne = rng.randint(1, max_edges)
    sources, targets = [], []
    for _ in range(ne):
        sources.append(rng.choice(vertices))
        targets.append(rng.choice(vertices))
    out_steps = {v: [] for v in vertices}
    for e, (s, t) in enumerate(zip(sources, targets)):
        out_steps[s].append(((e, 1), t))
        out_steps[t].append(((e, -1), s))
    walks = []
    for _ in range(rng.randint(0, max_faces)):
        walk = _random_closed_walk(rng, vertices, out_steps, max_walk)
        if walk is not None:
            walks.append(walk)
    steps = [step for walk in walks for step in walk]
    offsets = [0]
    for walk in walks:
        offsets.append(offsets[-1] + len(walk))
    return TwoComplex(
        vertices=tuple(f"v{i}" for i in vertices),
        edges=tuple(f"e{i}" for i in range(ne)),
        sources=tuple(sources),
        targets=tuple(targets),
        faces=tuple(f"f{i}" for i in range(len(walks))),
        walk_edges=tuple(e for e, _ in steps),
        walk_signs=tuple(s for _, s in steps),
        walk_offsets=tuple(offsets),
    )


def named_complex(vertices, edges, faces):
    """A complex read from a document: edges as (name, source, target), faces
    as (name, walk entries), "e~" a step against the orientation of e."""
    doc = {
        "modulus": 2,
        "vertices": list(vertices),
        "edges": [{"name": e, "source": s, "target": t} for e, s, t in edges],
        "faces": [{"name": f, "walk": list(walk)} for f, walk in faces],
    }
    return complex_from_dict(doc)[0]


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
