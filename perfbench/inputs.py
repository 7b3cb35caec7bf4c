"""Seeded input documents for the benchmark, built without importing quhom.

Every generator takes a ``random.Random`` and returns a plain JSON-ready
dict in the schema the CLI reads.  Named complexes (torus grids, rp2, the
one-cell torus) are relabeled: vertex, edge and face names are replaced by
random distinct names, the three lists are shuffled, edge orientations are
flipped, and each face walk is rotated and possibly inverted.  None of this
changes the code parameters K and d, but it changes every search order and
every SNF pivot sequence, so no two operations see the same input.
"""

from __future__ import annotations

NAME_SPACE = 10**7
# Random 2-complexes: at most this many vertices and faces, walks this long.
MAX_VERTICES = 4
MAX_FACES = 4
MAX_WALK = 6


def torus_grid_doc(k: int, l: int, modulus: int) -> dict:
    """The k x l torus grid in the same layout as ``--builtin torus-grid:KxL``."""
    vertices = [f"v{i}.{j}" for i in range(k) for j in range(l)]
    edges = []
    for i in range(k):
        for j in range(l):
            edges.append({"name": f"r{i}.{j}", "source": f"v{i}.{j}", "target": f"v{i}.{(j + 1) % l}"})
            edges.append({"name": f"u{i}.{j}", "source": f"v{i}.{j}", "target": f"v{(i + 1) % k}.{j}"})
    faces = [
        {
            "name": f"f{i}.{j}",
            "walk": [f"r{i}.{j}", f"u{i}.{(j + 1) % l}", f"r{(i + 1) % k}.{j}~", f"u{i}.{j}~"],
        }
        for i in range(k)
        for j in range(l)
    ]
    return {"modulus": modulus, "vertices": vertices, "edges": edges, "faces": faces}


def rp2_doc(modulus: int) -> dict:
    return {
        "modulus": modulus,
        "vertices": ["v"],
        "edges": [{"name": "e", "source": "v", "target": "v"}],
        "faces": [{"name": "f", "walk": ["e", "e"]}],
    }


def torus_doc(modulus: int) -> dict:
    """The one-cell torus: one vertex, two loops, B(f) = e1 e2 e1~ e2~."""
    return {
        "modulus": modulus,
        "vertices": ["v"],
        "edges": [
            {"name": "e1", "source": "v", "target": "v"},
            {"name": "e2", "source": "v", "target": "v"},
        ],
        "faces": [{"name": "f", "walk": ["e1", "e2", "e1~", "e2~"]}],
    }


def _fresh_names(rng, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{n}" for n in rng.sample(range(NAME_SPACE), count)]


def _parse_step(step: str) -> tuple[str, int]:
    return (step[:-1], -1) if step.endswith("~") else (step, 1)


def relabel(doc: dict, rng) -> dict:
    """A randomly relabeled copy of a complex document with the same K and d."""
    vnames = dict(zip(doc["vertices"], _fresh_names(rng, "v", len(doc["vertices"]))))
    enames = dict(zip((e["name"] for e in doc["edges"]), _fresh_names(rng, "e", len(doc["edges"]))))
    fnames = _fresh_names(rng, "f", len(doc["faces"]))
    flipped = {e["name"]: rng.random() < 0.5 for e in doc["edges"]}

    edges = []
    for e in doc["edges"]:
        src, dst = vnames[e["source"]], vnames[e["target"]]
        if flipped[e["name"]]:
            src, dst = dst, src
        edges.append({"name": enames[e["name"]], "source": src, "target": dst})

    faces = []
    for face, name in zip(doc["faces"], fnames):
        steps = []
        for raw in face["walk"]:
            edge, sign = _parse_step(raw)
            steps.append((enames[edge], -sign if flipped[edge] else sign))
        if steps:
            cut = rng.randrange(len(steps))
            steps = steps[cut:] + steps[:cut]
            if rng.random() < 0.5:
                steps = [(edge, -sign) for edge, sign in reversed(steps)]
        faces.append({"name": name, "walk": [e if s > 0 else e + "~" for e, s in steps]})

    vertices = list(vnames.values())
    for items in (vertices, edges, faces):
        rng.shuffle(items)
    return {"modulus": doc["modulus"], "vertices": vertices, "edges": edges, "faces": faces}


def _random_closed_walk(rng, vertices, out_steps):
    for _ in range(60):
        start = rng.choice(vertices)
        if not out_steps[start]:
            continue
        cur, steps = start, []
        for _ in range(rng.randint(1, MAX_WALK)):
            step, cur = rng.choice(out_steps[cur])
            steps.append(step)
        if cur == start:
            return steps
    return None


def random_complex_doc(rng, modulus: int, num_edges: int) -> dict:
    """A random valid 2-complex: random directed multigraph, faces on random closed walks."""
    vertices = [f"v{i}" for i in range(rng.randint(1, MAX_VERTICES))]
    edges = []
    out_steps = {v: [] for v in vertices}
    for i in range(num_edges):
        name, src, dst = f"e{i}", rng.choice(vertices), rng.choice(vertices)
        edges.append({"name": name, "source": src, "target": dst})
        out_steps[src].append((name, dst))
        out_steps[dst].append((name + "~", src))
    faces = []
    for _ in range(rng.randint(0, MAX_FACES)):
        walk = _random_closed_walk(rng, vertices, out_steps)
        if walk is not None:
            faces.append({"name": f"f{len(faces)}", "walk": walk})
    return {"modulus": modulus, "vertices": vertices, "edges": edges, "faces": faces}


def _cycles(perm: list[int]) -> list[list[int]]:
    """Disjoint-cycle form of a permutation of 1..n given as its image list."""
    seen, out = set(), []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur)
            cur = perm[cur - 1]
        out.append(cycle)
    return out


def random_hypermap_doc(rng, modulus: int, n: int) -> dict:
    """Uniform random (alpha, sigma) on the darts 1..n.

    Half of the documents name one random special dart per hyperedge; the
    other half leave the choice to the CLI default.
    """
    alpha, sigma = (rng.sample(range(1, n + 1), n) for _ in range(2))
    doc = {"modulus": modulus, "n": n, "alpha": _cycles(alpha), "sigma": _cycles(sigma)}
    if rng.random() < 0.5:
        doc["special_darts"] = [rng.choice(cycle) for cycle in doc["alpha"]]
    return doc
