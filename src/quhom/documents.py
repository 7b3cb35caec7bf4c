"""JSON document schemas for 2-complexes and hypermaps.

Both schemas are strict: unknown fields are rejected, names must be unique,
and every value is type-checked.  A walk entry is a bare edge name for a
forward step or the name suffixed with '~' for a reversed one; an empty
walk array denotes the degenerate face produced by hypermap conversion.
A complex document is read into the index lists of `complex2.TwoComplex`.
"""

from __future__ import annotations

import json
from typing import Any

from .complex2 import TwoComplex, canonical_steps
from .errors import BudgetExceeded, ParseError, SchemaError
from .hypermap import Hypermap, SpecialDarts

COMPLEX_FIELDS = {"modulus", "vertices", "edges", "faces"}
EDGE_FIELDS = {"name", "source", "target"}
FACE_FIELDS = {"name", "walk"}
HYPERMAP_FIELDS = {"modulus", "n", "alpha", "sigma", "special_darts"}
HYPERMAP_DART_CAP = 4096  # largest n a hypermap document may declare


def _require_int(value: Any, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer")
    if value < minimum:
        raise SchemaError(f"{what} must be >= {minimum}, got {value}")
    return value


def _require_str(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{what} must be a non-empty string")
    return value


def _require_obj(value: Any, what: str, allowed: set) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object")
    unknown = set(value) - allowed
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {sorted(unknown)}")
    return value.copy()


def _require_fields(value: Any, what: str, fields: set, listed: str) -> dict:
    value = _require_obj(value, what, fields)
    if set(value) != fields:
        raise SchemaError(f"{what} objects need exactly {listed}")
    return value


def _index(names: tuple, what: str) -> dict:
    """Name -> position; the first name that repeats raises."""
    index = dict(zip(names, range(len(names))))
    if len(index) < len(names):
        seen = set()
        for name in names:
            if name in seen:
                raise SchemaError(f"duplicate {what} name {name!r}")
            seen.add(name)
    return index


def _resolve(names: list, index: dict, unknown: dict) -> tuple[int, ...]:
    """Each name's index.  A name not in `index` gets one past it, the same
    every time: its position in `unknown`, where it is added, plus len(index)."""
    try:
        return tuple(map(index.__getitem__, names))
    except KeyError:
        pass
    base = len(index)
    return tuple(
        index[name] if name in index else base + unknown.setdefault(name, len(unknown))
        for name in names
    )


def complex_from_dict(doc: Any) -> tuple[TwoComplex, int]:
    """The complex a document describes, as index lists, and its modulus.

    Names become indices as the document is read, with no object per walk
    step.  A value is checked with `type(value) is str`, and the
    `_require_*` helpers run only on one that fails, so they raise the same
    errors, in the same order, as a check of every value with them would.
    Names the document uses but does not declare become indices past the
    declared ones (see `TwoComplex`).
    """
    doc = _require_obj(doc, "document", COMPLEX_FIELDS)
    missing = COMPLEX_FIELDS - set(doc)
    if missing:
        raise SchemaError(f"document missing fields: {sorted(missing)}")
    modulus = _require_int(doc["modulus"], "modulus", 2)

    if not isinstance(doc["vertices"], list):
        raise SchemaError("vertices must be an array of strings")
    vertices = tuple(doc["vertices"])
    for name in vertices:
        if type(name) is not str or not name:
            _require_str(name, "vertex name")
    vertex_index = _index(vertices, "vertex")

    if not isinstance(doc["edges"], list):
        raise SchemaError("edges must be an array of objects")
    edges, sources, targets = [], [], []
    for entry in doc["edges"]:
        if type(entry) is not dict or entry.keys() != EDGE_FIELDS:
            entry = _require_fields(entry, "edge", EDGE_FIELDS, "name/source/target")
        name, source, target = entry["name"], entry["source"], entry["target"]
        if type(name) is not str or not name or "~" in name:
            _require_str(name, "edge name")
            if "~" in name:
                raise SchemaError(f"edge name {name!r} may not contain '~'")
        if type(source) is not str or not source:
            _require_str(source, "edge source")
        if type(target) is not str or not target:
            _require_str(target, "edge target")
        edges.append(name)
        sources.append(source)
        targets.append(target)
    edges = tuple(edges)
    edge_index = _index(edges, "edge")

    if not isinstance(doc["faces"], list):
        raise SchemaError("faces must be an array of objects")
    faces, walk_names, walk_signs, walk_offsets = [], [], [], [0]
    for entry in doc["faces"]:
        if type(entry) is not dict or entry.keys() != FACE_FIELDS:
            entry = _require_fields(entry, "face", FACE_FIELDS, "name/walk")
        name, walk = entry["name"], entry["walk"]
        if type(name) is not str or not name:
            _require_str(name, "face name")
        faces.append(name)
        if not isinstance(walk, list):
            raise SchemaError("face walk must be an array of edge names")
        for item in walk:
            if type(item) is not str or not item:
                _require_str(item, "walk entry")
            if item[-1] == "~":
                walk_names.append(item[:-1])
                walk_signs.append(-1)
            else:
                walk_names.append(item)
                walk_signs.append(1)
        walk_offsets.append(len(walk_names))
    faces = tuple(faces)
    _index(faces, "face")

    unknown_vertices, unknown_edges = {}, {}
    complex2 = TwoComplex(
        vertices=vertices,
        edges=edges,
        sources=_resolve(sources, vertex_index, unknown_vertices),
        targets=_resolve(targets, vertex_index, unknown_vertices),
        faces=faces,
        walk_edges=_resolve(walk_names, edge_index, unknown_edges),
        walk_signs=tuple(walk_signs),
        walk_offsets=tuple(walk_offsets),
        unknown_vertices=tuple(unknown_vertices),
        unknown_edges=tuple(unknown_edges),
    )
    return complex2, modulus


def complex_to_dict(complex2: TwoComplex, modulus: int) -> dict:
    """The document of a complex, each walk written in its canonical rotation."""
    vertex_names, edge_names = complex2.vertex_names, complex2.edge_names
    walk_edges, walk_signs = complex2.walk_edges, complex2.walk_signs
    return {
        "modulus": modulus,
        "vertices": list(complex2.vertices),
        "edges": [
            {"name": e, "source": vertex_names[s], "target": vertex_names[t]}
            for e, s, t in zip(complex2.edges, complex2.sources, complex2.targets)
        ],
        "faces": [
            {
                "name": face,
                "walk": [
                    edge_names[walk_edges[k]] + ("" if walk_signs[k] > 0 else "~")
                    for k in canonical_steps(complex2, f)
                ],
            }
            for f, face in enumerate(complex2.faces)
        ],
    }


def hypermap_from_dict(doc: Any) -> tuple[Hypermap, SpecialDarts, int]:
    doc = _require_obj(doc, "document", HYPERMAP_FIELDS)
    missing = {"modulus", "n", "alpha", "sigma"} - set(doc)
    if missing:
        raise SchemaError(f"document missing fields: {sorted(missing)}")
    modulus = _require_int(doc["modulus"], "modulus", 2)
    n = _require_int(doc["n"], "n", 1)
    if n > HYPERMAP_DART_CAP:
        raise BudgetExceeded(f"hypermap has {n} darts, over the cap of {HYPERMAP_DART_CAP}")

    def cycles(field):
        raw = doc[field]
        if not isinstance(raw, list) or any(not isinstance(c, list) for c in raw):
            raise SchemaError(f"{field} must be an array of cycles")
        for cycle in raw:
            for dart in cycle:
                _require_int(dart, f"{field} dart", 1)
        return raw

    try:
        hypermap = Hypermap.from_cycles(n, cycles("alpha"), cycles("sigma"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    if "special_darts" in doc:
        raw = doc["special_darts"]
        if not isinstance(raw, list):
            raise SchemaError("special_darts must be an array of darts")
        for dart in raw:
            _require_int(dart, "special dart", 1)
        try:
            specials = SpecialDarts.from_darts(hypermap, raw)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    else:
        specials = SpecialDarts.default(hypermap)
    return hypermap, specials, modulus


def read_text(path: str) -> str:
    """The file's text, decoded as UTF-8; OSError propagates, bad bytes raise ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None


def load_json(path: str) -> Any:
    """Read and decode a UTF-8 JSON document; OSError and JSONDecodeError propagate.

    Bytes that are not UTF-8, or nesting past Python's recursion limit, raise ParseError.
    """
    text = read_text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError("malformed JSON: arrays or objects nested too deep") from None
