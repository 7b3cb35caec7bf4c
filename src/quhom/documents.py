"""JSON document schemas for 2-complexes and hypermaps.

Both schemas are strict: unknown fields are rejected, names must be unique,
and every value is type-checked.  A walk entry is a bare edge name for a
forward step or the name suffixed with '~' for a reversed one; an empty
walk array denotes the degenerate face produced by hypermap conversion.
"""

from __future__ import annotations

import json
from typing import Any

from .complex2 import ClosedWalk, SignedEdge, TwoComplex
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


def _unique_names(names, what):
    seen = set()
    for name in names:
        if name in seen:
            raise SchemaError(f"duplicate {what} name {name!r}")
        seen.add(name)


def complex_from_dict(doc: Any) -> tuple[TwoComplex, int]:
    doc = _require_obj(doc, "document", COMPLEX_FIELDS)
    missing = COMPLEX_FIELDS - set(doc)
    if missing:
        raise SchemaError(f"document missing fields: {sorted(missing)}")
    modulus = _require_int(doc["modulus"], "modulus", 2)

    if not isinstance(doc["vertices"], list):
        raise SchemaError("vertices must be an array of strings")
    vertices = tuple(_require_str(v, "vertex name") for v in doc["vertices"])
    _unique_names(vertices, "vertex")

    if not isinstance(doc["edges"], list):
        raise SchemaError("edges must be an array of objects")
    edges, sources, targets = [], [], []
    for entry in doc["edges"]:
        entry = _require_obj(entry, "edge", EDGE_FIELDS)
        if set(entry) != EDGE_FIELDS:
            raise SchemaError("edge objects need exactly name/source/target")
        name = _require_str(entry["name"], "edge name")
        if "~" in name:
            raise SchemaError(f"edge name {name!r} may not contain '~'")
        edges.append(name)
        sources.append(_require_str(entry["source"], "edge source"))
        targets.append(_require_str(entry["target"], "edge target"))
    _unique_names(edges, "edge")

    if not isinstance(doc["faces"], list):
        raise SchemaError("faces must be an array of objects")
    faces, walks = [], []
    for entry in doc["faces"]:
        entry = _require_obj(entry, "face", FACE_FIELDS)
        if set(entry) != FACE_FIELDS:
            raise SchemaError("face objects need exactly name/walk")
        faces.append(_require_str(entry["name"], "face name"))
        if not isinstance(entry["walk"], list):
            raise SchemaError("face walk must be an array of edge names")
        steps = []
        for item in entry["walk"]:
            item = _require_str(item, "walk entry")
            if item.endswith("~"):
                steps.append(SignedEdge(item[:-1], -1))
            else:
                steps.append(SignedEdge(item, 1))
        walks.append(ClosedWalk(steps))
    _unique_names(faces, "face")

    complex2 = TwoComplex(
        vertices=vertices,
        edges=tuple(edges),
        sources=tuple(sources),
        targets=tuple(targets),
        faces=tuple(faces),
        walks=tuple(walks),
    )
    return complex2, modulus


def complex_to_dict(complex2: TwoComplex, modulus: int) -> dict:
    return {
        "modulus": modulus,
        "vertices": list(complex2.vertices),
        "edges": [
            {"name": e, "source": s, "target": t}
            for e, s, t in zip(complex2.edges, complex2.sources, complex2.targets)
        ],
        "faces": [
            {
                "name": f,
                "walk": [
                    step.edge if step.sign > 0 else step.edge + "~"
                    for step in walk.steps
                ],
            }
            for f, walk in zip(complex2.faces, complex2.walks)
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
