import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quhom.complex2 import boundary1, boundary2, rp2, torus, torus_grid, validate
from quhom.documents import complex_from_dict, complex_to_dict, hypermap_from_dict
from quhom.errors import SchemaError

from _reference import document_walks, validate_document


def rp2_doc():
    return {
        "modulus": 2,
        "vertices": ["v"],
        "edges": [{"name": "e", "source": "v", "target": "v"}],
        "faces": [{"name": "f", "walk": ["e", "e"]}],
    }


def test_roundtrip_builders():
    # documents hold walks in canonical rotation, so the index lists may start elsewhere
    for builder in (rp2, torus, lambda: torus_grid(2, 3)):
        complex2 = builder()
        doc = complex_to_dict(complex2, 4)
        again, modulus = complex_from_dict(doc)
        assert modulus == 4
        assert complex_to_dict(again, 4) == doc
        assert boundary1(again, 4) == boundary1(complex2, 4)
        assert boundary2(again, 4) == boundary2(complex2, 4)
        assert validate(again) == []


def test_parse_rp2_doc():
    complex2, modulus = complex_from_dict(rp2_doc())
    assert modulus == 2
    assert complex2 == rp2()


def test_walk_tilde_means_inverse():
    doc = {
        "modulus": 3,
        "vertices": ["v"],
        "edges": [
            {"name": "e1", "source": "v", "target": "v"},
            {"name": "e2", "source": "v", "target": "v"},
        ],
        "faces": [{"name": "f", "walk": ["e1", "e2", "e1~", "e2~"]}],
    }
    complex2, _ = complex_from_dict(doc)
    assert complex2 == torus()


def test_empty_walk_is_degenerate():
    doc = {
        "modulus": 2,
        "vertices": ["v"],
        "edges": [],
        "faces": [{"name": "f", "walk": []}],
    }
    complex2, _ = complex_from_dict(doc)
    assert complex2.walk_offsets == (0, 0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d.pop("modulus"),
        lambda d: d.update(modulus=1),
        lambda d: d.update(modulus=True),
        lambda d: d.update(vertices=["v", "v"]),
        lambda d: d["edges"].append({"name": "e", "source": "v", "target": "v"}),
        lambda d: d["edges"][0].update(color="red"),
        lambda d: d["edges"][0].pop("target"),
        lambda d: d["faces"][0].update(walk=[3]),
        lambda d: d["edges"][0].update(name="bad~name"),
        lambda d: d.update(vertices="v"),
    ],
)
def test_schema_rejections(mutate):
    doc = rp2_doc()
    mutate(doc)
    with pytest.raises(SchemaError):
        complex_from_dict(doc)


def test_hypermap_doc():
    doc = {"modulus": 3, "n": 2, "alpha": [[1, 2]], "sigma": [[1, 2]]}
    hypermap, specials, modulus = hypermap_from_dict(doc)
    assert modulus == 3
    assert hypermap.alpha == (2, 1)
    assert specials.darts == (1,)

    doc["special_darts"] = [2]
    _, specials, _ = hypermap_from_dict(doc)
    assert specials.darts == (2,)


@pytest.mark.parametrize(
    "doc",
    [
        {"modulus": 3, "n": 2, "alpha": [[1, 1]], "sigma": []},
        {"modulus": 3, "n": 2, "alpha": [[1, 2], [2]], "sigma": []},
        {"modulus": 3, "n": 2, "alpha": [[3]], "sigma": []},
        {"modulus": 3, "n": 2, "alpha": [], "sigma": [], "special_darts": [1]},
        {"modulus": 3, "n": 2, "alpha": [], "sigma": [], "unknown": 1},
        {"modulus": 3, "alpha": [], "sigma": []},
        {"modulus": 3, "n": 0, "alpha": [], "sigma": []},
    ],
)
def test_hypermap_schema_rejections(doc):
    with pytest.raises(SchemaError):
        hypermap_from_dict(doc)


VERTEX_POOL = ("a", "b", "c", "z")  # "z" is never declared


@st.composite
def complex_documents(draw):
    """Documents that pass the schema but may fail validation: dangling
    vertex and edge references, self-loops, walks with a broken incidence,
    closed walks rotated or inverted, the entries "~" and "e0~~", and empty
    walks."""
    vertices = draw(st.lists(st.sampled_from(VERTEX_POOL[:3]), unique=True, max_size=3))
    ends = [
        (draw(st.sampled_from(VERTEX_POOL)), draw(st.sampled_from(VERTEX_POOL)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    edges = [{"name": f"e{i}", "source": s, "target": t} for i, (s, t) in enumerate(ends)]
    odd = st.sampled_from(["x", "x~", "~", "e0~~", "e9"])
    faces = []
    for f in range(draw(st.integers(0, 3))):
        walk = []
        if ends and draw(st.booleans()):
            # follow the edges from a vertex, so that most incidences hold
            at = draw(st.sampled_from(VERTEX_POOL))
            for _ in range(draw(st.integers(1, 6))):
                steps = [(i, 1, t) for i, (s, t) in enumerate(ends) if s == at]
                steps += [(i, -1, s) for i, (s, t) in enumerate(ends) if t == at]
                if not steps:
                    break
                i, sign, at = draw(st.sampled_from(steps))
                walk.append(f"e{i}" if sign > 0 else f"e{i}~")
            if walk and draw(st.booleans()):  # inverted: reversed, each step flipped
                walk = [e[:-1] if e.endswith("~") else e + "~" for e in reversed(walk)]
            if walk:  # rotated
                turn = draw(st.integers(0, len(walk) - 1))
                walk = walk[turn:] + walk[:turn]
        else:
            names = [e["name"] + sign for e in edges for sign in ("", "~")]
            walk = draw(st.lists(st.sampled_from(names) | odd if names else odd, max_size=5))
        if draw(st.integers(0, 5)) == 0:
            walk.insert(draw(st.integers(0, len(walk))), draw(odd))
        faces.append({"name": f"f{f}", "walk": walk})
    return {"modulus": 2, "vertices": vertices, "edges": edges, "faces": faces}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(complex_documents())
def test_validation_messages_match_the_name_based_reference(doc):
    complex2, _ = complex_from_dict(doc)
    assert validate(complex2) == validate_document(doc)
    written = complex_to_dict(complex2, 2)
    assert [face["walk"] for face in written["faces"]] == [
        [edge + ("" if sign > 0 else "~") for edge, sign in walk] for walk in document_walks(doc)
    ]
    assert written["edges"] == doc["edges"]


def test_reference_documents_cover_every_kind_of_violation():
    kinds = {"unknown source", "unknown target", "unknown edge ''", "unknown edge 'e0~'",
             "incidence break", "valid"}
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(complex_documents())
    def collect(doc):
        messages = validate_document(doc)
        seen.update(kind for kind in kinds if any(kind in m for m in messages))
        if not messages and any(face["walk"] for face in doc["faces"]):
            seen.add("valid")

    collect()
    assert seen == kinds
