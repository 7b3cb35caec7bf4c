"""Fuzz the CLI's exit-code contract on small generated documents.

`main()` runs `convert` on hypermap documents and `validate`,
`params --verify --budget 50` and `verify --budget 50` on complex documents.
Most documents are well formed, some with no edges; the rest have a field
dropped, replaced by junk JSON or added, or are not JSON at all.  Moduli
include values past int64.  Every run must end in a documented exit code with no exception
escaping, and a well-formed complex that validates never exits 5 (the
routes it checks are proven equal).  Examples are derandomized.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quhom.cli import main
from quhom.documents import complex_to_dict

from _corpus import random_two_complex

EXIT_CODES = {0, 2, 3, 4, 5, 6}
MODULI = (2, 3, 4, 6, 2**63, 3 * 2**62, 2**64 + 1)
COMPLEX_COMMANDS = (
    ("validate",),
    ("params", "--verify", "--budget", "50"),
    ("verify", "--budget", "50"),
)

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**65) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw, doc: dict):
    """(JSON text, whether it is `doc` unchanged); else a field is dropped, junk or extra.

    One case in nine is not JSON at all.
    """
    doc = json.loads(json.dumps(doc))
    how = draw(st.sampled_from(("keep",) * 4 + ("drop", "junk", "junk nested", "extra", "text")))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "text":
        return draw(st.text(max_size=8)), False
    if how == "drop":
        del doc[key]
    elif how == "junk":
        doc[key] = draw(junk)
    elif how == "junk nested" and isinstance(doc[key], list) and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(junk)
    elif how == "extra":
        doc["extra"] = draw(junk)
    return json.dumps(doc), how == "keep"


@st.composite
def complex_documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    complex2 = random_two_complex(rng, max_vertices=3, max_edges=4, max_faces=3, max_walk=4)
    doc = complex_to_dict(complex2, draw(st.sampled_from(MODULI)))
    if draw(st.sampled_from((False,) * 5 + (True,))):  # no qudits
        doc["edges"], doc["faces"] = [], []
    return draw(documents(doc))


@st.composite
def hypermap_documents(draw):
    n = draw(st.integers(1, 6))

    def cycles():
        images = draw(st.permutations(range(1, n + 1)))
        seen, out = set(), []
        for start in range(1, n + 1):
            cycle, dart = [], start
            while dart not in seen:
                seen.add(dart)
                cycle.append(dart)
                dart = images[dart - 1]
            if cycle:
                out.append(cycle)
        return out

    doc = {"modulus": draw(st.sampled_from(MODULI)), "n": n, "alpha": cycles(), "sigma": cycles()}
    if draw(st.booleans()):
        doc["special_darts"] = [draw(st.sampled_from(cycle)) for cycle in doc["alpha"]]
    return draw(documents(doc))


def run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=complex_documents())
def test_complex_commands_keep_the_exit_code_contract(document_path, case):
    text, unchanged = case
    document_path.write_text(text, encoding="utf-8")
    codes = []
    for command in COMPLEX_COMMANDS:
        code, err = run((*command, str(document_path)))
        assert code in EXIT_CODES, (command, code, err)
        assert "Traceback" not in err
        codes.append(code)
    if unchanged and codes[0] == 0:
        assert 5 not in codes, (codes, text)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=hypermap_documents())
def test_convert_keeps_the_exit_code_contract(document_path, case):
    text, _ = case
    document_path.write_text(text, encoding="utf-8")
    code, err = run(("convert", str(document_path)))
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    assert code != 5, err  # the certificate is a theorem
