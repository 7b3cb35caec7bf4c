"""Fuzz the CLI's exit-code contract on small generated documents.

`main()` runs `convert` on hypermap documents, `validate`,
`params --verify --budget 50` and `verify --budget 50` on complex documents,
and `params`, `distance` and `verify` with `--budget 50` on check-matrix
files.  Most documents are well formed, some with no edges; the rest have a
field dropped, replaced by junk JSON or added, or are not JSON at all.  A
malformed check-matrix file has one fault of a known kind and exits with
that kind's code.  Moduli include values past int64.  Every run must end in
a documented exit code with no exception escaping, and a well-formed complex
that validates never exits 5 (the routes it checks are proven equal).
Examples are derandomized.
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
from quhom.pauli import CHECK_MATRIX_QUDIT_CAP

from _corpus import random_two_complex

EXIT_CODES = {0, 2, 3, 4, 5, 6}
MODULI = (2, 3, 4, 6, 2**63, 3 * 2**62, 2**64 + 1)
COMPLEX_COMMANDS = (
    ("validate",),
    ("params", "--verify", "--budget", "50"),
    ("verify", "--budget", "50"),
)
CHECK_MATRIX_COMMANDS = (("params",), ("distance",), ("verify",))

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


@st.composite
def check_matrix_files(draw):
    """(bytes of a check-matrix file, the exit code its one fault must give, or None).

    The file starts well formed: header 'D n num_faces num_vertices', then
    that many rows of n entries in [0, D).  Then, unless it is kept, one
    fault: a header of 3 or 5 fields, a header field that is no integer,
    D < 2, a negative n or count, a row too many or (with qudits) too few,
    a row of the wrong length, an entry >= D or negative (exit 2); n over
    the qudit cap (exit 4); bytes that are not UTF-8 (exit 3).
    """
    D = draw(st.sampled_from(MODULI))
    n = draw(st.integers(0, 4))
    header = [D, n, draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    rows = [[draw(st.integers(0, D - 1)) for _ in range(n)] for _ in range(header[2] + header[3])]
    how = draw(st.sampled_from((
        "keep", "keep", "keep", "fields", "integer", "modulus", "negative", "rows",
        "length", "entry", "wide", "utf-8",
    )))
    if how in ("length", "entry") and not (rows and n):
        how = "rows"
    expected = {"keep": None, "wide": 4, "utf-8": 3}.get(how, 2)
    if how == "fields":
        header = header[:3] if draw(st.booleans()) else [*header, draw(st.integers(0, 3))]
    elif how == "integer":
        header[draw(st.integers(0, 3))] = draw(st.sampled_from(("x", "1.5", "2e3", "-", "0x3", "3/1")))
    elif how == "modulus":
        header[0] = draw(st.integers(-2, 1))
    elif how == "negative":
        header[draw(st.integers(1, 3))] = -draw(st.integers(1, 3))
    elif how == "rows":
        if n and rows and draw(st.booleans()):
            rows.pop(draw(st.integers(0, len(rows) - 1)))
        else:
            rows.append([0] * max(n, 1))  # with no qudits, a row is a blank line: only "0" is a fault
    elif how == "length":
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0)
    elif how == "entry":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from((D, D + 1, 2 * D, -1, -D)))
    elif how == "wide":
        header[1] = CHECK_MATRIX_QUDIT_CAP + draw(st.integers(1, 10**6))
    lines = [header, *rows]
    data = "".join(" ".join(map(str, line)) + "\n" for line in lines).encode()
    if how == "utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3\x28", b"\xed\xa0\x80"))) + data[at:]
    return data, expected


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=check_matrix_files())
def test_check_matrix_commands_keep_the_exit_code_contract(document_path, case):
    data, expected = case
    document_path.write_bytes(data)
    for command in CHECK_MATRIX_COMMANDS:
        code, err = run((*command, "--budget", "50", "--check-matrix", str(document_path)))
        assert code in EXIT_CODES, (command, code, err)
        assert "Traceback" not in err
        assert code != 5, (command, err)  # exit 5 is a bug, never the input's fault
        if expected is not None:
            assert code == expected, (command, code, err, data)
