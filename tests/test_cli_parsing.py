"""CLI argument parsing: help and usage-error goldens, and argparse equivalence.

`cli._parse` handles the plain calls in one pass and `cli.build_parser`
(argparse, built from the same table) everything else, so argparse is the
reference: wherever `_parse` gives a namespace it must equal argparse's,
and `main` must answer every argv as it does with argparse alone.

`cli_usage_outputs.json` pins the exit code, stdout and stderr of the help
and usage-error calls below, at an 80-column terminal.  argparse writes
that text, and its wording differs between Python versions, so the
fixture records the version it was written with and the golden test runs
only on that version.  Regenerate it only for an intended change, with

    PYTHONPATH=src python tests/test_cli_parsing.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quhom import cli
from quhom.cli import COMMANDS, _parse, build_parser, main

FIXTURE = pathlib.Path(__file__).with_name("cli_usage_outputs.json")

USAGE_CASES = {
    "--help": ["--help"],
    **{f"{cmd} --help": [cmd, "--help"] for cmd in COMMANDS},
    "no arguments": [],
    "unknown command": ["frobnicate"],
    "unknown flag": ["params", "--bogus"],
    "flag missing its value": ["params", "--builtin", "rp2", "--modulus"],
    "budget not an integer": ["params", "--builtin", "rp2", "--budget", "x"],
    "format not a choice": ["distance", "--builtin", "rp2", "--format", "yaml"],
    "two positional paths": ["params", "a.json", "b.json"],
    "validate without path": ["validate"],
    "convert without path": ["convert"],
}


def run_main(argv) -> dict:
    """Exit code, stdout and stderr of `main(argv)`; a SystemExit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def python_version() -> str:
    return "{}.{}".format(*sys.version_info)


def compute() -> dict:
    return {case: run_main(argv) for case, argv in USAGE_CASES.items()}


def test_help_and_usage_errors_match_golden(monkeypatch):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if want["python"] != python_version():
        pytest.skip(f"argparse text pinned on Python {want['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    got = compute()
    assert got.keys() == want["cases"].keys()
    assert [case for case in got if got[case] != want["cases"][case]] == []


OPTIONS = sorted({flag.option for command in COMMANDS.values() for flag in command.flags})
# flag values and stray tokens: valid ones, negative and non-decimal
# numbers, bad choices, and paths that name no file
VALUES = (
    "rp2", "torus", "torus-grid:1x2", "json", "text", "yaml", "quick", "full",
    "2", "3", "02", "0", "-1", "+3", " 3", "3.0", "0x3", "\u0663", "x", "",
    "no-such-input.json",
)
STRAYS = ("-", "--", "-h", "--help", "-1", "--bogus")


def plain_value(flag):
    """Values that convert, and now and then one argparse reads otherwise."""
    if flag.kind is int:
        return st.sampled_from(("2", "3", "02", "0", "10", "-1", "+3"))
    if flag.kind is str:
        return st.sampled_from(("rp2", "torus-grid:1x2", "", "no-such-input.json", "-", "-h"))
    return st.sampled_from(flag.kind + ("--verify",))


@st.composite
def argvs(draw):
    """Mostly a command's own flags, with values that convert, and 0-2 paths."""
    head = draw(st.sampled_from([[name] for name in COMMANDS] + [[], ["frobnicate"], ["--help"]]))
    command = COMMANDS.get(head[0]) if head else None
    if command is not None and draw(st.integers(0, 3)):
        flags = draw(st.lists(st.sampled_from(command.flags), max_size=5)) if command.flags else []
        items = [[f.option] if f.kind is bool else [f.option, draw(plain_value(f))] for f in flags]
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            items.insert(draw(st.integers(0, len(items))), ["no-such-input.json"])
    else:
        option = st.sampled_from(OPTIONS)
        value = st.sampled_from(VALUES)
        abbreviation = option.flatmap(lambda o: st.integers(3, len(o) - 1).map(lambda k: o[:k]))
        items = draw(st.lists(st.one_of(
            st.tuples(option, value).map(list),
            option.map(lambda o: [o]),
            st.tuples(abbreviation, value).map(list),
            st.tuples(option, value).map(lambda ov: ["=".join(ov)]),
            st.sampled_from(VALUES + STRAYS).map(lambda t: [t]),
        ), max_size=6))
    return head + [token for item in items for token in item]


def argparse_namespace(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv}: {err.getvalue()}")


PLAIN_CALLS = [
    ["validate", "in.json"],
    ["params", "--verify", "--budget", "1", "--builtin", "torus-grid:8x8", "--modulus", "6"],
    ["params", "in.json", "--format", "text", "--check-matrix", "h.txt"],
    ["distance", "--builtin", "rp2", "--modulus", "03", "in.json"],
    ["convert", "--modulus", "3", "in.json", "--output", "out.json"],
    ["verify", "--level", "full", "--format", "json", "--budget", "0", "--builtin", "torus"],
    ["params", "--modulus", "3", "--modulus", "4", "--verify", "--verify"],
    ["params", ""],
]


@pytest.mark.parametrize("argv", PLAIN_CALLS, ids=" ".join)
def test_plain_calls_take_the_one_pass_parser(argv):
    fast = _parse(argv)
    assert fast is not None
    assert vars(fast) == vars(argparse_namespace(argv))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def test_one_pass_namespace_equals_argparse(argv):
    fast = _parse(argv)
    if fast is not None:
        assert vars(fast) == vars(argparse_namespace(argv))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argvs())
def test_main_answers_as_with_argparse_alone(argv):
    with mock.patch.object(cli, "_parse", lambda argv: None):
        want = run_main(argv)
    assert run_main(argv) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_parsing.py --write")
    os.environ["COLUMNS"] = "80"
    cases = compute()
    FIXTURE.write_text(
        json.dumps({"python": python_version(), "cases": cases}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(cases)} cases to {FIXTURE}")
