"""Golden CLI outputs: the sha256 of each command's exit code and stdout.

The fixture pins `params --verify --budget 1`, `distance` and
`verify --level quick` (text format, residuals printed as %.3e) on the
acceptance complexes at every acceptance modulus, and
`params --verify --budget 1` on the torus grids 1x1..10x10 at D = 2, 3, 6,
and `convert` on the hypermap corpus of acceptance criterion 10, with the
default and with alternate special darts, at every acceptance modulus.
The oracle-route grids, `verify --level full --format json` on 1x2 D=5,
1x3 D=3, 1x5 D=2 and 1x3 D=4 and `verify --level quick --format json` on
2x2 D=5, pin the residual floats of the dense projector, P squared, the
logical action and the complement counts, printed in full by the JSON.
The oracle cross-checks of `params --verify` (group closure and sparse
projector) are turned off in the `params` cases, by giving `cli` an
`enumerate_group` with cap 0 and setting the dense cap to 0: they add
nothing to stdout (a mismatch would exit 5, and the printed K and |S|
already pin the exact route), the oracle and acceptance tests cover them,
and on these inputs they would take about a minute.  The exact route and
the homology cross-check still run.  The `verify` cases run unpatched:
they read their own quick caps.  With the caps at their defaults the
digests are the same (checked when the fixture was written).  Regenerate
the fixture only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import random
import sys
from unittest import mock

from quhom import cli, oracle, pauli
from quhom.cli import main
from quhom.documents import complex_to_dict
from quhom.hypermap import orbits

from _corpus import ACCEPTANCE_MODULI, acceptance_complexes, hypermap_corpus, random_special_darts

FIXTURE = pathlib.Path(__file__).with_name("golden_outputs.json")
GRID_MODULI = (2, 3, 6)
GRID_SIDES = range(1, 11)
ORACLE_GRIDS = (
    ("full", (1, 2, 5)), ("full", (1, 3, 3)), ("full", (1, 5, 2)), ("full", (1, 3, 4)),
    ("quick", (2, 2, 5)),
)


def _digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def _hypermap_doc(hypermap, modulus: int, specials=None) -> dict:
    """A hypermap document; without `specials` it takes the default special darts."""
    doc = {
        "modulus": modulus,
        "n": hypermap.n,
        "alpha": [list(cycle) for cycle in orbits(hypermap.alpha)],
        "sigma": [list(cycle) for cycle in orbits(hypermap.sigma)],
    }
    if specials is not None:
        doc["special_darts"] = list(specials.darts)
    return doc


def golden_cases(workdir: pathlib.Path):
    """(case id, argv) pairs; input documents are written into workdir."""
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            path = workdir / f"{label}_d{D}.json"
            path.write_text(json.dumps(complex_to_dict(complex2, D)), encoding="utf-8")
            yield f"params {label} D{D}", ("params", str(path), "--verify", "--budget", "1")
            yield f"distance {label} D{D}", ("distance", str(path))
            yield f"verify {label} D{D}", ("verify", str(path), "--level", "quick")
    for k in GRID_SIDES:
        for l in GRID_SIDES:
            for D in GRID_MODULI:
                yield f"params grid {k}x{l} D{D}", (
                    "params", "--verify", "--budget", "1",
                    "--builtin", f"torus-grid:{k}x{l}", "--modulus", str(D),
                )
    for level, (k, l, D) in ORACLE_GRIDS:
        yield f"verify {level} json grid {k}x{l} D{D}", (
            "verify", "--level", level, "--format", "json",
            "--builtin", f"torus-grid:{k}x{l}", "--modulus", str(D),
        )
    rng = random.Random(5077)
    for hypermap, label in hypermap_corpus(200):
        choices = (("default", None), ("alternate", random_special_darts(rng, hypermap)))
        for name, specials in choices:
            for D in ACCEPTANCE_MODULI:
                path = workdir / f"{label}_{name}_d{D}.json"
                path.write_text(json.dumps(_hypermap_doc(hypermap, D, specials)), encoding="utf-8")
                yield f"convert {label} {name} D{D}", ("convert", str(path))


@contextlib.contextmanager
def _without_oracle_checks():
    with mock.patch.object(
        cli, "enumerate_group", functools.partial(pauli.enumerate_group, cap=0)
    ), mock.patch.object(oracle, "DENSE_DIMENSION_CAP", 0):
        yield


def compute(workdir: pathlib.Path) -> dict:
    digests = {}
    for case, argv in golden_cases(workdir):
        patches = _without_oracle_checks() if argv[0] == "params" else contextlib.nullcontext()
        with patches:
            digests[case] = _digest(argv)
    return digests


def test_cli_outputs_match_golden_digests(tmp_path):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = compute(tmp_path)
    assert got.keys() == want.keys()
    assert [case for case in want if got[case] != want[case]] == []


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(pathlib.Path(tmp))
    FIXTURE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
