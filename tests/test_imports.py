"""The commands import nothing that `import quhom.cli` has not imported.

A module imported inside a command is compiled again in every fresh
process that runs one (the benchmark runs with bytecode caching off), and
numpy loads some submodules on first use: a plain `np.unique(x)` imports
numpy.ma, and `np.fft` is imported when first touched.
"""

import json
import os
import pathlib
import subprocess
import sys

import quhom
from quhom.complex2 import torus_grid
from quhom.documents import complex_to_dict

SRC = pathlib.Path(quhom.__file__).parents[1]

SCRIPT = """
import contextlib, io, json, sys
import quhom.cli
before = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(quhom.cli.main(argv))
print(json.dumps({"codes": codes, "imported": sorted(set(sys.modules) - before)}))
"""


def test_commands_import_no_module_after_the_cli(tmp_path):
    complex_path = tmp_path / "grid.json"
    complex_path.write_text(json.dumps(complex_to_dict(torus_grid(2, 2), 2)), encoding="utf-8")
    hypermap_path = tmp_path / "hypermap.json"
    doc = {"modulus": 3, "n": 4, "alpha": [[1, 2], [3, 4]], "sigma": [[1, 3], [2, 4]]}
    hypermap_path.write_text(json.dumps(doc), encoding="utf-8")
    grid = str(complex_path)
    commands = [
        ["validate", grid],
        ["params", grid, "--verify"],
        ["distance", grid],
        ["verify", grid, "--level", "full", "--format", "json"],
        ["convert", str(hypermap_path)],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * len(commands)
    assert result["imported"] == []
