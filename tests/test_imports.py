"""What a command pays in a fresh job process: no imports, no threads.

The commands import nothing that `import quhom.cli` has not imported.  A
module imported inside a command is compiled again in every fresh process
that runs one (the benchmark runs with bytecode caching off), and numpy
loads some submodules on first use: a plain `np.unique(x)` imports
numpy.ma, and `np.fft` is imported when first touched.

The commands also start no thread.  The library makes no BLAS call:
OpenBLAS splits a large call over its threads, and a process forked after
`import numpy` starts them on its first such call.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

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


# One child forked per task after `import quhom.cli`: a control child that
# makes a BLAS call large enough to be split, then one child per command.
# Each reports its exit code and the threads it ends with.
FORKED_SCRIPT = """
import contextlib, io, json, os, sys
import numpy as np
import quhom.cli

def threads():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

def control():
    np.linalg.norm(np.ones(2**15))
    return 0

def in_child(task):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = task()
            os.write(write, json.dumps([code, threads()]).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        reply = fh.read()
    os.waitpid(pid, 0)
    return json.loads(reply)

results = [in_child(control)]
for argv in json.loads(sys.argv[1]):
    results.append(in_child(lambda: quhom.cli.main(argv)))
print(json.dumps(results))
"""


def command_lines(tmp_path, k, l, modulus):
    """One run of each command: four on the k x l torus grid, convert on a hypermap."""
    complex_path = tmp_path / "grid.json"
    complex_path.write_text(json.dumps(complex_to_dict(torus_grid(k, l), modulus)), encoding="utf-8")
    hypermap_path = tmp_path / "hypermap.json"
    doc = {"modulus": 3, "n": 4, "alpha": [[1, 2], [3, 4]], "sigma": [[1, 3], [2, 4]]}
    hypermap_path.write_text(json.dumps(doc), encoding="utf-8")
    grid = str(complex_path)
    return [
        ["validate", grid],
        ["params", grid, "--verify"],
        ["distance", grid],
        ["verify", grid, "--level", "full", "--format", "json"],
        ["convert", str(hypermap_path)],
    ]


def run_script(script, commands, **env):
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(run.stdout)


def test_commands_import_no_module_after_the_cli(tmp_path):
    commands = command_lines(tmp_path, 2, 2, 2)
    result = run_script(SCRIPT, commands)
    assert result["codes"] == [0] * len(commands)
    assert result["imported"] == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_job_processes_stay_single_threaded(tmp_path):
    # the 1x3 grid at D = 4 is 4096-dimensional, so the logical action's
    # class blocks hold 2^14 entries, past OpenBLAS's threading threshold
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read thread counts from")
    commands = command_lines(tmp_path, 1, 3, 4)
    (_, control), *children = run_script(FORKED_SCRIPT, commands, OPENBLAS_NUM_THREADS="2")
    if control != 2:
        pytest.skip(f"a BLAS call leaves {control} threads, not 2: no threaded OpenBLAS here")
    assert children == [[0, 1]] * len(commands), list(zip(commands, children))
