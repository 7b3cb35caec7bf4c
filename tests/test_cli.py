import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import quhom
from quhom.cli import main
from quhom.complex2 import chain_complex, rp2, torus_grid
from quhom.documents import complex_to_dict
from quhom.pauli import ENUMERATION_CAP, StabilizerSpec, export_check_matrix

from _corpus import renamed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def rp2_doc(modulus=2):
    return complex_to_dict(rp2(), modulus)


def test_validate_ok(tmp_path, capsys):
    path = write_json(tmp_path / "rp2.json", rp2_doc())
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert "valid" in out


def test_validate_broken_walk(tmp_path, capsys):
    doc = rp2_doc()
    doc["edges"].append({"name": "stray", "source": "v", "target": "nowhere"})
    path = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 2
    assert "unknown target vertex" in out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "malformed" in err


def test_input_that_is_not_utf8_is_a_parse_failure(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff{}")
    for argv in (("validate", str(path)), ("params", "--check-matrix", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: input is not UTF-8: ") and err.count("\n") == 1, err


def test_json_nested_too_deep_is_a_parse_failure(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "params", str(path))
    assert (code, out) == (3, "")
    assert err == "error: malformed JSON: arrays or objects nested too deep\n"


def test_validate_schema_violation(tmp_path, capsys):
    doc = rp2_doc()
    doc["surprise"] = True
    path = write_json(tmp_path / "schema.json", doc)
    code, _, err = run_cli(capsys, "validate", path)
    assert code == 2
    assert "unknown fields" in err


def test_validate_unreadable(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/file.json")
    assert code == 6
    assert "cannot read" in err


def test_params_builtin_rp2(capsys):
    code, out, _ = run_cli(
        capsys, "params", "--builtin", "rp2", "--modulus", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 2
    assert report["num_qudits"] == 1
    assert report["distance"] == 1
    assert report["orientable_mod_d"] is True
    assert report["orientable_integral"] is False


def test_params_builtin_needs_modulus(capsys):
    code, _, err = run_cli(capsys, "params", "--builtin", "rp2")
    assert code == 2
    assert "--modulus" in err


def test_params_torus_with_verify(capsys):
    code, out, _ = run_cli(
        capsys,
        "params",
        "--builtin",
        "torus",
        "--modulus",
        "5",
        "--verify",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 25
    assert report["stabilizer_size"] == 1
    assert report["verified"] is True


def test_params_output_is_stable(capsys):
    args = ("params", "--builtin", "torus-grid:2x2", "--modulus", "2", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["dimension"] == 4
    assert report["stabilizer_size"] == 64
    assert report["distance"] == 2


def test_params_modulus_overrides_document(tmp_path, capsys):
    path = write_json(tmp_path / "rp2.json", rp2_doc(modulus=2))
    code, out, _ = run_cli(
        capsys, "params", path, "--modulus", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_distance_routes(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance",
        "--builtin",
        "torus-grid:2x2",
        "--modulus",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 2
    assert payload["routes_agree"] is True


def test_distance_torus(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--builtin", "torus", "--modulus", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["distance"] == 1


def test_distance_no_logicals(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--builtin", "rp2", "--modulus", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["distance"] == "NoLogicals"


def test_distance_budget_exceeded(capsys):
    code, out, err = run_cli(
        capsys,
        "distance",
        "--builtin",
        "torus-grid:3x3",
        "--modulus",
        "5",
        "--budget",
        "10",
    )
    assert code == 4
    assert out == ""
    # the first shell holds 18 edges x 4 values, so the search stops inside it
    assert "exceeded budget 10 in weight shell 1 of 18 after 10 candidates" in err


def test_torus_grid_size_capped_before_building(capsys):
    code, out, err = run_cli(
        capsys, "params", "--builtin", "torus-grid:100000x100000", "--modulus", "2"
    )
    assert code == 4
    assert out == ""
    assert "100000x100000" in err and "10000" in err


def counted_enumerations(monkeypatch, cap=ENUMERATION_CAP):
    """Route cli.enumerate_group through a counter; returns the list of calls."""
    from quhom import cli, pauli

    calls = []

    def counted(spec):
        calls.append(spec)
        return pauli.enumerate_group(spec, cap)

    monkeypatch.setattr(cli, "enumerate_group", counted)
    return calls


def test_verify_full_enumerates_group_once(capsys, monkeypatch):
    calls = counted_enumerations(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--builtin", "rp2", "--modulus", "2", "--level", "full"
    )
    assert code == 0
    assert "PASS projector_trace" in out
    assert "PASS logical_action" in out
    assert len(calls) == 1


def test_params_verify_enumerates_group_once(capsys, monkeypatch):
    calls = counted_enumerations(monkeypatch)
    code, out, _ = run_cli(
        capsys, "params", "--verify", "--builtin", "rp2", "--modulus", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert len(calls) == 1


def test_counts_past_the_int_to_str_digit_limit_are_printed_exactly(tmp_path, capsys):
    # K = 2^14400 and 2^20000 have 4,335 and 6,021 digits: past Python's default
    # limit of 4,300, which stays in force outside the command
    limit = sys.get_int_max_str_digits()
    edges = [{"name": f"e{i}", "source": "v", "target": "v"} for i in range(14400)]
    loops = write_json(
        tmp_path / "loops.json", {"modulus": 2, "vertices": ["v"], "edges": edges, "faces": []}
    )
    qudits = tmp_path / "wide.txt"
    qudits.write_text("2 20000 0 0\n", encoding="utf-8")  # n at the cap
    outputs = []
    for argv in (("params", loops), ("params", "--check-matrix", str(qudits)), ("verify", loops)):
        code, out, err = run_cli(capsys, *argv, "--budget", "1")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        outputs.append(out)
    sys.set_int_max_str_digits(0)
    try:
        for out, n in zip(outputs, (14400, 20000)):
            report = json.loads(out)
            assert (report["dimension"], report["stabilizer_size"]) == (2**n, 1)
        assert f"PASS dimension_vs_homology (span={2**14400} homology={2**14400})" in outputs[2]
        assert f"SKIP projector_trace (dimension {2**14400} over cap 256)" in outputs[2]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["params", "distance", "verify"])
def test_check_matrix_qudits_capped_before_building(tmp_path, capsys, command):
    from quhom.cli import GRID_CELL_CAP
    from quhom.pauli import CHECK_MATRIX_QUDIT_CAP

    assert CHECK_MATRIX_QUDIT_CAP == 2 * GRID_CELL_CAP  # the qudits of the largest grid
    path = tmp_path / "huge.txt"
    for n in (CHECK_MATRIX_QUDIT_CAP + 1, 10**8):
        path.write_text(f"3 {n} 0 0\n", encoding="utf-8")
        start = time.monotonic()
        code, out, err = run_cli(capsys, command, "--check-matrix", str(path))
        assert time.monotonic() - start < 1.0
        assert (code, out) == (4, "")
        assert err == f"error: check matrix has {n} qudits, over the cap of 20000\n"
    if command != "verify":  # verify reads the same parser, and takes seconds at the cap
        path.write_text(f"3 {CHECK_MATRIX_QUDIT_CAP} 0 0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, command, "--check-matrix", str(path), "--budget", "1")
        assert (code, err) == (0, "")


def test_distance_scalar_violation_matches_params(tmp_path, capsys):
    # Z and X on one qutrit pair to w^1: the group holds a scalar, so there is no code
    path = tmp_path / "scalar.txt"
    path.write_text("3 2 1 1\n1 0\n1 0\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "distance", "--check-matrix", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"distance": None, "distance_status": "scalar_violation", "scalar_violation": 1}
    code, out, _ = run_cli(capsys, "params", "--check-matrix", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["distance"] is None
    assert report["distance_status"] == "scalar_violation"
    assert report["scalar_violation"] == payload["scalar_violation"]


def test_convert_two_dart_hypermap(tmp_path, capsys):
    path = write_json(
        tmp_path / "h.json",
        {"modulus": 3, "n": 2, "alpha": [[1, 2]], "sigma": [[1, 2]]},
    )
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["equivalent"] is True
    assert payload["certificate"]["orientable_integral"] is True
    doc = payload["complex"]
    assert len(doc["vertices"]) == 1
    assert len(doc["edges"]) == 1
    assert len(doc["faces"]) == 2

    # the emitted document is itself a valid input
    out_path = tmp_path / "converted.json"
    out_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run_cli(capsys, "validate", str(out_path))
    assert code == 0


def test_convert_degenerate_face(tmp_path, capsys):
    path = write_json(
        tmp_path / "single.json",
        {"modulus": 2, "n": 1, "alpha": [], "sigma": []},
    )
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["equivalent"] is True
    assert payload["complex"]["faces"][0]["walk"] == []


def test_convert_to_unwritable_output(tmp_path, capsys):
    path = write_json(
        tmp_path / "h.json",
        {"modulus": 3, "n": 2, "alpha": [[1, 2]], "sigma": [[1, 2]]},
    )
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "convert", path, "--output", str(target))
    assert (code, out) == (6, "")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def test_convert_caps_the_declared_dart_count(tmp_path, capsys):
    from quhom.documents import HYPERMAP_DART_CAP

    n = HYPERMAP_DART_CAP + 1
    path = write_json(tmp_path / "h.json", {"modulus": 2, "n": n, "alpha": [], "sigma": []})
    code, out, err = run_cli(capsys, "convert", path)
    assert (code, out) == (4, "")
    assert err == f"error: hypermap has {n} darts, over the cap of {HYPERMAP_DART_CAP}\n"


def test_convert_rejects_modulus_below_two(tmp_path, capsys):
    path = write_json(
        tmp_path / "h.json",
        {"modulus": 3, "n": 2, "alpha": [[1, 2]], "sigma": [[1, 2]]},
    )
    code, out, err = run_cli(capsys, "convert", path, "--modulus", "1")
    assert code == 2
    assert out == ""
    assert "modulus must be >= 2" in err


def test_convert_writes_output_file(tmp_path, capsys):
    path = write_json(
        tmp_path / "h.json",
        {"modulus": 2, "n": 4, "alpha": [[1, 2], [3, 4]], "sigma": [[1, 3]]},
    )
    out_path = tmp_path / "out.json"
    code, stdout, _ = run_cli(capsys, "convert", path, "--output", str(out_path))
    assert code == 0
    assert stdout == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["certificate"]["equivalent"] is True


def test_convert_builds_one_complex_and_a_fixed_number_of_bases(tmp_path, capsys, monkeypatch):
    # the certificate reads the emitted complex, and the Delta matrices are
    # two sparse products, so nothing is rebuilt per face: 2 and 32 faces
    from quhom import cli, hypermap

    counts = []
    for n in (4, 64):
        complexes = counted(monkeypatch, cli, "to_two_complex")
        bases = counted(monkeypatch, hypermap.SpecialDarts, "non_special")
        alpha = [[dart, dart + 1] for dart in range(1, n, 2)]
        path = write_json(tmp_path / f"h{n}.json", {"modulus": 3, "n": n, "alpha": alpha, "sigma": []})
        code, out, _ = run_cli(capsys, "convert", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["equivalent"] is True
        assert len(payload["complex"]["faces"]) == n // 2
        assert len(complexes) == 1
        counts.append(len(bases))
        monkeypatch.undo()
    assert counts[0] == counts[1]


def test_convert_reports_a_broken_delta_chain_as_a_mismatch(tmp_path, capsys, monkeypatch):
    # a Delta pair that is no chain complex equals no emitted complex: exit 5
    from quhom import hypermap
    from quhom.zmod import ZModMatrix

    def identity(h, D):
        return ZModMatrix.from_coo(h.n, h.n, D, range(h.n), range(h.n), [1] * h.n)

    monkeypatch.setattr(hypermap, "d2_matrix", identity)
    path = write_json(
        tmp_path / "h.json", {"modulus": 3, "n": 4, "alpha": [[1, 2], [3, 4]], "sigma": [[1, 3]]}
    )
    code, out, err = run_cli(capsys, "convert", path)
    assert code == 5
    assert json.loads(out)["certificate"]["equivalent"] is False
    assert err == "error: hypermap and 2-complex chains differ\n"


def test_convert_six_darts(tmp_path, capsys):
    path = write_json(
        tmp_path / "h6.json",
        {
            "modulus": 4,
            "n": 6,
            "alpha": [[1, 4, 2], [3, 6], [5]],
            "sigma": [[1, 2, 3, 4, 5, 6]],
        },
    )
    code, out, _ = run_cli(capsys, "convert", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["equivalent"] is True
    assert payload["certificate"]["valid"] is True


def test_verify_rp2_full(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--builtin", "rp2", "--modulus", "2", "--level", "full"
    )
    assert code == 0
    assert "FAIL" not in out
    assert "PASS projector_trace" in out and "trace=2 expected=2" in out
    assert "dimension_vs_homology" in out


def test_verify_quick_runs_dense_when_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--builtin",
        "torus-grid:2x2",
        "--modulus",
        "2",
        "--level",
        "quick",
    )
    assert code == 0
    # 2^8 = 256 sits exactly at the quick cap, so the dense check runs
    assert "PASS projector_trace" in out


def test_verify_zero_edge_complex(tmp_path, capsys):
    # a single vertex: no qudits, a one-dimensional code space
    path = write_json(
        tmp_path / "point.json", {"modulus": 3, "vertices": ["v"], "edges": [], "faces": []}
    )
    for level in ("quick", "full"):
        code, out, _ = run_cli(capsys, "verify", path, "--level", level, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        statuses = {c["name"]: c["status"] for c in payload["checks"]}
        assert statuses["projector_trace"] == "PASS"
        assert statuses["complement_duality_face_span"] == "PASS"
        assert statuses["complement_duality_vertex_span"] == "PASS"


def test_verify_adversarial_check_matrix(tmp_path, capsys):
    from quhom.zmod import ZModMatrix

    spec = StabilizerSpec(
        modulus=2,
        n=1,
        face_matrix=ZModMatrix.from_rows([(1,)], 1, 2),
        vertex_matrix=ZModMatrix.from_rows([(1,)], 1, 2),
    )
    path = tmp_path / "adv.txt"
    path.write_text(export_check_matrix(spec), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", "--check-matrix", str(path), "--level", "full"
    )
    assert code == 0
    assert "zero code space" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("cap", [5, 10, 26])
def test_verify_group_skip_says_why(tmp_path, capsys, monkeypatch, cap):
    # X and Z on one qutrit: |r(B)| |r(A)| = 9, 27 elements with the scalars, all
    # predicted before any closure; the projector is skipped too
    from quhom import pauli
    from quhom.zmod import ZModMatrix

    calls = counted_enumerations(monkeypatch, cap)
    closures = []
    monkeypatch.setattr(pauli, "enumerate_pauli_closure", lambda spec, cap: closures.append(spec))
    row = ZModMatrix.from_rows([(1,)], 1, 3)
    path = tmp_path / "adv.txt"
    path.write_text(export_check_matrix(StabilizerSpec(3, 1, row, row)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--check-matrix", str(path), "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0
    assert len(calls) == 1
    assert closures == []
    assert checks["group_enumeration"] == {
        "name": "group_enumeration", "status": "SKIP", "residual": None,
        "detail": "predicted size over enumeration cap",
    }
    assert checks["projector_trace"] == {
        "name": "projector_trace", "status": "SKIP", "residual": None,
        "detail": "group too large to enumerate",
    }


def _homology_one_too_many(monkeypatch):
    from quhom import cli, complex2

    monkeypatch.setattr(
        cli, "homology_cardinality", lambda chain: complex2.homology_cardinality(chain) + 1
    )


def _group_one_too_large(monkeypatch):
    from quhom import cli, pauli

    def enumerate_group(spec, *args):
        enum = pauli.enumerate_group(spec, *args)
        return dataclasses.replace(enum, size=enum.size + 1)

    monkeypatch.setattr(cli, "enumerate_group", enumerate_group)


def _projector_not_ok(monkeypatch):
    from quhom import oracle

    checks = oracle.projector_checks
    monkeypatch.setattr(
        oracle, "projector_checks", lambda *args, **kwargs: {**checks(*args, **kwargs), "ok": False}
    )


BREAKS = {
    "dimension_vs_homology": _homology_one_too_many,
    "group_enumeration": _group_one_too_large,
    "projector_trace": _projector_not_ok,
}


@pytest.mark.parametrize("name", BREAKS)
def test_params_verify_and_verify_fail_on_the_same_check(capsys, monkeypatch, name):
    # both commands read one check record: params stops on it, verify prints it
    BREAKS[name](monkeypatch)
    source = ("--builtin", "rp2", "--modulus", "2")
    code, out, err = run_cli(capsys, "params", "--verify", *source)
    assert (code, out) == (5, "")
    assert err.startswith(f"error: check {name} failed (") and err.count("\n") == 1, err
    code, out, _ = run_cli(capsys, "verify", *source)
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 2
    assert failed[0] == name and out.endswith("FAILED\n")


@pytest.mark.parametrize("command", ["params", "distance", "verify"])
@pytest.mark.parametrize(
    "first,second",
    [("a path", "--builtin"), ("a path", "--check-matrix"), ("--builtin", "--check-matrix")],
    ids=["path-builtin", "path-check_matrix", "builtin-check_matrix"],
)
def test_two_inputs_are_rejected(tmp_path, capsys, command, first, second):
    spec = StabilizerSpec.from_chain(chain_complex(rp2(), 2))
    matrix = tmp_path / "rp2.txt"
    matrix.write_text(export_check_matrix(spec), encoding="utf-8")
    inputs = {
        "a path": (write_json(tmp_path / "rp2.json", rp2_doc()),),
        "--builtin": ("--builtin", "rp2", "--modulus", "2"),
        "--check-matrix": ("--check-matrix", str(matrix)),
    }
    code, out, err = run_cli(capsys, command, *inputs[first], *inputs[second])
    assert (code, out) == (2, "")
    assert err == f"error: give one input, not {first} and {second}\n"


def test_params_check_matrix(tmp_path, capsys):
    spec = StabilizerSpec.from_chain(chain_complex(torus_grid(2, 2), 2))
    path = tmp_path / "grid.txt"
    path.write_text(export_check_matrix(spec), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "params", "--check-matrix", str(path), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 4
    assert report["orientable_mod_d"] is None


def test_route_mismatch_exit_code(capsys, monkeypatch):
    # a witness failing the logical check cannot come from valid inputs, so fake one
    import quhom.cli as cli

    monkeypatch.setattr(cli, "is_logical", lambda pauli, spec: False)
    code, _, err = run_cli(
        capsys, "distance", "--builtin", "torus", "--modulus", "2"
    )
    assert code == 5
    assert "witness fails the logical check" in err


def run_python(*args):
    # the child imports quhom from wherever this process did, installed or not
    src = os.path.dirname(os.path.dirname(quhom.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = run_python(
        "-m", "quhom.cli", "params", "--builtin", "rp2", "--modulus", "4", "--format", "json"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 2


def test_cli_loads_no_scipy():
    # the import alone and a full verify, which runs every oracle check
    script = (
        "import sys\n"
        "import quhom.cli\n"
        "code = quhom.cli.main(['verify', '--builtin', 'rp2', '--modulus', '2', '--level', 'full'])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "PASS projector_trace" in proc.stdout
    assert "PASS logical_action" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_valid_call_loads_no_argparse():
    # a plain call is parsed in one pass; help still comes from argparse
    script = (
        "import sys\n"
        "import quhom.cli\n"
        "code = quhom.cli.main(['params', '--builtin', 'rp2', '--modulus', '3'])\n"
        "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    proc = run_python("-m", "quhom.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: quhom ")


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--builtin", "rp2", "--modulus", "3", "--budget", "-1"),
        ("distance", "--builtin", "torus", "--modulus", "3", "--budget", "-1"),
        ("verify", "--builtin", "rp2", "--modulus", "2", "--budget=-1"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_budget_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: budget must be >= 0, got -1\n"


def test_params_verify_builds_no_membership_solver(capsys, monkeypatch):
    # emptiness comes from cardinalities, and the budget stops the search
    # before any zero-syndrome candidate reaches a membership test
    from quhom import zmod

    setups = counted_property(monkeypatch, zmod.UnitPivotElimination, "_unpivoted")
    code, out, _ = run_cli(
        capsys, "params", "--verify", "--budget", "1", "--builtin", "torus-grid:10x10",
        "--modulus", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert (report["dimension"], report["distance_status"]) == (9, "budget_exceeded")
    assert report["verified"] is True
    assert setups == []


def test_params_verify_calls_no_smith_normal_form(capsys, monkeypatch):
    # K, |S| and |H_1| come from unit-pivot elimination; the SNF is left to
    # membership and the orthogonal complement, which this run never needs
    from quhom import zmod

    def refuse(matrix):
        raise AssertionError("params --verify --budget 1 called smith_normal_form")

    monkeypatch.setattr(zmod, "smith_normal_form", refuse)
    code, out, _ = run_cli(
        capsys, "params", "--verify", "--budget", "1", "--builtin", "torus-grid:10x10",
        "--modulus", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert (report["dimension"], report["stabilizer_size"]) == (9, 3**198)
    assert report["verified"] is True


def test_params_builds_d2_once(capsys, monkeypatch):
    from quhom import complex2

    calls = []
    original = complex2.boundary2
    monkeypatch.setattr(
        complex2, "boundary2", lambda *args: calls.append(args) or original(*args)
    )
    code, out, _ = run_cli(capsys, "params", "--builtin", "torus-grid:3x3", "--modulus", "4")
    assert code == 0
    assert json.loads(out)["orientable_mod_d"] is True
    assert len(calls) == 1


def test_params_verify_grid_14x14_in_time(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "params", "--verify", "--budget", "1", "--builtin", "torus-grid:14x14",
        "--modulus", "6",
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["dimension"] == 36
    assert elapsed < 3.0, f"params --verify on the 14x14 grid took {elapsed:.2f}s, limit 3s"


def test_distance_grid_20x20_skips_the_shells_below_its_floors(capsys):
    # shells 2 and 3 lie below the girth 4 of both sides, so the budget runs
    # out in shell 3 without a support of either being enumerated
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "distance", "--builtin", "torus-grid:20x20", "--modulus", "2")
    elapsed = time.perf_counter() - start
    assert (code, out) == (4, "")
    assert err == (
        "error: distance search exceeded budget 10000000 in weight shell 3 of 800 "
        "after 10000000 candidates (css route)\n"
    )
    assert elapsed < 5.0, f"distance on the 20x20 grid took {elapsed:.2f}s, limit 5s"


def test_shell_floors_are_worked_out_only_past_shell_1(capsys, monkeypatch):
    from quhom import distance

    floors = counted(monkeypatch, distance, "_shell_floor")
    for D in ("2", "3", "6"):
        code, _, _ = run_cli(
            capsys, "params", "--budget", "1", "--builtin", "torus-grid:10x10", "--modulus", D
        )
        assert code == 0
    assert floors == []
    code, _, _ = run_cli(capsys, "distance", "--builtin", "torus-grid:3x3", "--modulus", "2")
    assert code == 0 and len(floors) == 2  # one per side, once


def count_products(monkeypatch):
    """Shapes (rows, inner, columns) of every ZModMatrix product from now on."""
    from quhom.zmod import ZModMatrix

    shapes = []
    original = ZModMatrix.__matmul__

    def counting(self, other):
        shapes.append((self.nrows, self.ncols, other.ncols))
        return original(self, other)

    monkeypatch.setattr(ZModMatrix, "__matmul__", counting)
    return shapes


def test_params_computes_the_scalar_pairings_once(tmp_path, capsys, monkeypatch):
    # F V^T (faces x vertices) is cached on the spec: cmd_params and
    # distance_css both ask for the witness.  An isolated vertex makes the
    # chain check d1 @ d2 (5 x 8 times 8 x 4) differ in shape from F V^T.
    doc = complex_to_dict(torus_grid(2, 2), 6)
    doc["vertices"].append("isolated")
    shapes = count_products(monkeypatch)
    code, out, _ = run_cli(capsys, "params", write_json(tmp_path / "grid.json", doc))
    assert code == 0 and json.loads(out)["dimension"] == 36  # an isolated vertex leaves H_1
    assert sorted(shapes) == [(4, 8, 5), (5, 8, 4)]
    spec = StabilizerSpec.from_chain(chain_complex(torus_grid(3, 4), 6))
    path = tmp_path / "grid.chk"
    path.write_text(export_check_matrix(spec), encoding="utf-8")
    shapes.clear()
    code, out, _ = run_cli(capsys, "params", "--check-matrix", str(path))
    assert code == 0 and json.loads(out)["dimension"] == 36
    assert shapes == [(12, 24, 12)]


def test_params_verify_builds_no_dense_view(capsys, monkeypatch):
    # every exact-route step reads the sparse rows; only the SNF, the
    # oracle and the check-matrix export build dense rows
    from quhom.zmod import ZModMatrix

    def refuse(self):
        raise AssertionError("params --verify --budget 1 built a dense entries view")

    monkeypatch.setattr(ZModMatrix, "entries", property(refuse))
    for D in ("2", "3", "6"):
        code, out, _ = run_cli(
            capsys, "params", "--verify", "--budget", "1", "--builtin", "torus-grid:10x10",
            "--modulus", D,
        )
        assert code == 0
        report = json.loads(out)
        assert (report["distance_status"], report["verified"]) == ("budget_exceeded", True)


def counted(monkeypatch, owner, name):
    """Wrap owner.name so that each call's arguments are recorded; returns the record."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def counted_property(monkeypatch, owner, name):
    """Wrap owner.name, a cached_property, so that each build records its instance."""
    built = []
    original = vars(owner)[name].func

    def wrapper(self):
        built.append(self)
        return original(self)

    prop = functools.cached_property(wrapper)
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)
    return built


def test_params_verify_counts_each_span_once(capsys, monkeypatch):
    # K, |S|, |ker d1| and |H_1| all read the eliminations of F = d2^T and V = d1
    from quhom import zmod

    calls = counted(monkeypatch, zmod.UnitPivotElimination, "__init__")
    code, out, _ = run_cli(
        capsys, "params", "--verify", "--budget", "1", "--builtin", "torus-grid:10x10",
        "--modulus", "3",
    )
    assert code == 0 and json.loads(out)["verified"] is True
    assert len(calls) == 2


def relabeled_grid_doc(k, l, D, seed=0):
    """The k x l torus grid under new names, with some edges flipped and every list shuffled."""
    rng = random.Random(seed)
    doc = complex_to_dict(torus_grid(k, l), D)
    flipped = {e["name"] for e in doc["edges"] if rng.random() < 0.5}
    for e in doc["edges"]:
        if e["name"] in flipped:
            e["source"], e["target"] = e["target"], e["source"]
    for face in doc["faces"]:
        steps = [(s.rstrip("~"), s.endswith("~")) for s in face["walk"]]
        face["walk"] = [e + "~" * (inverse != (e in flipped)) for e, inverse in steps]
    return renamed(doc, rng)


@pytest.mark.parametrize("argv,expected", (
    (("distance",), '"routes_agree": true'),
    (("verify", "--level", "quick"), "PASS distance_routes (css=3 homological=3)"),
))
def test_one_chain_and_one_membership_solver_per_boundary_matrix(
    tmp_path, capsys, monkeypatch, argv, expected
):
    # one distance search gives the css and homological reports, and it reads
    # the command's chain complex: one elimination of d1 and of d2^T each, and
    # one membership set-up of each
    from quhom import complex2, distance, documents, zmod

    doc = relabeled_grid_doc(3, 3, 2)
    chain = chain_complex(documents.complex_from_dict(doc)[0], 2)
    boundaries = (chain.d1, chain.d2.transpose())
    builds = counted(monkeypatch, complex2.ChainComplexData, "__post_init__")
    eliminations = counted(monkeypatch, zmod.UnitPivotElimination, "__init__")
    setups = counted_property(monkeypatch, zmod.UnitPivotElimination, "_unpivoted")
    searches = counted(monkeypatch, distance, "_weight_shell_search")
    code, out, _ = run_cli(capsys, *argv, write_json(tmp_path / "grid.json", doc))
    assert code == 0 and expected in out
    assert len(builds) == 1
    assert len(searches) == 1
    matrix_of = {id(elimination): matrix for elimination, matrix in eliminations}
    eliminated = [matrix for _, matrix in eliminations]
    assert [eliminated.count(m) for m in boundaries] == [1, 1]
    set_up = [matrix_of[id(elimination)] for elimination in setups]
    assert [set_up.count(m) for m in boundaries] == [1, 1]


@pytest.mark.parametrize("k,l", ((3, 3), (2, 2)))
def test_verify_builds_one_complement_per_span(tmp_path, capsys, monkeypatch, k, l):
    # the witness check reads the complement of the span its nonzero part is
    # tested against (a pure-type witness has a zero part, which needs none),
    # and within the exhaustive cap (the 2x2 grid) the complement-duality
    # check reads both; each is built once
    from quhom import documents, zmod
    from quhom.distance import COCYCLE, distance_css

    doc = relabeled_grid_doc(k, l, 2)
    spec = StabilizerSpec.from_chain(chain_complex(documents.complex_from_dict(doc)[0], 2))
    # a cocycle witness is X-type, so its x is tested against F-perp
    cocycle = distance_css(spec).witness_side == COCYCLE
    tested = spec.face_matrix if cocycle else spec.vertex_matrix
    expected = [tested] if (k, l) == (3, 3) else [spec.face_matrix, spec.vertex_matrix]
    eliminations = counted(monkeypatch, zmod.UnitPivotElimination, "__init__")
    complements = counted_property(monkeypatch, zmod.UnitPivotElimination, "complement")
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", write_json(tmp_path / "g.json", doc))
    assert code == 0 and "PASS distance_witness" in out
    assert (k, l) == (3, 3) or "PASS complement_duality_face_span" in out
    matrix_of = {id(elimination): matrix for elimination, matrix in eliminations}
    built = [matrix_of[id(elimination)] for elimination in complements]
    assert len(built) == len(expected) and all(built.count(m) == 1 for m in expected)


WIDE_SKIPS = (
    "SKIP projector_trace (modulus does not fit in int64)\n"
    "SKIP complement_duality_face_span (modulus does not fit in int64)\n"
    "SKIP complement_duality_vertex_span (modulus does not fit in int64)\n"
)


def test_zero_qudits_at_a_modulus_past_int64(tmp_path, capsys):
    # within the caps, since D^0 = 1; the dense and exhaustive stages skip
    doc = {"modulus": 2**63, "vertices": ["v0"], "edges": [], "faces": []}
    path = write_json(tmp_path / "wide.json", doc)
    code, out, err = run_cli(capsys, "verify", path)
    assert (code, err) == (0, "")
    assert WIDE_SKIPS in out and out.endswith("\nok\n")
    code, out, err = run_cli(capsys, "params", path, "--verify")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["dimension"], report["verified"]) == (1, True)


def test_zero_qudit_check_matrix_past_int64(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("18446744073709551617 0 0 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--check-matrix", str(path))
    assert (code, err) == (0, "")
    assert WIDE_SKIPS in out and "PASS distance_css (d=NoLogicals)" in out
    code, out, err = run_cli(capsys, "params", "--verify", "--check-matrix", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["verified"] is True


def test_zero_qudits_at_a_large_modulus_within_int64(tmp_path, capsys):
    # the roots-of-unity table holds one entry when there are no qudits
    doc = {"modulus": 2**62, "vertices": ["v0"], "edges": [], "faces": []}
    code, out, err = run_cli(capsys, "verify", write_json(tmp_path / "big.json", doc))
    assert (code, err) == (0, "")
    assert "PASS projector_trace residual=0.000e+00 (trace=1 expected=1)" in out
    assert "PASS complement_duality_face_span residual=0.000e+00 (|E|=1 |Eperp|=1)" in out
