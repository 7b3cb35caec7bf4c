import json
import os
import subprocess
import sys

import pytest

import quhom
from quhom.cli import main
from quhom.complex2 import chain_complex, rp2, torus_grid
from quhom.documents import complex_to_dict
from quhom.pauli import StabilizerSpec, export_check_matrix


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


def test_verify_full_enumerates_group_once(capsys, monkeypatch):
    from quhom import oracle

    def refuse(spec):
        raise AssertionError("the projector must reuse the verify enumeration")

    monkeypatch.setattr(oracle, "enumerate_group", refuse)
    code, out, _ = run_cli(
        capsys, "verify", "--builtin", "rp2", "--modulus", "2", "--level", "full"
    )
    assert code == 0
    assert "PASS projector_trace" in out


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
    # a route disagreement cannot be produced by valid inputs, so fake one
    import quhom.cli as cli
    from quhom.distance import DistanceReport

    monkeypatch.setattr(
        cli, "distance_css", lambda spec, budget: DistanceReport(7, None, None, "css", 0)
    )
    code, _, err = run_cli(
        capsys, "distance", "--builtin", "torus", "--modulus", "2"
    )
    assert code == 5
    assert "disagree" in err


def test_console_entry_point():
    # the child imports quhom from wherever this process did, installed or not
    src = os.path.dirname(os.path.dirname(quhom.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "quhom.cli", "params", "--builtin", "rp2",
         "--modulus", "4", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 2
