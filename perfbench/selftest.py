"""Self-tests of the benchmark's generator, gate and tracer.

    python3 perfbench/selftest.py

Not named test_*.py, so the library's own pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gate, inputs, run, tracer, workloads  # noqa: E402
from quhom import cli  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@contextlib.contextmanager
def document_file(doc):
    """The path of a temporary file holding ``doc``, for one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        yield str(path)


def round_bytes(workload, seed, index):
    return [json.dumps(job.doc, sort_keys=True).encode() for job in workloads.round_jobs(workload, seed, index)]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_documents(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(round_bytes(workload, 7, 0), round_bytes(workload, 7, 0))
                self.assertNotEqual(round_bytes(workload, 7, 0), round_bytes(workload, 8, 0))

    def test_no_document_repeats_within_a_round(self):
        for workload in workloads.WORKLOADS:
            docs = round_bytes(workload, 3, 0)
            self.assertEqual(len(docs), len(set(docs)), workload)

    def test_relabeled_documents_differ_across_rounds(self):
        # Random corpus documents can repeat across rounds (there are only
        # two 1-dart hypermaps per modulus), but every job runs in a
        # process of its own, so no cache sees a repeat.
        for workload in ("grid_params", "grid_distance", "oracle_verify"):
            docs = [d for index in range(3) for d in round_bytes(workload, 3, index)]
            self.assertEqual(len(docs), len(set(docs)), workload)

    def test_relabeled_named_complexes_keep_K_and_d(self):
        import random

        rng = random.Random(5)
        cases = [(inputs.torus_grid_doc(3, 4, 3), "torus-grid:3x4", 3),
                 (inputs.torus_grid_doc(2, 2, 6), "torus-grid:2x2", 6),
                 (inputs.rp2_doc(3), "rp2", 3), (inputs.rp2_doc(4), "rp2", 4),
                 (inputs.torus_doc(5), "torus", 5)]
        for doc, builtin, D in cases:
            with self.subTest(builtin=builtin, D=D):
                expected = {}
                for command in ("params", "distance"):
                    rc, out = run_cli([command, "--builtin", builtin, "--modulus", str(D)])
                    self.assertEqual(rc, 0)
                    expected.update(json.loads(out))
                with document_file(inputs.relabel(doc, rng)) as path:
                    got = {}
                    for command in ("params", "distance"):
                        rc, out = run_cli([command, path])
                        self.assertEqual(rc, 0)
                        got.update(json.loads(out))
                for key in ("dimension", "stabilizer_size", "num_qudits", "distance"):
                    self.assertEqual(got[key], expected[key], key)


class GateTests(unittest.TestCase):
    def grid_facts(self, k, l, D):
        return {"modulus": D, "n": 2 * k * l, "K": D**2, "distance": min(k, l)}

    def test_correct_outputs_pass(self):
        facts = self.grid_facts(2, 2, 3)
        with document_file(inputs.torus_grid_doc(2, 2, 3)) as path:
            for argv in (["params", "--verify"], ["distance"], ["verify", "--format", "json"]):
                rc, out = run_cli([argv[0], path, *argv[1:]])
                self.assertIsNone(gate.check(argv, rc, out, dict(facts)), argv)

    def test_corrupted_outputs_fail(self):
        facts = self.grid_facts(2, 2, 3)
        with document_file(inputs.torus_grid_doc(2, 2, 3)) as path:
            _, params = run_cli(["params", path])
            _, distance = run_cli(["distance", path])
            _, verify = run_cli(["verify", path, "--format", "json"])

        def corrupt(text, edit):
            payload = json.loads(text)
            edit(payload)
            return json.dumps(payload)

        def pass_to_skip(payload):
            check = next(c for c in payload["checks"] if c["status"] == "PASS")
            check["status"] = "SKIP"

        cases = [
            (["params"], corrupt(params, lambda p: p.update(dimension=p["dimension"] * 3))),
            (["params"], corrupt(params, lambda p: p.update(distance=1))),
            (["distance"], corrupt(distance, lambda p: p.update(distance=3))),
            (["distance"], corrupt(distance, lambda p: p.update(routes_agree=False))),
            (["verify", "--format", "json"], corrupt(verify, pass_to_skip)),
            (["verify", "--format", "json"], corrupt(verify, lambda p: p.update(ok=False))),
            (["params"], "Traceback (most recent call last):"),
        ]
        for argv, out in cases:
            with self.subTest(argv=argv, out=out[:60]):
                self.assertEqual(gate.check(argv, 0, out, dict(facts))[0], "wrong_output")
        self.assertEqual(gate.check(["params"], 1, params, dict(facts))[0], "undocumented_exit")
        self.assertEqual(gate.check(["params"], 5, params, dict(facts))[0], "wrong_output")

    def test_corrupted_convert_fails(self):
        doc = {"modulus": 3, "n": 3, "alpha": [[1, 2, 3]], "sigma": [[1, 2]]}
        with document_file(doc) as path:
            rc, out = run_cli(["convert", path])
        self.assertIsNone(gate.check(["convert"], rc, out, {"modulus": 3}))
        payload = json.loads(out)
        payload["certificate"]["equivalent"] = False
        verdict = gate.check(["convert"], 0, json.dumps(payload), {"modulus": 3})
        self.assertEqual(verdict[0], "wrong_output")

    def test_seed_pass_rule_holds_on_small_grids(self):
        for k, l, D, level in ((1, 2, 3, "quick"), (1, 2, 5, "full"), (2, 2, 2, "quick"), (1, 3, 2, "full")):
            with self.subTest(k=k, l=l, D=D, level=level), document_file(inputs.torus_grid_doc(k, l, D)) as path:
                rc, out = run_cli(["verify", path, "--level", level, "--format", "json"])
                passed = {c["name"] for c in json.loads(out)["checks"] if c["status"] == "PASS"}
                self.assertEqual(rc, 0)
                self.assertLessEqual(gate.seed_pass_checks(2 * k * l, D, D**2, level), passed)


class JobRunTests(unittest.TestCase):
    def test_failed_command_leaves_the_rest_of_its_job_not_run(self):
        job = workloads.Job("g", inputs.torus_grid_doc(2, 2, 3), [["params"], ["verify", "--format", "json"]],
                            {"modulus": 3})

        def crash(argv):
            raise ValueError("boom")

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.json"
            path.write_text(json.dumps(job.doc), encoding="utf-8")
            job_run = run.JobRun(job, path, Path(tmp), None)
            job_run.main = crash
            result = job_run.run()
        self.assertEqual(result["attempted"], 1)
        self.assertEqual([f["kind"] for f in result["failures"]], ["traceback"])
        self.assertEqual(result["not_run"], ["g:verify"])
        self.assertEqual(len(result["ops"]), 2)
        self.assertIsNone(result["ops"][1])

    def test_known_defect_probe_is_reported_not_counted(self):
        import random

        job = workloads._hypermap_job(random.Random(1), "h", 1, 3)  # one dart: no edges after convert
        self.assertEqual((job.commands, job.probe), ([["convert"], ["params"]], ["verify", "--format", "json"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.json"
            path.write_text(json.dumps(job.doc), encoding="utf-8")
            result = run.JobRun(job, path, Path(tmp), tracer.Tracer()).run()
        self.assertEqual((result["attempted"], result["failures"]), (2, []))
        self.assertEqual([p["op"] for p in result["known_defect"]], [f"{job.name}:verify"])
        self.assertEqual(len(result["ops"]), 3)
        self.assertIsNone(result["ops"][2])

class TracerTests(unittest.TestCase):
    def test_traced_run_hits_every_library_module_and_restores(self):
        from quhom import distance, zmod

        originals = (zmod.smith_normal_form, distance.contains, zmod.orthogonal_complement)
        jobs = [workloads.Job("h", {"modulus": 2, "n": 4, "alpha": [[1, 2], [3, 4]], "sigma": [[1, 3]]},
                              [["convert"]]),
                workloads.Job("g", inputs.torus_grid_doc(2, 2, 2), [["distance"], ["verify"]])]
        trace = tracer.Tracer()
        trace.install()
        try:
            for job in jobs:
                with document_file(job.doc) as path:
                    for argv in job.commands:
                        trace.call(tracer.ROOT, run_cli, [argv[0], path, *argv[1:]])
        finally:
            trace.uninstall()
        self.assertEqual(originals, (zmod.smith_normal_form, distance.contains, zmod.orthogonal_complement))
        self.assertLessEqual(set(tracer.MODULES), set(trace.modules_hit()))
        self.assertEqual(trace.absent(), [])
        totals = trace.totals()
        self.assertGreater(totals["zmod.snf_calls"], 0)
        self.assertGreater(totals["distance.candidates"], 0)
        self.assertEqual(totals["oracle.dense_dim_max"], 2**8)

    def test_removed_function_is_reported_absent(self):
        from quhom import oracle

        saved = oracle.dense_projector
        del oracle.dense_projector
        trace = tracer.Tracer()
        try:
            trace.install()
            trace.uninstall()
        finally:
            oracle.dense_projector = saved
        self.assertIn("oracle.projector_build_s", trace.absent())
        self.assertEqual(trace.totals()["oracle.projector_build_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
