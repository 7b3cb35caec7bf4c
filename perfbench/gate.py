"""Correctness gate: each CLI output against closed forms and identities.

``check`` returns None when an output is right and a kind with a one-line
reason when it is not.  ``facts`` comes from the job (see ``workloads.Job``) and is
extended by ``params`` output for the random corpus, where only
identities are known in advance.

``verify`` is held to the checks the seed commit of the benchmark already
passes on the same input (``seed_pass_checks``): a check that was PASS and
is now SKIP or FAIL, or missing, is a wrong output.
"""

from __future__ import annotations

import json

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6}

# Caps of the seed commit's `verify`: dense operator dimension, exhaustive
# space size, group enumeration size, per level.
SEED_DENSE_CAP = {"quick": 256, "full": 4096}
SEED_EXHAUSTIVE_CAP = {"quick": 4096, "full": 10**6}
SEED_ENUMERATION_CAP = 10**6


def seed_pass_checks(n: int, modulus: int, K: int, level: str) -> set[str]:
    """Names of the `verify` checks that report PASS at the seed commit.

    Valid for an input 2-complex (not a check matrix) whose distance search
    fits the default budget; K is the code dimension, so |S| = D^n / K.
    """
    dim = modulus**n
    names = {
        "walk_validation",
        "chain_composition",
        "generator_commutation",
        "dimension_vs_homology",
        "distance_routes",
    }
    if dim // K <= SEED_ENUMERATION_CAP:
        names |= {"group_enumeration", "dimension_size_product"}
        if dim <= SEED_DENSE_CAP[level]:
            names.add("projector_trace")
    if dim <= SEED_EXHAUSTIVE_CAP[level]:
        names |= {"complement_duality_face_span", "complement_duality_vertex_span"}
    if K > 1:
        names.add("distance_witness")
        if dim <= SEED_DENSE_CAP[level]:
            names.add("logical_action")
    return names


def _weight(vec) -> int:
    return sum(1 for e in vec if e)


def _check_validate(out: str, facts: dict):
    if out.strip() != "valid":
        return f"validate printed {out.strip()[:80]!r}"
    return None


def _check_convert(out: str, facts: dict):
    payload = json.loads(out)
    cert = payload["certificate"]
    if cert["equivalent"] is not True or cert["valid"] is not True:
        return f"certificate equivalent={cert['equivalent']} valid={cert['valid']}"
    if payload["complex"]["modulus"] != facts["modulus"]:
        return "converted complex has another modulus"
    return None


def _check_params(out: str, facts: dict, argv: list[str]):
    p = json.loads(out)
    D = facts["modulus"]
    if p["modulus"] != D or p["scalar_violation"] is not None:
        return f"modulus {p['modulus']} scalar_violation {p['scalar_violation']}"
    if p["dimension"] * p["stabilizer_size"] != D ** p["num_qudits"]:
        return "dimension * stabilizer_size != D^n"
    for key in ("n", "K"):
        want = facts.get(key)
        got = p["num_qudits"] if key == "n" else p["dimension"]
        if want is not None and got != want:
            return f"{key}={got}, expected {want}"
    if "--verify" in argv and p.get("verified") is not True:
        return "params --verify did not report verified"
    status, dist = p["distance_status"], p["distance"]
    if status == "budget_exceeded" and "--budget" in argv:
        return None
    if status != "ok":
        return f"distance_status {status}"
    if (dist == "NoLogicals") != (p["dimension"] == 1):
        return f"distance {dist} with K={p['dimension']}"
    if "distance" in facts and dist != facts["distance"]:
        return f"distance {dist}, expected {facts['distance']}"
    facts.update(n=p["num_qudits"], K=p["dimension"], distance=dist)
    return None


def _check_distance(out: str, facts: dict):
    p = json.loads(out)
    want = facts["distance"]
    if p["distance"] != want:
        return f"distance {p['distance']}, expected {want}"
    if p.get("routes_agree") is not True:
        return "routes_agree is not true"
    for key in ("css_witness", "homological_witness"):
        witness = p[key]
        if want == "NoLogicals":
            if witness is not None:
                return f"{key} present without logicals"
        elif witness is None or _weight(witness) != want:
            return f"{key} weight differs from distance {want}"
    return None


def _check_verify(out: str, facts: dict, argv: list[str]):
    p = json.loads(out)
    if p["ok"] is not True:
        failed = [c["name"] for c in p["checks"] if c["status"] == "FAIL"]
        return f"verify not ok: FAIL {failed}"
    level = argv[argv.index("--level") + 1] if "--level" in argv else "quick"
    passed = {c["name"] for c in p["checks"] if c["status"] == "PASS"}
    missing = seed_pass_checks(facts["n"], facts["modulus"], facts["K"], level) - passed
    if missing:
        return f"checks no longer PASS: {sorted(missing)}"
    return None


def check(argv: list[str], rc: int, out: str, facts: dict):
    """None when the operation's output is right, else ``(kind, reason)``.

    ``kind`` is ``"undocumented_exit"`` for an exit code outside the
    documented set and ``"wrong_output"`` for anything else; only the
    second makes a run incorrect.  ``argv`` is the command without the
    document path.  Every command in the workloads is expected to exit 0.
    """
    if rc not in DOCUMENTED_EXIT_CODES:
        return "undocumented_exit", f"exit code {rc}"
    reason = _check_output(argv, rc, out, facts)
    return None if reason is None else ("wrong_output", reason)


def _check_output(argv, rc, out, facts):
    if rc != 0:
        return f"exit code {rc}"
    command = argv[0]
    try:
        if command == "validate":
            return _check_validate(out, facts)
        if command == "convert":
            return _check_convert(out, facts)
        if command == "params":
            return _check_params(out, facts, argv)
        if command == "distance":
            return _check_distance(out, facts)
        if command == "verify":
            return _check_verify(out, facts, argv)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable {command} output: {type(exc).__name__}: {exc}"
    return f"no gate for command {command!r}"
