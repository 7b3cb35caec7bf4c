"""Command-line surface: validate, params, distance, convert, verify.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 budget
exceeded, 5 internal theorem mismatch, 6 unreadable input.  JSON output is
deterministic: sorted keys, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import documents, oracle
from .complex2 import (
    TwoComplex,
    chain_complex,
    homology_cardinality,
    is_orientable,
    is_orientable_integral,
    rp2,
    torus,
    torus_grid,
    validate,
)
from .distance import (
    DEFAULT_BUDGET,
    DistanceReport,
    distance_css,
    distance_homological,
    is_logical,
    witness_pauli,
)
from .errors import BudgetExceeded, ScalarViolation, SchemaError, TheoremMismatch
from .hypermap import to_two_complex, verify_equivalence
from .pauli import (
    ENUMERATION_CAP,
    StabilizerSpec,
    code_dimension,
    enumerate_group,
    parse_check_matrix,
    stabilizer_size,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_UNREADABLE = 6

QUICK_DENSE_CAP = 256
QUICK_EXHAUSTIVE_CAP = 4096
GRID_CELL_CAP = 10**4  # largest K*L that --builtin torus-grid:KxL builds


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _builtin_complex(name: str) -> TwoComplex:
    if name == "rp2":
        return rp2()
    if name == "torus":
        return torus()
    if name.startswith("torus-grid:"):
        dims = name.split(":", 1)[1]
        parts = dims.lower().split("x")
        if len(parts) != 2:
            raise SchemaError(f"bad grid size {dims!r}, expected KxL")
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError:
            raise SchemaError(f"bad grid size {dims!r}, expected KxL") from None
        if k < 1 or l < 1:
            raise SchemaError("grid sides must be >= 1")
        if k * l > GRID_CELL_CAP:
            raise BudgetExceeded(
                f"torus-grid {k}x{l} has {k * l} cells, over the cap of {GRID_CELL_CAP}"
            )
        return torus_grid(k, l)
    raise SchemaError(f"unknown builtin {name!r} (use rp2, torus, torus-grid:KxL)")


def _load_complex(args) -> tuple[TwoComplex, int]:
    if getattr(args, "builtin", None):
        if args.modulus is None:
            raise SchemaError("--modulus is required with --builtin")
        complex2 = _builtin_complex(args.builtin)
        modulus = args.modulus
    else:
        if not args.path:
            raise SchemaError("an input path or --builtin is required")
        complex2, modulus = documents.complex_from_dict(documents.load_json(args.path))
        if args.modulus is not None:
            modulus = args.modulus
    if modulus < 2:
        raise SchemaError(f"modulus must be >= 2, got {modulus}")
    return complex2, modulus


def _require_valid(complex2: TwoComplex) -> list[str]:
    violations = validate(complex2)
    for v in violations:
        print(v, file=sys.stderr)
    return violations


def _distance_value(report: DistanceReport):
    return "NoLogicals" if report.no_logicals else report.distance


def cmd_validate(args) -> int:
    complex2, _ = documents.complex_from_dict(documents.load_json(args.path))
    violations = validate(complex2)
    for v in violations:
        print(v)
    if violations:
        return EXIT_VALIDATION
    print("valid")
    return EXIT_OK


def _spec_from_args(args) -> tuple[TwoComplex | None, int, StabilizerSpec]:
    if getattr(args, "check_matrix", None):
        with open(args.check_matrix, encoding="utf-8") as fh:
            spec = parse_check_matrix(fh.read())
        if args.modulus is not None and args.modulus != spec.modulus:
            raise SchemaError("--modulus cannot override a check matrix")
        return None, spec.modulus, spec
    complex2, modulus = _load_complex(args)
    if _require_valid(complex2):
        raise SchemaError("input complex failed validation")
    spec = StabilizerSpec.from_chain(chain_complex(complex2, modulus))
    return complex2, modulus, spec


def cmd_params(args) -> int:
    complex2, modulus, spec = _spec_from_args(args)
    report: dict = {
        "modulus": modulus,
        "num_qudits": spec.n,
        "num_face_generators": spec.num_face_generators,
        "num_vertex_generators": spec.num_vertex_generators,
        "face_generator_weights": [
            sum(1 for e in row if e) for row in spec.face_matrix.entries
        ],
        "vertex_generator_weights": [
            sum(1 for e in row if e) for row in spec.vertex_matrix.entries
        ],
    }
    try:
        size = stabilizer_size(spec)
        dimension = code_dimension(spec)
        report["stabilizer_size"] = size
        report["dimension"] = dimension
        report["scalar_violation"] = None
        assert dimension * size == modulus**spec.n
    except ScalarViolation as exc:
        report["stabilizer_size"] = None
        report["dimension"] = 0
        report["scalar_violation"] = exc.witness.phase

    if complex2 is not None:
        report["orientable_mod_d"] = is_orientable(complex2, modulus)
        report["orientable_integral"] = is_orientable_integral(complex2)
    else:
        report["orientable_mod_d"] = None
        report["orientable_integral"] = None

    if report["scalar_violation"] is not None:
        report["distance"] = None
        report["distance_status"] = "scalar_violation"
    else:
        try:
            dist = distance_css(spec, args.budget)
            report["distance"] = _distance_value(dist)
            report["witness"] = list(dist.witness) if dist.witness else None
            report["witness_side"] = dist.witness_side
            report["distance_status"] = "ok"
        except BudgetExceeded:
            report["distance"] = None
            report["distance_status"] = "budget_exceeded"

    if args.verify and report["scalar_violation"] is None:
        if complex2 is not None:
            homology = homology_cardinality(chain_complex(complex2, modulus))
            if homology != report["dimension"]:
                raise TheoremMismatch(
                    f"span route K={report['dimension']} but homology gives {homology}"
                )
        if report["stabilizer_size"] <= ENUMERATION_CAP:
            enum = enumerate_group(spec)
            if enum.size != report["stabilizer_size"]:
                raise TheoremMismatch(
                    f"enumerated group size {enum.size} != span product {report['stabilizer_size']}"
                )
        if modulus**spec.n <= oracle.DENSE_DIMENSION_CAP:
            if not oracle.verify_projector_dimension(spec):
                raise TheoremMismatch("dense projector trace does not match K")
        report["verified"] = True

    _emit(report, args.format)
    return EXIT_OK


def cmd_distance(args) -> int:
    complex2, modulus, spec = _spec_from_args(args)
    witness = spec.scalar_witness()
    if witness is not None:
        # no stabilizer code, so no distance; params reports the same status
        _emit(
            {
                "distance": None,
                "distance_status": "scalar_violation",
                "scalar_violation": witness.phase,
            },
            args.format,
        )
        return EXIT_OK
    css = distance_css(spec, args.budget)
    payload: dict = {
        "distance": _distance_value(css),
        "css_witness": list(css.witness) if css.witness else None,
        "css_witness_side": css.witness_side,
        "examined_css": css.examined,
    }
    if complex2 is not None:
        hom = distance_homological(complex2, modulus, args.budget)
        payload["homological_witness"] = list(hom.witness) if hom.witness else None
        payload["homological_witness_side"] = hom.witness_side
        payload["examined_homological"] = hom.examined
        if css.distance != hom.distance:
            raise TheoremMismatch(
                f"distance routes disagree: css={_distance_value(css)} "
                f"homological={_distance_value(hom)}"
            )
        payload["routes_agree"] = True
        reports = (css, hom)
    else:
        reports = (css,)
    for rep in reports:
        pauli = witness_pauli(rep, modulus)
        if pauli is None:
            continue
        if pauli.weight() != rep.distance or not is_logical(pauli, spec):
            raise TheoremMismatch(f"{rep.method} witness fails the logical check")
    _emit(payload, args.format)
    return EXIT_OK


def cmd_convert(args) -> int:
    hypermap, specials, modulus = documents.hypermap_from_dict(
        documents.load_json(args.path)
    )
    if args.modulus is not None:
        modulus = args.modulus
    if modulus < 2:
        raise SchemaError(f"modulus must be >= 2, got {modulus}")
    complex2 = to_two_complex(hypermap, specials)
    equivalent = verify_equivalence(hypermap, specials, modulus)
    payload = {
        "complex": documents.complex_to_dict(complex2, modulus),
        "certificate": {
            "equivalent": equivalent,
            "orientable_mod_d": is_orientable(complex2, modulus),
            "orientable_integral": is_orientable_integral(complex2),
            "valid": not validate(complex2),
            "special_darts": list(specials.darts),
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not equivalent:
        print("error: hypermap and 2-complex chains differ", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


class _Transcript:
    def __init__(self):
        self.checks: list[dict] = []

    def record(self, name: str, ok: bool, residual=None, detail=None):
        self.checks.append(
            {"name": name, "status": "PASS" if ok else "FAIL", "residual": residual, "detail": detail}
        )

    def skip(self, name: str, reason: str):
        self.checks.append({"name": name, "status": "SKIP", "residual": None, "detail": reason})

    @property
    def ok(self) -> bool:
        return all(c["status"] != "FAIL" for c in self.checks)

    def emit(self, fmt: str):
        if fmt == "json":
            print(json.dumps({"checks": self.checks, "ok": self.ok}, sort_keys=True, indent=2))
            return
        for c in self.checks:
            line = f"{c['status']:4s} {c['name']}"
            if c["residual"] is not None:
                line += f" residual={c['residual']:.3e}"
            if c["detail"]:
                line += f" ({c['detail']})"
            print(line)
        print("ok" if self.ok else "FAILED")


def _verify_projector(t: _Transcript, spec: StabilizerSpec, dense_cap: int, enum):
    """Record the projector_trace check; return the projector, or None if skipped.

    `enum` is the group enumeration _verify_group built, or None if it skipped.
    """
    dim = spec.modulus**spec.n
    if dim > dense_cap:
        t.skip("projector_trace", f"dimension {dim} over cap {dense_cap}")
        return None
    try:
        proj = oracle.dense_projector(spec, enumeration=enum)
    except BudgetExceeded:
        t.skip("projector_trace", "group too large to enumerate")
        return None
    checks = oracle.projector_checks(spec, projector=proj)
    residual = max(
        checks["hermitian_residual"], checks["idempotent_residual"], checks["trace_residual"]
    )
    ok = residual < oracle.RESIDUAL_TOL and checks["rounded_trace"] == checks["expected_dimension"]
    detail = f"trace={checks['rounded_trace']} expected={checks['expected_dimension']}"
    if checks["expected_dimension"] == 0:
        detail += " (zero code space)"
    t.record("projector_trace", ok, residual, detail)
    return proj


def _verify_complement_duality(t: _Transcript, spec: StabilizerSpec, exhaustive_cap: int):
    dim = spec.modulus**spec.n
    for name, span in (("face_span", spec.face_span), ("vertex_span", spec.vertex_span)):
        if dim > exhaustive_cap:
            t.skip(f"complement_duality_{name}", f"space {dim} over cap {exhaustive_cap}")
            continue
        checks = oracle.complement_duality_checks(span)
        ok = (
            checks["exhaustive_perp_size"] == checks["complement_cardinality"]
            and checks["product"] == checks["full_space"]
            and checks["char_residual"] < oracle.RESIDUAL_TOL
        )
        t.record(
            f"complement_duality_{name}",
            ok,
            checks["char_residual"],
            f"|E|={checks['span_size']} |Eperp|={checks['exhaustive_perp_size']}",
        )


def _verify_group(t: _Transcript, spec: StabilizerSpec):
    witness = spec.scalar_witness()
    try:
        enum = enumerate_group(spec)
    except BudgetExceeded:
        t.skip("group_enumeration", "predicted size over enumeration cap")
        return None
    if witness is None:
        ok = enum.size == stabilizer_size(spec) and enum.scalar_violation is None
        t.record("group_enumeration", ok, None, f"|S|={enum.size}")
    else:
        ok = enum.scalar_violation is not None
        t.record("group_enumeration", ok, None, "scalar violation detected as predicted")
    return enum


def _verify_distance(t: _Transcript, spec, complex2, modulus, budget, dense_cap, proj):
    try:
        css = distance_css(spec, budget)
    except BudgetExceeded:
        t.skip("distance_routes", "budget exceeded")
        return
    if complex2 is not None:
        hom = distance_homological(complex2, modulus, budget)
        ok = css.distance == hom.distance
        t.record(
            "distance_routes",
            ok,
            None,
            f"css={_distance_value(css)} homological={_distance_value(hom)}",
        )
    else:
        t.record("distance_css", True, None, f"d={_distance_value(css)}")
    pauli = witness_pauli(css, modulus)
    if pauli is None:
        t.skip("distance_witness", "no logical operators")
        t.skip("logical_action", "no logical operators")
        return
    t.record(
        "distance_witness",
        pauli.weight() == css.distance and is_logical(pauli, spec),
        None,
        f"weight={pauli.weight()}",
    )
    if modulus**spec.n > dense_cap:
        t.skip("logical_action", f"dimension over cap {dense_cap}")
        return
    t.record(
        "logical_action", oracle.verify_logical_action(pauli, spec, projector=proj), None, None
    )


def cmd_verify(args) -> int:
    complex2, modulus, spec = _spec_from_args(args)
    dense_cap = oracle.DENSE_DIMENSION_CAP if args.level == "full" else QUICK_DENSE_CAP
    exhaustive_cap = (
        oracle.EXHAUSTIVE_CAP if args.level == "full" else QUICK_EXHAUSTIVE_CAP
    )
    t = _Transcript()

    if complex2 is not None:
        t.record("walk_validation", not validate(complex2), None, None)
        chain = chain_complex(complex2, modulus)
        t.record("chain_composition", (chain.d1 @ chain.d2).is_zero(), None, None)
        bad_pairs = sum(
            1
            for i in range(spec.num_face_generators)
            for j in range(spec.num_vertex_generators)
            if spec.face_generator(i).commutation_phase(spec.vertex_generator(j))
        )
        t.record("generator_commutation", bad_pairs == 0, None, f"bad_pairs={bad_pairs}")
        k_span = code_dimension(spec)
        k_homology = homology_cardinality(chain)
        t.record(
            "dimension_vs_homology",
            k_span == k_homology,
            None,
            f"span={k_span} homology={k_homology}",
        )
        enum = _verify_group(t, spec)
        if enum is not None:
            t.record(
                "dimension_size_product",
                k_span * enum.size == modulus**spec.n,
                None,
                f"K*|S|={k_span * enum.size}",
            )
    else:
        enum = _verify_group(t, spec)

    proj = _verify_projector(t, spec, dense_cap, enum)
    _verify_complement_duality(t, spec, exhaustive_cap)
    if spec.scalar_witness() is None:
        _verify_distance(t, spec, complex2, modulus, args.budget, dense_cap, proj)
    else:
        t.skip("distance_routes", "scalar violation: no stabilizer code")

    t.emit(args.format)
    return EXIT_OK if t.ok else EXIT_VALIDATION


def _add_input_flags(sub, check_matrix=False):
    sub.add_argument("path", nargs="?", help="input JSON document")
    sub.add_argument("--builtin", help="built-in complex: rp2, torus, torus-grid:KxL")
    sub.add_argument("--modulus", type=int, help="qudit dimension D (overrides document)")
    if check_matrix:
        sub.add_argument("--check-matrix", help="read a stabilizer check-matrix file instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quhom", description="Qudit homological quantum codes over Z_D"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="schema- and walk-validate a complex document")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("params", help="report code parameters")
    _add_input_flags(p, check_matrix=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--verify", action="store_true", help="cross-check against oracle routes")
    p.set_defaults(func=cmd_params)

    p = subs.add_parser("distance", help="code distance via both routes")
    _add_input_flags(p, check_matrix=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_distance)

    p = subs.add_parser("convert", help="hypermap to equivalent 2-complex")
    p.add_argument("path")
    p.add_argument("--modulus", type=int, help="qudit dimension D (overrides document)")
    p.add_argument("--output", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_convert)

    p = subs.add_parser("verify", help="run the oracle suite on an input")
    _add_input_flags(p, check_matrix=True)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TheoremMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
