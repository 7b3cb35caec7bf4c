"""Command-line surface: validate, params, distance, convert, verify.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 budget
exceeded, 5 internal theorem mismatch, 6 unreadable input or unwritable output
file.  JSON output is deterministic: sorted keys, no timestamps.
"""

from __future__ import annotations

import collections
import json
import sys
import types

from . import documents, oracle
from .complex2 import (
    ChainComplexData,
    TwoComplex,
    boundary2,
    chain_complex,
    faces_sum_to_zero,
    homology_cardinality,
    is_orientable_integral,
    rp2,
    torus,
    torus_grid,
    validate,
)
from .distance import (
    CYCLE,
    DEFAULT_BUDGET,
    DistanceReport,
    distance_css,
    is_logical,
    witness_pauli,
)
from .errors import BudgetExceeded, ParseError, ScalarViolation, SchemaError, TheoremMismatch
from .hypermap import to_two_complex, verify_equivalence
from .pauli import (
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
    if args.builtin:
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


def _checked_witness(report: DistanceReport, spec: StabilizerSpec):
    """(the witness's operator on its preferred side, or None; whether it checks).

    Its lift on every side it passes must be a logical operator of the
    reported weight.  Every command that prints a distance checks it here.
    """
    lifts = [witness_pauli(report.read_as(side), spec.modulus) for side in report.sides]
    ok = all(pauli.weight() == report.distance and is_logical(pauli, spec) for pauli in lifts)
    return (lifts[0] if lifts else None), ok


def cmd_validate(args) -> int:
    complex2, _ = documents.complex_from_dict(documents.load_json(args.path))
    violations = validate(complex2)
    for v in violations:
        print(v)
    if violations:
        return EXIT_VALIDATION
    print("valid")
    return EXIT_OK


def _spec_from_args(args) -> tuple[TwoComplex | None, ChainComplexData | None, StabilizerSpec]:
    """(complex, its chain complex, spec); the first two are None for a check matrix."""
    inputs = {"a path": args.path, "--builtin": args.builtin, "--check-matrix": args.check_matrix}
    given = [name for name, value in inputs.items() if value]
    if len(given) > 1:
        raise SchemaError(f"give one input, not {' and '.join(given)}")
    if args.check_matrix:
        spec = parse_check_matrix(documents.read_text(args.check_matrix))
        if args.modulus is not None and args.modulus != spec.modulus:
            raise SchemaError("--modulus cannot override a check matrix")
        return None, None, spec
    complex2, modulus = _load_complex(args)
    if _require_valid(complex2):
        raise SchemaError("input complex failed validation")
    chain = chain_complex(complex2, modulus)
    return complex2, chain, StabilizerSpec.from_chain(chain)


def cmd_params(args) -> int:
    complex2, chain, spec = _spec_from_args(args)
    modulus = spec.modulus
    report: dict = {
        "modulus": modulus,
        "num_qudits": spec.n,
        "num_face_generators": spec.num_face_generators,
        "num_vertex_generators": spec.num_vertex_generators,
        "face_generator_weights": spec.face_matrix.row_weights(),
        "vertex_generator_weights": spec.vertex_matrix.row_weights(),
    }
    try:
        size = stabilizer_size(spec)
        dimension = modulus**spec.n // size
        report["stabilizer_size"] = size
        report["dimension"] = dimension
        report["scalar_violation"] = None
        assert dimension * size == modulus**spec.n
    except ScalarViolation as exc:
        report["stabilizer_size"] = None
        report["dimension"] = 0
        report["scalar_violation"] = exc.witness.phase

    if complex2 is not None:
        report["orientable_mod_d"] = faces_sum_to_zero(chain.d2)
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
            if not _checked_witness(dist, spec)[1]:
                raise TheoremMismatch("distance witness fails the logical check")
            report["distance"] = _distance_value(dist)
            report["witness"] = list(dist.witness) if dist.witness else None
            report["witness_side"] = dist.witness_side
            report["distance_status"] = "ok"
        except BudgetExceeded:
            report["distance"] = None
            report["distance_status"] = "budget_exceeded"

    if args.verify and report["scalar_violation"] is None:
        for check in _dimension_checks(spec, chain, oracle.DENSE_DIMENSION_CAP):
            if check["status"] == "FAIL":
                raise TheoremMismatch(f"check {check['name']} failed ({check['detail']})")
        report["verified"] = True

    _emit(report, args.format)
    return EXIT_OK


def cmd_distance(args) -> int:
    _, chain, spec = _spec_from_args(args)
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
    if chain is not None:
        # the homological keys read the same search with the cycle side preferred
        hom = css.read_as(CYCLE)
        payload["homological_witness"] = list(hom.witness) if hom.witness else None
        payload["homological_witness_side"] = hom.witness_side
        payload["examined_homological"] = hom.examined
        payload["routes_agree"] = True  # one search: kept for output compatibility
    if not _checked_witness(css, spec)[1]:
        raise TheoremMismatch("distance witness fails the logical check")
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
    d2 = boundary2(complex2, modulus)
    equivalent = verify_equivalence(hypermap, specials, complex2, modulus, d2)
    payload = {
        "complex": documents.complex_to_dict(complex2, modulus),
        "certificate": {
            "equivalent": equivalent,
            "orientable_mod_d": faces_sum_to_zero(d2),
            "orientable_integral": is_orientable_integral(complex2),
            "valid": not validate(complex2),
            "special_darts": list(specials.darts),
        },
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
    else:
        print(text)
    if not equivalent:
        print("error: hypermap and 2-complex chains differ", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _check(name: str, ok: bool, residual=None, detail=None) -> dict:
    status = "PASS" if ok else "FAIL"
    return {"name": name, "status": status, "residual": residual, "detail": detail}


def _skip(name: str, reason: str) -> dict:
    return {"name": name, "status": "SKIP", "residual": None, "detail": reason}


# Why the dense and exhaustive stages skip a modulus of oracle.INT64_BOUND or more;
# within their caps that happens only with no qudits.
_WIDE_MODULUS = "modulus does not fit in int64"


def _dimension_checks(spec: StabilizerSpec, chain: ChainComplexData | None, dense_cap: int):
    """Yield the records that check K by homology, closure and tr P; return P, or None.

    `verify` renders them with its other records; `params --verify` stops
    at the first FAIL.  The group is enumerated once and P built from it;
    a group over the enumeration cap skips both.
    """
    dim = spec.modulus**spec.n
    if chain is not None:
        k_span = code_dimension(spec)
        k_homology = homology_cardinality(chain)
        detail = f"span={k_span} homology={k_homology}"
        yield _check("dimension_vs_homology", k_span == k_homology, detail=detail)
    try:
        enum = enumerate_group(spec)
    except BudgetExceeded:
        enum = None
        yield _skip("group_enumeration", "predicted size over enumeration cap")
    else:
        if spec.scalar_witness() is None:
            ok = enum.size == stabilizer_size(spec) and enum.scalar_violation is None
            yield _check("group_enumeration", ok, detail=f"|S|={enum.size}")
        else:
            ok = enum.scalar_violation is not None
            yield _check("group_enumeration", ok, detail="scalar violation detected as predicted")
        if chain is not None:
            product = k_span * enum.size
            yield _check("dimension_size_product", product == dim, detail=f"K*|S|={product}")
    if dim > dense_cap:
        yield _skip("projector_trace", f"dimension {dim} over cap {dense_cap}")
        return None
    if spec.modulus >= oracle.INT64_BOUND:
        yield _skip("projector_trace", _WIDE_MODULUS)
        return None
    if enum is None:
        yield _skip("projector_trace", "group too large to enumerate")
        return None
    proj = oracle.dense_projector(spec, enum)
    checks = oracle.projector_checks(spec, proj)
    detail = f"trace={checks['rounded_trace']} expected={checks['expected_dimension']}"
    if checks["expected_dimension"] == 0:
        detail += " (zero code space)"
    yield _check("projector_trace", checks["ok"], checks["residual"], detail)
    return proj


def _verify_checks(complex2, chain, spec: StabilizerSpec, level: str, budget: int):
    """Yield every `verify` check record, in output order."""
    modulus = spec.modulus
    dim = modulus**spec.n
    dense_cap = oracle.DENSE_DIMENSION_CAP if level == "full" else QUICK_DENSE_CAP
    exhaustive_cap = oracle.EXHAUSTIVE_CAP if level == "full" else QUICK_EXHAUSTIVE_CAP
    if complex2 is not None:
        # _spec_from_args validated the complex and refused it on any violation
        yield _check("walk_validation", True)
        # ChainComplexData formed d1 @ d2 when it was built and refuses a nonzero product
        yield _check("chain_composition", True)
        bad_pairs = len(spec.pairings.data)
        yield _check("generator_commutation", bad_pairs == 0, detail=f"bad_pairs={bad_pairs}")
    proj = yield from _dimension_checks(spec, chain, dense_cap)
    for name, matrix in (("face_span", spec.face_matrix), ("vertex_span", spec.vertex_matrix)):
        if dim > exhaustive_cap:
            yield _skip(f"complement_duality_{name}", f"space {dim} over cap {exhaustive_cap}")
            continue
        if modulus >= oracle.INT64_BOUND:
            yield _skip(f"complement_duality_{name}", _WIDE_MODULUS)
            continue
        checks = oracle.complement_duality_checks(matrix)
        detail = f"|E|={checks['span_size']} |Eperp|={checks['exhaustive_perp_size']}"
        yield _check(f"complement_duality_{name}", checks["ok"], checks["char_residual"], detail)
    if spec.scalar_witness() is not None:
        yield _skip("distance_routes", "scalar violation: no stabilizer code")
        return
    try:
        css = distance_css(spec, budget)
    except BudgetExceeded:
        yield _skip("distance_routes", "budget exceeded")
        return
    d = _distance_value(css)
    if chain is not None:
        yield _check("distance_routes", True, detail=f"css={d} homological={d}")
    else:
        yield _check("distance_css", True, detail=f"d={d}")
    pauli, ok = _checked_witness(css, spec)
    if pauli is None:
        yield _skip("distance_witness", "no logical operators")
        yield _skip("logical_action", "no logical operators")
        return
    yield _check("distance_witness", ok, detail=f"weight={pauli.weight()}")
    if dim > dense_cap:
        yield _skip("logical_action", f"dimension over cap {dense_cap}")
    else:
        yield _check("logical_action", oracle.verify_logical_action(pauli, spec, proj))


def cmd_verify(args) -> int:
    complex2, chain, spec = _spec_from_args(args)
    checks = list(_verify_checks(complex2, chain, spec, args.level, args.budget))
    ok = all(c["status"] != "FAIL" for c in checks)
    if args.format == "json":
        print(json.dumps({"checks": checks, "ok": ok}, sort_keys=True, indent=2))
    else:
        for c in checks:
            line = f"{c['status']:4s} {c['name']}"
            if c["residual"] is not None:
                line += f" residual={c['residual']:.3e}"
            if c["detail"]:
                line += f" ({c['detail']})"
            print(line)
        print("ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VALIDATION


# The CLI's one flag declaration; `_parse` and `build_parser` both read it.
# A flag's kind is str, int, bool (store-true) or a tuple of choices, and its
# dest is the option without "--", "-" read as "_".
_Flag = collections.namedtuple("_Flag", "option kind default help", defaults=(None,))
_Command = collections.namedtuple("_Command", "handler help path_required flags")

_MODULUS = _Flag("--modulus", int, None, "qudit dimension D (overrides document)")
_INPUT_FLAGS = (
    _Flag("--builtin", str, None, "built-in complex: rp2, torus, torus-grid:KxL"),
    _MODULUS,
    _Flag("--check-matrix", str, None, "read a stabilizer check-matrix file instead"),
)
_BUDGET = _Flag("--budget", int, DEFAULT_BUDGET)

COMMANDS = {
    "validate": _Command(cmd_validate, "schema- and walk-validate a complex document", True, ()),
    "params": _Command(cmd_params, "report code parameters", False, (
        *_INPUT_FLAGS,
        _Flag("--format", ("json", "text"), "json"),
        _BUDGET,
        _Flag("--verify", bool, False, "cross-check against oracle routes"),
    )),
    "distance": _Command(cmd_distance, "code distance via both routes", False, (
        *_INPUT_FLAGS,
        _Flag("--format", ("json", "text"), "json"),
        _BUDGET,
    )),
    "convert": _Command(cmd_convert, "hypermap to equivalent 2-complex", True, (
        _MODULUS,
        _Flag("--output", str, None, "write the document here instead of stdout"),
    )),
    "verify": _Command(cmd_verify, "run the oracle suite on an input", False, (
        *_INPUT_FLAGS,
        _Flag("--level", ("quick", "full"), "quick"),
        _Flag("--format", ("json", "text"), "text"),
        _BUDGET,
    )),
}


def _dest(flag: _Flag) -> str:
    return flag.option[2:].replace("-", "_")


def _parse(argv: list[str]) -> types.SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` gives, for the plain calls.

    One pass: a command name, exact flag tokens each with a value that
    converts exactly, and at most one path.  Anything else returns None for
    argparse to decide: help, `--flag=value`, abbreviations, values that
    start with "-", `--`, non-decimal ints, bad choices, a missing or extra
    path, unknown tokens.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = {flag.option: flag for flag in command.flags}
    values = {_dest(flag): flag.default for flag in command.flags}
    paths = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            paths.append(token)
            continue
        flag = flags.get(token)
        if flag is None:
            return None
        if flag.kind is bool:
            values[_dest(flag)] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if flag.kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            value = int(value)
        elif flag.kind is not str and value not in flag.kind:
            return None
        values[_dest(flag)] = value
    if len(paths) > 1 or (command.path_required and not paths):
        return None
    return types.SimpleNamespace(
        command=argv[0], path=paths[0] if paths else None, **values, func=command.handler
    )


def build_parser():
    """The argparse parser of `COMMANDS`: help, usage errors and the rarer forms."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="quhom", description="Qudit homological quantum codes over Z_D"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = subs.add_parser(name, help=command.help)
        if command.path_required:
            p.add_argument("path")
        else:
            p.add_argument("path", nargs="?", help="input JSON document")
        for flag in command.flags:
            if flag.kind is bool:
                p.add_argument(flag.option, action="store_true", help=flag.help)
            elif flag.kind is int:
                p.add_argument(flag.option, type=int, default=flag.default, help=flag.help)
            elif flag.kind is str:
                p.add_argument(flag.option, default=flag.default, help=flag.help)
            else:
                p.add_argument(flag.option, choices=flag.kind, default=flag.default, help=flag.help)
        p.set_defaults(func=command.handler)
    return parser


def main(argv=None) -> int:
    """Run one command; counts are printed exactly, however many digits they have."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        sys.set_int_max_str_digits(digits)


def _run(argv: list[str]) -> int:
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if getattr(args, "budget", 0) < 0:
        print(f"error: budget must be >= 0, got {args.budget}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
