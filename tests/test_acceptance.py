"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  Every tolerance and runtime limit is pinned here.
"""

import contextlib
import io
import json
import random
import time
from itertools import product

from quhom.cli import main
from quhom.complex2 import (
    boundary2,
    chain_complex,
    faces_sum_to_zero,
    homology_cardinality,
    is_orientable_integral,
    rp2,
    torus_grid,
)
from quhom.distance import distance_css, distance_homological, is_logical, witness_pauli
from quhom.hypermap import (
    SpecialDarts,
    d1_matrix,
    d2_matrix,
    delta_matrices,
    to_two_complex,
    verify_equivalence,
)
from quhom.oracle import (
    RESIDUAL_TOL,
    complement_duality_checks,
    projector_checks,
    verify_logical_action,
)
from quhom.pauli import (
    PauliProduct,
    StabilizerSpec,
    code_dimension,
    enumerate_group,
    syndrome,
)
from quhom.zmod import contains, orthogonal_complement

from _corpus import (
    ACCEPTANCE_MODULI,
    acceptance_complexes,
    hypermap_corpus,
    random_special_darts,
    span_corpus,
)
from _reference import (
    commutation_phase,
    face_operators,
    iota_matrix,
    projector,
    vertex_operators,
)

DENSE_CAP = 4096


def _criterion(num, title, limit_seconds, fn):
    start = time.monotonic()
    try:
        detail = fn()
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    elapsed = time.monotonic() - start
    in_time = elapsed < limit_seconds
    status = "PASS" if in_time else "FAIL (runtime)"
    suffix = f" -- {detail}" if detail else ""
    print(f"{status} criterion {num}: {title}{suffix} [{elapsed:.2f}s / {limit_seconds}s]")
    assert in_time, f"criterion {num} took {elapsed:.2f}s, limit {limit_seconds}s"


def _cli_json(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"cli {argv} exited {code}"
    return json.loads(buf.getvalue())


def _spec(complex2, modulus):
    return StabilizerSpec.from_chain(chain_complex(complex2, modulus))


def test_criterion_1_rp2_dimension_parity():
    def run():
        for D in (2, 3, 4, 5, 6, 7, 8):
            report = _cli_json(
                "params", "--builtin", "rp2", "--modulus", str(D), "--format", "json"
            )
            expected = 2 if D % 2 == 0 else 1
            assert report["dimension"] == expected, (D, report["dimension"])
        return "K=2 for even D, K=1 for odd D, D in 2..8"

    _criterion(1, "projective-plane dimension parity", 1.0, run)


def test_criterion_2_torus_dimension():
    def run():
        for D in (2, 3, 4, 5):
            report = _cli_json(
                "params", "--builtin", "torus", "--modulus", str(D), "--format", "json"
            )
            assert report["dimension"] == D**2, (D, report["dimension"])
        return "K=D^2 for D in 2..5"

    _criterion(2, "torus dimension", 1.0, run)


def test_criterion_3_dimension_route_equality():
    def run():
        cases = 0
        for complex2, label in acceptance_complexes():
            for D in ACCEPTANCE_MODULI:
                chain = chain_complex(complex2, D)
                spec = StabilizerSpec.from_chain(chain)
                k_span = code_dimension(spec)
                k_homology = homology_cardinality(chain)
                enum = enumerate_group(spec)
                assert enum.scalar_violation is None, (label, D)
                k_enum, rem = divmod(D**spec.n, enum.size)
                assert rem == 0, (label, D)
                assert k_span == k_homology == k_enum, (label, D)
                cases += 1
        return f"{cases} complex/modulus combinations agree"

    _criterion(3, "K by span = |H1| by SNF = D^n/|S| by enumeration", 120.0, run)


def test_criterion_4_projector_oracle():
    def run():
        cases = 0
        for complex2, label in acceptance_complexes():
            for D in ACCEPTANCE_MODULI:
                if D ** len(complex2.edges) > DENSE_CAP:
                    continue
                spec = _spec(complex2, D)
                checks = projector_checks(spec, projector(spec))
                assert checks["idempotent_residual"] < RESIDUAL_TOL, (label, D)
                assert checks["hermitian_residual"] < RESIDUAL_TOL, (label, D)
                assert checks["trace_residual"] < RESIDUAL_TOL, (label, D)
                assert checks["rounded_trace"] == checks["expected_dimension"], (label, D)
                cases += 1
        return f"{cases} dense projectors verified"

    _criterion(4, "Tr(P)=K with P=P^2=Pdagger", 300.0, run)


def test_criterion_5_complement_counting():
    def run():
        for span, label in span_corpus(200):
            checks = complement_duality_checks(span)
            assert checks["exhaustive_perp_size"] == checks["complement_cardinality"], label
            assert checks["span_size"] * checks["exhaustive_perp_size"] == checks["full_space"], label
            assert checks["char_residual"] < RESIDUAL_TOL, label
        return "200 submodules: |E||Eperp|=D^n and character dichotomy"

    _criterion(5, "orthogonal complement counting", 120.0, run)


def test_criterion_6_face_vertex_commutation():
    def run():
        pairs = 0
        for complex2, label in acceptance_complexes():
            for D in ACCEPTANCE_MODULI:
                spec = _spec(complex2, D)
                for i, bf in enumerate(face_operators(spec)):
                    for j, av in enumerate(vertex_operators(spec)):
                        beta = commutation_phase(bf, av)
                        assert beta == 0, (label, D, i, j)
                        pairs += 1
        return f"{pairs} generator pairs commute"

    _criterion(6, "face and vertex generators commute", 10.0, run)


_distance_reports = None


def _distance_cache():
    global _distance_reports
    if _distance_reports is None:
        reports = {}
        for complex2, label in acceptance_complexes():
            for D in ACCEPTANCE_MODULI:
                spec = _spec(complex2, D)
                css = distance_css(spec)
                hom = distance_homological(chain_complex(complex2, D))
                reports[(label, D)] = (complex2, spec, css, hom)
        _distance_reports = reports
    return _distance_reports


def test_criterion_7_distance_route_agreement():
    def run():
        reports = _distance_cache()
        for (label, D), (complex2, spec, css, hom) in reports.items():
            assert css.distance == hom.distance, (label, D, css, hom)
            for rep in (css, hom):
                pauli = witness_pauli(rep, D)
                if pauli is not None:
                    assert pauli.weight() == rep.distance, (label, D, rep.witness_side)
                    assert is_logical(pauli, spec), (label, D, rep.witness_side)

        grid_spec = _spec(torus_grid(2, 2), 2)
        assert distance_css(grid_spec).distance == 2
        assert distance_homological(chain_complex(torus_grid(2, 2), 2)).distance == 2
        rp2_spec = _spec(rp2(), 3)
        assert distance_css(rp2_spec).no_logicals
        assert distance_homological(chain_complex(rp2(), 3)).no_logicals
        return f"{len(reports)} instances, both routes equal; grid d=2; rp2(D=3) NoLogicals"

    _criterion(7, "distance route agreement", 300.0, run)


def test_criterion_8_normalizer_equals_centralizer():
    def run():
        cases = 0
        for complex2, label in acceptance_complexes():
            n = len(complex2.edges)
            if n > 3:
                continue
            for D in (2, 3):
                spec = _spec(complex2, D)
                face_perp = orthogonal_complement(spec.face_matrix)
                vertex_perp = orthogonal_complement(spec.vertex_matrix)
                for x in product(range(D), repeat=n):
                    for z in product(range(D), repeat=n):
                        p = PauliProduct(D, 0, x, z)
                        zero_syndrome = not any(syndrome(p, spec))
                        characterized = contains(face_perp, x) and contains(vertex_perp, z)
                        assert zero_syndrome == characterized, (label, D, x, z)
                cases += 1
        assert cases > 0
        return f"{cases} instances checked over all D^(2n) Pauli pairs"

    _criterion(8, "N(S)=C(S) exhaustively", 60.0, run)


def test_criterion_9_logical_action():
    def run():
        checked = 0
        for (label, D), (complex2, spec, css, hom) in _distance_cache().items():
            if D**spec.n > DENSE_CAP:
                continue
            proj = None
            for rep in (css, hom):
                pauli = witness_pauli(rep, D)
                if pauli is None:
                    continue
                proj = projector(spec) if proj is None else proj
                assert verify_logical_action(pauli, spec, proj), (label, D, rep.witness_side)
                checked += 1
        assert checked > 0
        return f"{checked} witnesses act beyond scalars on the code space"

    _criterion(9, "logical witnesses act nontrivially", 120.0, run)


def test_criterion_10_hypermap_equivalence():
    def run():
        rng = random.Random(5077)
        cases = 0
        for hypermap, label in hypermap_corpus(200):
            choices = (SpecialDarts.default(hypermap), random_special_darts(rng, hypermap))
            for specials in choices:
                complex2 = to_two_complex(hypermap, specials)
                assert is_orientable_integral(complex2), (label, specials)
                for D in ACCEPTANCE_MODULI:
                    d1 = d1_matrix(hypermap, D)
                    assert (d1 @ d2_matrix(hypermap, D)).is_zero(), (label, D)
                    assert (d1 @ iota_matrix(hypermap, D)).is_zero(), (label, D)
                    chain = delta_matrices(hypermap, specials, D)
                    assert (chain.d1 @ chain.d2).is_zero(), (label, D)
                    d2 = boundary2(complex2, D)
                    equivalent = verify_equivalence(hypermap, specials, complex2, D, d2)
                    assert equivalent, (label, D, specials)
                    assert faces_sum_to_zero(d2), (label, D)
                    k_hypermap = code_dimension(StabilizerSpec.from_chain(chain))
                    k_complex = homology_cardinality(chain_complex(complex2, D))
                    assert k_hypermap == k_complex, (label, D)
                    cases += 1
        return f"{cases} hypermap/special-dart/modulus cases equivalent"

    _criterion(10, "hypermap chain equals 2-complex chain", 120.0, run)
