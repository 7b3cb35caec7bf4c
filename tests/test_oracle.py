import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from quhom.complex2 import chain_complex, rp2, torus, torus_grid
from quhom.distance import distance_css, distance_homological, witness_pauli
from quhom.errors import BudgetExceeded
from quhom.oracle import (
    DENSE_DIMENSION_CAP,
    ClassProjector,
    _digit_table,
    _pauli_action,
    complement_duality_checks,
    dense_projector,
    projector_checks,
    span_elements,
    verify_logical_action,
)
from quhom.pauli import PauliProduct, StabilizerSpec, code_dimension, enumerate_group
from quhom.zmod import ZModMatrix

from _corpus import ACCEPTANCE_MODULI, acceptance_complexes, span_corpus, two_complex_corpus
from _reference import (
    class_columns,
    commutation_phase,
    dense_pauli,
    densify,
    elements,
    identity,
    logical_residual,
    multiply,
    per_column_checks,
    projector,
    unclosed_projector,
)


def spec_for(complex2, D):
    return StabilizerSpec.from_chain(chain_complex(complex2, D))


def single_generator_spec(D, z_row=None, x_row=None, n=1):
    face = ZModMatrix.from_rows([z_row] if z_row else [], n, D)
    vertex = ZModMatrix.from_rows([x_row] if x_row else [], n, D)
    return StabilizerSpec(modulus=D, n=n, face_matrix=face, vertex_matrix=vertex)


def random_pauli(rng, D, n):
    return PauliProduct(
        D,
        rng.randrange(D),
        tuple(rng.randrange(D) for _ in range(n)),
        tuple(rng.randrange(D) for _ in range(n)),
    )


def test_dense_identity():
    ident = dense_pauli(identity(3, 2))
    assert np.abs(ident - np.eye(9)).max() < 1e-12


def test_dense_z_qubit():
    z = dense_pauli(PauliProduct.z_type(2, (1,)))
    assert np.abs(z - np.diag([1.0, -1.0])).max() < 1e-12


def test_dense_x_shift():
    x = dense_pauli(PauliProduct.x_type(3, (1,)))
    expected = np.zeros((3, 3))
    for j in range(3):
        expected[(j + 1) % 3, j] = 1.0
    assert np.abs(x - expected).max() < 1e-12


def test_zx_equals_omega_xz():
    D = 3
    omega = np.exp(2j * np.pi / D)
    zx = dense_pauli(PauliProduct.z_type(D, (1,))) @ dense_pauli(PauliProduct.x_type(D, (1,)))
    xz = dense_pauli(PauliProduct.x_type(D, (1,))) @ dense_pauli(PauliProduct.z_type(D, (1,)))
    assert np.abs(zx - omega * xz).max() < 1e-9


def test_tensor_order_first_qudit_slowest():
    # Z on qudit 1 of two qutrits: phase depends on the slow index
    z1 = dense_pauli(PauliProduct(3, 0, (0, 0), (1, 0)))
    omega = np.exp(2j * np.pi / 3)
    expected = np.kron(np.diag([1, omega, omega**2]), np.eye(3))
    assert np.abs(z1 - expected).max() < 1e-9


def test_multiplication_homomorphism():
    rng = random.Random(17)
    for _ in range(60):
        D = rng.choice([2, 3, 4])
        n = rng.randint(1, 3)
        p = random_pauli(rng, D, n)
        q = random_pauli(rng, D, n)
        lhs = dense_pauli(multiply(p, q))
        rhs = dense_pauli(p) @ dense_pauli(q)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_commutation_phase_matches_dense():
    rng = random.Random(19)
    for _ in range(60):
        D = rng.choice([2, 3, 4])
        n = rng.randint(1, 3)
        p = random_pauli(rng, D, n)
        q = random_pauli(rng, D, n)
        beta = commutation_phase(p, q)
        omega = np.exp(2j * np.pi / D)
        lhs = dense_pauli(p) @ dense_pauli(q)
        rhs = omega**beta * (dense_pauli(q) @ dense_pauli(p))
        assert np.abs(lhs - rhs).max() < 1e-9


def test_projector_single_z():
    spec = single_generator_spec(2, z_row=(1,))
    proj = densify(spec, projector(spec))
    assert np.abs(proj - np.diag([1.0, 0.0])).max() < 1e-12


def test_projector_single_x_qutrit():
    spec = single_generator_spec(3, x_row=(1,))
    proj = densify(spec, projector(spec))
    assert abs(np.trace(proj) - 1) < 1e-9
    assert projector_checks(spec, projector(spec))["ok"]


def test_projector_rp2_and_torus():
    spec = spec_for(rp2(), 2)
    assert projector_checks(spec, projector(spec))["rounded_trace"] == 2
    spec = spec_for(torus(), 2)
    assert projector_checks(spec, projector(spec))["rounded_trace"] == 4
    assert np.abs(densify(spec, projector(spec)) - np.eye(4)).max() < 1e-12


def test_projector_checks_verdict():
    spec = spec_for(torus(), 3)
    proj = projector(spec)
    checks = projector_checks(spec, proj)
    assert checks["ok"] and checks["residual"] < 1e-9
    doubled = dataclasses.replace(proj, sums=2 * proj.sums)
    checks = projector_checks(spec, doubled)  # 4P != 2P, trace 18 != 9
    assert not checks["ok"]
    assert checks["residual"] == checks["idempotent_residual"] > 1


def test_projector_scalar_spec_traces_to_zero():
    # noncommuting pure-type generators force a nontrivial scalar
    spec = single_generator_spec(2, z_row=(1,), x_row=(1,))
    checks = projector_checks(spec, projector(spec))
    assert checks["expected_dimension"] == 0
    assert checks["rounded_trace"] == 0
    assert checks["idempotent_residual"] < 1e-9
    assert checks["ok"]


def test_projector_dimension_on_corpus_samples():
    for complex2, label in two_complex_corpus(15, seed=91):
        for D in (2, 3):
            if D ** len(complex2.edges) > 4096:
                continue
            spec = spec_for(complex2, D)
            assert projector_checks(spec, projector(spec))["ok"], (label, D)


def explicit_projector(spec):
    """(1/|S|) times the sum of the dense matrices of every enumerated element."""
    enum = enumerate_group(spec)
    total = sum(
        dense_pauli(PauliProduct(spec.modulus, phase, x, z)) for phase, x, z in elements(enum)
    )
    return total / enum.size


def code_space_basis(spec):
    """Orthonormal eigenvectors of the explicit projector with eigenvalue 1."""
    eigenvalues, eigenvectors = np.linalg.eigh(explicit_projector(spec))
    return eigenvectors[:, eigenvalues > 0.5]


def dense_restriction_is_scalar(pauli, basis):
    """Whether the operator restricted to the span of `basis` is a multiple of I."""
    restriction = basis.conj().T @ dense_pauli(pauli) @ basis
    scale = np.trace(restriction) / basis.shape[1]
    return np.abs(restriction - scale * np.eye(basis.shape[1])).max() < 1e-9


SMALL_SPECS = (
    ("rp2 D=2", spec_for(rp2(), 2)),
    ("rp2 D=3", spec_for(rp2(), 3)),
    ("torus D=3", spec_for(torus(), 3)),
    ("grid 1x2 D=2", spec_for(torus_grid(1, 2), 2)),
    ("grid 1x2 D=3", spec_for(torus_grid(1, 2), 3)),
    ("single X D=3", single_generator_spec(3, x_row=(1,))),
    ("scalar D=2", single_generator_spec(2, z_row=(1,), x_row=(1,))),
    ("scalar D=3 n=2", single_generator_spec(3, z_row=(1, 0), x_row=(1, 0), n=2)),
    # 5 labels, each the sum of a class's 25 members: more than 8 terms, so a sum
    # along a contiguous axis would be pairwise and round differently
    ("scalar D=5", single_generator_spec(5, z_row=(1,), x_row=(1,))),
)


@pytest.mark.parametrize("label,spec", SMALL_SPECS, ids=[label for label, _ in SMALL_SPECS])
def test_sparse_projector_equals_explicit_sum(label, spec):
    proj = projector(spec)
    assert isinstance(proj, ClassProjector)
    assert np.abs(densify(spec, proj) - explicit_projector(spec)).max() < 1e-12


def reference_projector(spec):
    """(codes, rows, values) from one _pauli_action per element in sorted order,
    summed per X part: the reference for the per-class assembly."""
    D, n = spec.modulus, spec.n
    digits = _digit_table(D, n)
    enum = enumerate_group(spec)
    by_shift = {}
    for phase, x, z in sorted(elements(enum)):
        rows, values = _pauli_action(PauliProduct(spec.modulus, phase, x, z), digits)
        if x in by_shift:
            by_shift[x][1] += values
        else:
            by_shift[x] = [rows, values]
    weights = D ** np.arange(n - 1, -1, -1)
    codes = np.array([np.dot(x, weights) for x in by_shift], dtype=np.int64)
    rows = np.stack([r for r, _ in by_shift.values()])
    values = np.stack([v for _, v in by_shift.values()]) / enum.size
    return codes, rows, values


def assert_same_classes(spec, proj, expected):
    """The projector, read out to every column, equals the reference to the last bit."""
    arrays = (proj.codes, *class_columns(spec, proj))
    for name, got, want in zip(("codes", "rows", "values"), arrays, expected):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_checks(spec, proj):
    """projector_checks equals the per-column reference to the last bit."""
    assert repr(projector_checks(spec, proj)) == repr(per_column_checks(spec, proj))


# the oracle_verify benchmark grids; 2x2 D=5 (5^8 dimensions) is over the dense cap
ORACLE_GRIDS = ((1, 2, 5), (1, 3, 3), (1, 5, 2), (2, 2, 5), (1, 3, 4))


@pytest.mark.parametrize("label,spec", SMALL_SPECS, ids=[label for label, _ in SMALL_SPECS])
def test_projector_bit_identical_to_reference(label, spec):
    proj = projector(spec)
    assert_same_classes(spec, proj, reference_projector(spec))
    assert_same_checks(spec, proj)


@pytest.mark.parametrize("k,l,D", ORACLE_GRIDS, ids=[f"{k}x{l} D={D}" for k, l, D in ORACLE_GRIDS])
def test_projector_bit_identical_to_reference_on_grids(k, l, D):
    spec = spec_for(torus_grid(k, l), D)
    if D**spec.n > DENSE_DIMENSION_CAP:
        with pytest.raises(BudgetExceeded):
            projector(spec)
        return
    proj = projector(spec)
    assert_same_classes(spec, proj, reference_projector(spec))
    assert_same_checks(spec, proj)


# TABLE_CAP = 0: no shared z . c table, every block of members computes its own rows
@pytest.mark.parametrize("label,spec", SMALL_SPECS, ids=[label for label, _ in SMALL_SPECS])
def test_projector_bit_identical_to_reference_without_table(label, spec, monkeypatch):
    monkeypatch.setattr("quhom.oracle.TABLE_CAP", 0)
    test_projector_bit_identical_to_reference(label, spec)


@pytest.mark.parametrize("k,l,D", ORACLE_GRIDS, ids=[f"{k}x{l} D={D}" for k, l, D in ORACLE_GRIDS])
def test_projector_bit_identical_to_reference_on_grids_without_table(k, l, D, monkeypatch):
    monkeypatch.setattr("quhom.oracle.TABLE_CAP", 0)
    test_projector_bit_identical_to_reference_on_grids(k, l, D)


def checks_against_dense(spec, proj):
    checks = projector_checks(spec, proj)
    dense = densify(spec, proj)
    assert abs(checks["hermitian_residual"] - np.abs(dense.conj().T - dense).max()) < 1e-12
    assert abs(checks["idempotent_residual"] - np.abs(dense @ dense - dense).max()) < 1e-12
    assert abs(checks["trace"] - np.trace(dense)) < 1e-12
    return checks


@pytest.mark.parametrize("label,spec", SMALL_SPECS, ids=[label for label, _ in SMALL_SPECS])
def test_projector_checks_match_dense_residuals(label, spec):
    proj = projector(spec)
    checks_against_dense(spec, proj)
    checks_against_dense(spec, dataclasses.replace(proj, sums=2 * proj.sums))


def test_projector_checks_count_missing_classes_in_full():
    # X classes on two ququarts that are not closed under negation or sums
    spec = single_generator_spec(4, x_row=(0, 1), n=2)
    for codes in ((1,), (1, 3), (0, 1), (2, 5, 7)):
        for labels in (None, 1, 3):  # 1: all 16 columns on one label
            proj = unclosed_projector(4, 2, codes, seed=len(codes), labels=labels)
            checks = checks_against_dense(spec, proj)
            assert not checks["ok"]
            assert_same_checks(spec, proj)


def test_projector_checks_bit_identical_on_acceptance_specs():
    checked = 0
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            if D ** len(complex2.edges) <= DENSE_DIMENSION_CAP:
                spec = spec_for(complex2, D)
                assert_same_checks(spec, projector(spec))
                checked += 1
    assert checked > 300


def test_projector_checks_bit_identical_on_acceptance_specs_without_table(monkeypatch):
    monkeypatch.setattr("quhom.oracle.TABLE_CAP", 0)
    test_projector_checks_bit_identical_on_acceptance_specs()


def test_logical_action_agrees_with_dense_restriction_on_witnesses():
    checked = 0
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            if D ** len(complex2.edges) > 256:
                continue
            spec = spec_for(complex2, D)
            proj, basis = projector(spec), None
            for rep in (distance_css(spec), distance_homological(chain_complex(complex2, D))):
                pauli = witness_pauli(rep, D)
                if pauli is None:
                    continue
                basis = code_space_basis(spec) if basis is None else basis
                expected = not dense_restriction_is_scalar(pauli, basis)
                assert verify_logical_action(pauli, spec, proj) == expected, (label, D)
                assert expected, (label, D)
                checked += 1
    assert checked > 0


def test_logical_action_agrees_with_dense_restriction_on_stabilizers():
    for label, spec in SMALL_SPECS:
        if spec.scalar_witness() is not None:
            continue
        basis = code_space_basis(spec)
        for stab in (*spec.generators(), identity(spec.modulus, spec.n)):
            assert dense_restriction_is_scalar(stab, basis), label
            assert not verify_logical_action(stab, spec, projector(spec)), label


def test_logical_action_counts_the_classes_r_p_misses(monkeypatch):
    # R = X^(0,1) on two ququarts moves the classes of codes 0, 3, 5 to 1, 0, 6.
    # Class 3 has X part -x_R, so c = tr(RP)/tr(P) is not 0, and classes 3 and
    # 5, which R P does not land on, hold -c P in R P - c P
    D, n, codes = 4, 2, (0, 3, 5)
    spec = single_generator_spec(D, x_row=(0, 1), n=n)
    pauli = PauliProduct.x_type(D, (0, 1))
    shifted = {4 * (code // 4) + (code + 1) % 4 for code in codes}
    assert set(codes) - shifted == {3, 5}
    for labels in (None, 3):
        proj = unclosed_projector(D, n, codes, seed=1, labels=labels)
        assert round(proj.sums[0][proj.labels].sum().real) != 0  # tr P
        residual = logical_residual(pauli, spec, proj)
        # the library's residual lies between these two tolerances exactly
        # when it is the dense one
        for tol, acts in ((residual * (1 - 1e-9), True), (residual * (1 + 1e-9), False)):
            monkeypatch.setattr("quhom.oracle.RESIDUAL_TOL", tol)
            assert verify_logical_action(pauli, spec, proj) is acts, (labels, tol)


def test_logical_action_zero_code_space():
    # P = 0, so nothing acts beyond a scalar on the code space
    spec = single_generator_spec(3, z_row=(1, 0), x_row=(1, 0), n=2)
    assert np.abs(explicit_projector(spec)).max() < 1e-12
    assert not verify_logical_action(PauliProduct.x_type(3, (0, 1)), spec, projector(spec))


def test_projector_checks_stay_sparse_at_the_dense_cap():
    # 4^6 = 4096 dimensions: one dense complex D^n x D^n array alone is 268 MB
    grid = spec_for(torus_grid(1, 3), 4)
    # full-rank Z rows, no X rows: one X class of 4096 members on 4096 labels;
    # full-rank X rows, no Z rows: 4096 X classes of one member on one label
    full = ZModMatrix.from_coo(6, 6, 4, range(6), range(6), [1] * 6)
    none = ZModMatrix.from_rows([], 6, 4)
    one_class = StabilizerSpec(4, 6, full, none)
    all_classes = StabilizerSpec(4, 6, none, full)
    for spec, dimension in ((grid, 16), (one_class, 1), (all_classes, 1)):
        witness = witness_pauli(distance_css(spec), 4)
        tracemalloc.start()
        try:
            proj = projector(spec)
            checks = projector_checks(spec, proj)
            acts = witness is None or verify_logical_action(witness, spec, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checks["rounded_trace"] == checks["expected_dimension"] == dimension
        assert acts
        assert peak < 64 * 2**20


def test_logical_action_torus():
    spec = spec_for(torus(), 2)
    assert verify_logical_action(PauliProduct.x_type(2, (1, 0)), spec, projector(spec))


def test_logical_action_rp2_witness():
    spec = spec_for(rp2(), 2)
    rep = distance_css(spec)
    witness = witness_pauli(rep, 2)
    assert witness is not None
    assert verify_logical_action(witness, spec, projector(spec))


def test_stabilizer_element_acts_as_identity():
    # restriction of a stabilizer element to its own code space is a scalar
    z_spec = single_generator_spec(2, z_row=(1,))
    stab = PauliProduct.z_type(2, (1,))
    assert not verify_logical_action(stab, z_spec, projector(z_spec))


def test_complement_duality_examples():
    checks = complement_duality_checks(ZModMatrix.from_rows([(2,)], 1, 6))
    assert checks["span_size"] == 3
    assert checks["exhaustive_perp_size"] == 2
    assert checks["product"] == 6

    assert checks["ok"]

    checks = complement_duality_checks(ZModMatrix.from_rows([], 2, 3))
    assert checks["span_size"] == 1
    assert checks["exhaustive_perp_size"] == 9
    assert checks["ok"]


def test_complement_duality_on_corpus():
    for span, label in span_corpus(60):
        assert complement_duality_checks(span)["ok"], label


def test_span_elements_closure():
    span = ZModMatrix.from_rows([(2, 0), (0, 3)], 2, 6)
    elems = span_elements(span)
    assert len(elems) == 6
    assert (2, 3) in elems


def test_dense_cap():
    with pytest.raises(BudgetExceeded):
        dense_pauli(identity(2, 13))
    chain = chain_complex(torus(), 2)
    spec = StabilizerSpec.from_chain(chain)
    with pytest.raises(BudgetExceeded):
        dense_projector(spec, enumerate_group(spec), cap=2)


def test_code_dimension_matches_trace_for_builders():
    for builder, D in ((rp2, 2), (rp2, 3), (torus, 2), (torus, 3)):
        spec = spec_for(builder(), D)
        checks = projector_checks(spec, projector(spec))
        assert checks["rounded_trace"] == code_dimension(spec)


def test_complement_duality_memory_is_bounded():
    # 5^8 = 390,625 etas against the 125 face-span elements: one unblocked
    # dot table is 48.8 million entries (1.2 GB with its roots), so the etas
    # go in blocks of at most CELL_CAP products.  What is left is about
    # 40 MB: the shared digit table (390,625 x 8 int64, 25 MB) with the
    # temporaries that build it, and one character sum per eta (6 MB).
    spec = spec_for(torus_grid(2, 2), 5)
    _digit_table.cache_clear()
    tracemalloc.start()
    try:
        checks = complement_duality_checks(spec.face_matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks["ok"]
    assert (checks["span_size"], checks["exhaustive_perp_size"]) == (125, 5**5)
    assert peak < 64 * 2**20
