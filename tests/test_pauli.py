import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quhom.complex2 import chain_complex, homology_cardinality, rp2, torus, torus_grid
from quhom.errors import BudgetExceeded, ScalarViolation
from quhom.pauli import (
    ENUMERATION_CAP,
    PauliProduct,
    StabilizerSpec,
    code_dimension,
    enumerate_group,
    enumerate_pauli_closure,
    export_check_matrix,
    parse_check_matrix,
    stabilizer_size,
    syndrome,
)

from quhom.zmod import ZModMatrix

from _corpus import ACCEPTANCE_MODULI, acceptance_complexes, two_complex_corpus
from _reference import commutation_phase, elements, identity, inverse, multiply


def random_pauli(rng, D, n):
    return PauliProduct(
        D,
        rng.randrange(D),
        tuple(rng.randrange(D) for _ in range(n)),
        tuple(rng.randrange(D) for _ in range(n)),
    )


def spec_for(complex2, D):
    return StabilizerSpec.from_chain(chain_complex(complex2, D))


def test_multiply_single_qudit():
    D = 3
    x = PauliProduct.x_type(D, (1,))
    z = PauliProduct.z_type(D, (1,))
    assert multiply(x, z) == PauliProduct(D, 0, (1,), (1,))
    assert multiply(z, x) == PauliProduct(D, 1, (1,), (1,))


def test_multiply_inverse_gives_identity():
    rng = random.Random(2)
    for _ in range(100):
        D = rng.choice([2, 3, 4, 5, 6])
        n = rng.randint(1, 4)
        p = random_pauli(rng, D, n)
        assert multiply(p, inverse(p)) == identity(D, n)
        assert multiply(inverse(p), p) == identity(D, n)


def test_multiply_associative():
    rng = random.Random(3)
    for _ in range(200):
        D = rng.choice([2, 3, 4, 6])
        n = rng.randint(1, 3)
        p, q, r = (random_pauli(rng, D, n) for _ in range(3))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
        assert multiply(p, identity(D, n)) == p


def test_power_d_kills_xz_parts():
    rng = random.Random(5)
    for _ in range(60):
        D = rng.choice([2, 3, 4, 5])
        n = rng.randint(1, 3)
        p = random_pauli(rng, D, n)
        acc = identity(D, n)
        for _ in range(D):
            acc = multiply(acc, p)
        assert not any(acc.x) and not any(acc.z)


def test_commutation_phase():
    D = 5
    x = PauliProduct.x_type(D, (1,))
    z = PauliProduct.z_type(D, (1,))
    assert commutation_phase(z, x) == 1  # ZX = w XZ
    assert commutation_phase(x, z) == D - 1
    rng = random.Random(7)
    for _ in range(50):
        p = random_pauli(rng, D, 3)
        assert commutation_phase(p, p) == 0


def test_weight():
    D = 3
    assert identity(D, 4).weight() == 0
    assert PauliProduct(D, 0, (1,), (2,)).weight() == 1
    assert PauliProduct(D, 0, (1, 0, 0), (0, 1, 0)).weight() == 2


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(identity(3, 2), identity(3, 3))
    with pytest.raises(ValueError):
        multiply(identity(3, 2), identity(4, 2))


def test_face_operator_examples():
    # a face generator is Z to the face's boundary column
    assert spec_for(rp2(), 4).face_generator(0) == PauliProduct.z_type(4, (2,))
    assert spec_for(torus(), 3).face_generator(0) == identity(3, 2)
    spec = spec_for(torus_grid(2, 2), 5)
    for f in range(4):
        assert spec.face_generator(f).weight() == 4


def test_vertex_operator_examples():
    # a vertex generator is X to the vertex's row of d1; self-loops cancel
    assert spec_for(rp2(), 3).vertex_generator(0) == identity(3, 1)
    assert spec_for(torus(), 4).vertex_generator(0) == identity(4, 2)
    spec = spec_for(torus_grid(2, 2), 2)
    for v in range(4):
        assert spec.vertex_generator(v).weight() == 4


def test_face_vertex_commutation_pairs():
    for complex2, label in two_complex_corpus(40, seed=61):
        for D in range(2, 7):
            spec = spec_for(complex2, D)
            for f in range(len(complex2.faces)):
                bf = spec.face_generator(f)
                for v in range(len(complex2.vertices)):
                    av = spec.vertex_generator(v)
                    assert commutation_phase(bf, av) == 0, (label, D, f, v)


def test_enumerate_single_z():
    spec = StabilizerSpec(
        modulus=3,
        n=1,
        face_matrix=ZModMatrix.from_rows([(1,)], 1, 3),
        vertex_matrix=ZModMatrix.from_rows([], 1, 3),
    )
    enum = enumerate_group(spec)
    assert enum.size == 3
    assert enum.scalar_violation is None


def test_enumerate_torus_spec_trivial():
    enum = enumerate_group(spec_for(torus(), 4))
    assert enum.size == 1


def test_enumerate_scalar_generator_flagged():
    enum = enumerate_pauli_closure([PauliProduct.scalar(3, 1, 2)], 3, 2)
    assert enum.scalar_violation is not None
    assert enum.size == 3


def test_enumerate_noncommuting_produces_scalar():
    # X and Z on one qudit: the commutator is w I
    gens = [PauliProduct.x_type(2, (1,)), PauliProduct.z_type(2, (1,))]
    enum = enumerate_pauli_closure(gens, 2, 1)
    assert enum.scalar_violation is not None


def test_enumeration_cap():
    spec = spec_for(torus_grid(3, 3), 6)
    with pytest.raises(BudgetExceeded):
        enumerate_group(spec, cap=100)


def test_code_dimension_paper_values():
    assert code_dimension(spec_for(rp2(), 2)) == 2
    assert code_dimension(spec_for(rp2(), 3)) == 1
    for D in (2, 3, 4, 5):
        assert code_dimension(spec_for(torus(), D)) == D**2


def test_code_dimension_torus_grid():
    spec = spec_for(torus_grid(2, 2), 2)
    assert spec.n == 8
    assert stabilizer_size(spec) == 64
    assert code_dimension(spec) == 4
    assert enumerate_group(spec).size == 64


def test_code_dimension_scalar_violation():
    spec = StabilizerSpec(
        modulus=3,
        n=1,
        face_matrix=ZModMatrix.from_rows([(1,)], 1, 3),
        vertex_matrix=ZModMatrix.from_rows([(1,)], 1, 3),
    )
    with pytest.raises(ScalarViolation):
        code_dimension(spec)


def test_dimension_equals_homology():
    for complex2, label in two_complex_corpus(40, seed=61):
        for D in ACCEPTANCE_MODULI:
            chain = chain_complex(complex2, D)
            spec = StabilizerSpec.from_chain(chain)
            assert code_dimension(spec) == homology_cardinality(chain), (label, D)


def test_syndrome_examples():
    spec = spec_for(torus_grid(2, 2), 2)
    n = spec.n
    assert syndrome(identity(2, n), spec) == (0,) * 8
    for g in spec.generators():
        assert syndrome(g, spec) == (0,) * 8

    # a single-edge X error lights up exactly the two faces adjacent to it
    for edge in range(n):
        err = PauliProduct.x_type(2, tuple(1 if i == edge else 0 for i in range(n)))
        sy = syndrome(err, spec)
        face_part, vertex_part = sy[:4], sy[4:]
        assert sum(1 for b in face_part if b) == 2
        assert vertex_part == (0, 0, 0, 0)


def test_syndrome_is_coset_invariant():
    rng = random.Random(13)
    for complex2, _ in two_complex_corpus(10, seed=67):
        for D in (2, 3):
            spec = spec_for(complex2, D)
            enum = enumerate_group(spec)
            pool = sorted(elements(enum))[:20]
            for _ in range(5):
                err = random_pauli(rng, D, spec.n)
                base = syndrome(err, spec)
                for phase, x, z in pool:
                    s = PauliProduct(D, phase, x, z)
                    assert syndrome(multiply(err, s), spec) == base


def reference_syndrome(error, spec):
    """The earlier syndrome: the commutation phase against each generator, faces first."""
    return tuple(commutation_phase(error, g) for g in spec.generators())


def reference_bad_pairs(spec):
    """The earlier count of `verify`: face-vertex generator pairs that do not commute."""
    gens = spec.generators()
    faces, vertices = gens[: spec.num_face_generators], gens[spec.num_face_generators :]
    return sum(1 for f in faces for v in vertices if commutation_phase(f, v))


def random_check_matrix_spec(rng, D, n):
    """Random face and vertex rows, which in general do not commute."""
    def rows(k):
        return [[rng.choice((0, 0, 1, D - 1, rng.randrange(D))) for _ in range(n)] for _ in range(k)]

    return StabilizerSpec(D, n, ZModMatrix.from_rows(rows(rng.randint(0, 4)), n, D),
                          ZModMatrix.from_rows(rows(rng.randint(0, 4)), n, D))


def test_syndrome_and_bad_pairs_equal_the_per_generator_loop():
    rng = random.Random(71)
    specs = [spec_for(c, D) for c, _ in acceptance_complexes() for D in ACCEPTANCE_MODULI]
    specs += [random_check_matrix_spec(rng, D, rng.randint(0, 6))
              for D in (*ACCEPTANCE_MODULI, 12, 3 * 2**62) for _ in range(25)]
    assert sum(1 for spec in specs if reference_bad_pairs(spec)) > 50  # non-commuting specs
    for spec in specs:
        assert len(spec.pairings.data) == reference_bad_pairs(spec), spec
        for _ in range(3):
            err = random_pauli(rng, spec.modulus, spec.n)
            assert syndrome(err, spec) == reference_syndrome(err, spec), (spec, err)
        for g in spec.generators():
            assert syndrome(g, spec) == reference_syndrome(g, spec), (spec, g)


def test_check_matrix_roundtrip():
    spec = spec_for(torus_grid(2, 2), 3)
    text = export_check_matrix(spec)
    again = parse_check_matrix(text)
    assert again == spec
    header = text.splitlines()[0].split()
    assert header == ["3", "8", "4", "4"]


def test_check_matrix_parse_errors():
    from quhom.errors import SchemaError

    with pytest.raises(SchemaError):
        parse_check_matrix("")
    with pytest.raises(SchemaError):
        parse_check_matrix("2 2 1 0\n1 1 1")
    with pytest.raises(SchemaError):
        parse_check_matrix("2 2 1 0\n3 0")


def reference_scalar_witness(spec):
    """Face-by-vertex double loop: the reference for the one-product check."""
    for v in spec.face_matrix.entries:
        for u in spec.vertex_matrix.entries:
            pairing = sum(a * b for a, b in zip(v, u)) % spec.modulus
            if pairing:
                return PauliProduct.scalar(spec.modulus, pairing, spec.n)
    return None


def random_spec(rng, D, n, sparse):
    def rows(count):
        pick = (lambda: rng.choice((0, 0, 0, rng.randrange(D)))) if sparse else (lambda: rng.randrange(D))
        return ZModMatrix.from_rows([[pick() for _ in range(n)] for _ in range(count)], n, D)

    return StabilizerSpec(D, n, rows(rng.randint(0, 4)), rows(rng.randint(0, 4)))


@pytest.mark.parametrize("D", (2, 3, 4, 6, 12, 3 * 2**62))
def test_scalar_witness_equals_double_loop(D):
    rng = random.Random(D % 1000)
    for trial in range(150):
        spec = random_spec(rng, D, rng.randint(0, 5), sparse=trial % 2 == 0)
        assert spec.scalar_witness() == reference_scalar_witness(spec), spec
    for complex2, label in two_complex_corpus(40, seed=61):
        if D < 100:
            spec = spec_for(complex2, D)
            assert spec.scalar_witness() is None is reference_scalar_witness(spec), label


def reference_closure(generators, modulus, num_qudits, cap):
    """Deque BFS over (phase, x, z) tuples: the reference for the level-wise closure.

    Returns (size, scalar_violation, elements, order) like GroupEnumeration's
    fields, order being the elements in the order the queue discovers them.
    """
    D = modulus
    n = num_qudits
    gens = [(g.phase, g.x, g.z) for g in generators]
    identity = (0, (0,) * n, (0,) * n)
    seen = {identity}
    order = [identity]
    queue = deque([identity])
    violation = None
    while queue:
        phase, x, z = queue.popleft()
        for gphase, gx, gz in gens:
            nxt = (
                (phase + gphase + sum(a * b for a, b in zip(z, gx))) % D,
                tuple((a + b) % D for a, b in zip(x, gx)),
                tuple((a + b) % D for a, b in zip(z, gz)),
            )
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > cap:
                raise BudgetExceeded(f"group closure exceeded cap {cap}", examined=len(seen))
            if violation is None and nxt[0] and not any(nxt[1]) and not any(nxt[2]):
                violation = PauliProduct(D, nxt[0], nxt[1], nxt[2])
            order.append(nxt)
            queue.append(nxt)
    return len(seen), violation, frozenset(seen), order


def closure_outcome(generators, modulus, num_qudits, cap, reference=False):
    """(size, scalar_violation, elements, order), or ("budget", examined) when over cap.

    `order` lists the elements row by row as GroupEnumeration.rows holds them.
    """
    try:
        if reference:
            return reference_closure(generators, modulus, num_qudits, cap)
        enum = enumerate_pauli_closure(generators, modulus, num_qudits, cap)
    except BudgetExceeded as exc:
        return "budget", exc.examined
    n = num_qudits
    order = [(row[0], tuple(row[1 : n + 1]), tuple(row[n + 1 :])) for row in enum.rows.tolist()]
    return enum.size, enum.scalar_violation, elements(enum), order


@st.composite
def generator_sets(draw):
    D = draw(st.sampled_from((2, 3, 4, 6, 12, 3 * 2**62)))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.sampled_from((0, 1, D - 1, D // 2)), st.integers(0, D - 1))
    vector = st.lists(entry, min_size=n, max_size=n)
    # single-qudit X and Z: two on one qudit do not commute
    unit = st.integers(0, max(n - 1, 0)).map(lambda q: [int(i == q) for i in range(n)])
    pauli = st.one_of(
        st.builds(lambda p, x, z: PauliProduct(D, p, x, z), entry, vector, vector),
        st.builds(lambda p: PauliProduct.scalar(D, p, n), entry),
        st.builds(lambda x: PauliProduct.x_type(D, x), unit),
        st.builds(lambda z: PauliProduct.z_type(D, z), unit),
    )
    return D, n, draw(st.lists(pauli, max_size=5))


def _wide_case(D=3 * 2**62, n=5):
    """256 elements at a modulus past int64: part tables and BFS keys on object arrays."""
    half = D // 2
    xs = [PauliProduct.x_type(D, [half * (i == q) for i in range(n)]) for q in range(4)]
    zs = [PauliProduct.z_type(D, [half * (i in (q, q + 1)) for i in range(n)]) for q in range(4)]
    return D, n, xs + zs


@settings(max_examples=250, deadline=None, derandomize=True)
@given(generator_sets())
@example(_wide_case())
def test_closure_equals_deque_reference(case):
    D, n, gens = case
    assert closure_outcome(gens, D, n, 500) == closure_outcome(gens, D, n, 500, reference=True)


def test_closure_equals_deque_reference_on_acceptance_complexes():
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            spec = spec_for(complex2, D)
            args = (spec.generators(), D, spec.n, ENUMERATION_CAP)
            assert closure_outcome(*args) == closure_outcome(*args, reference=True), (label, D)


@pytest.mark.parametrize(
    "spec",
    [
        spec_for(torus_grid(2, 2), 3),
        spec_for(rp2(), 4),
        StabilizerSpec(
            3, 1, ZModMatrix.from_rows([(1,)], 1, 3), ZModMatrix.from_rows([(1,)], 1, 3)
        ),
    ],
    ids=["grid 2x2 D=3", "rp2 D=4", "scalar D=3"],
)
def test_closure_cap_edges(spec):
    gens = spec.generators()
    size = enumerate_pauli_closure(gens, spec.modulus, spec.n).size
    assert enumerate_pauli_closure(gens, spec.modulus, spec.n, cap=size).size == size
    message = rf"at BFS level \d+ \({size} elements found\)"
    with pytest.raises(BudgetExceeded, match=message) as info:
        enumerate_pauli_closure(gens, spec.modulus, spec.n, cap=size - 1)
    assert info.value.examined == size
    assert closure_outcome(gens, spec.modulus, spec.n, size - 1, reference=True) == (
        "budget",
        size,
    )


@pytest.mark.parametrize(
    "gens",
    [
        [PauliProduct.x_type(3, (1, 0, 0)), PauliProduct.x_type(3, (0, 1, 1))],
        [PauliProduct.z_type(3, (1, 0, 0)), PauliProduct.z_type(3, (0, 1, 1))],
        [PauliProduct.x_type(3, (1, 0, 2)), PauliProduct.z_type(3, (1, 0, 1))],
    ],
    ids=["x parts", "z parts", "x and z parts"],
)
def test_closure_over_cap_in_its_parts(gens):
    # 9 x parts, 9 z parts, or 3 of each: the parts alone pass cap 2
    for cap in (1, 2):
        assert closure_outcome(gens, 3, 3, cap) == ("budget", cap + 1)
        assert closure_outcome(gens, 3, 3, cap, reference=True) == ("budget", cap + 1)
    with pytest.raises(BudgetExceeded, match=r"at BFS level \d+ \(3 elements found\)"):
        enumerate_pauli_closure(gens, 3, 3, cap=2)
    size = reference_closure(gens, 3, 3, 100)[0]
    assert closure_outcome(gens, 3, 3, size) == closure_outcome(gens, 3, 3, size, reference=True)


def test_closure_memory_is_bounded():
    # 15,625 elements; products are formed one bounded block of the frontier at a time
    spec = spec_for(torus_grid(2, 2), 5)
    tracemalloc.start()
    try:
        enum = enumerate_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.size == 5**6
    assert peak < 8 * 2**20
