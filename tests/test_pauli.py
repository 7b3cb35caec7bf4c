import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quhom.complex2 import chain_complex, homology_cardinality, rp2, torus, torus_grid
from quhom.errors import BudgetExceeded, ScalarViolation
from quhom.pauli import (
    ENUMERATION_CAP,
    PauliProduct,
    StabilizerSpec,
    additive_closure,
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
from _reference import (
    commutation_phase,
    elements,
    face_operators,
    identity,
    inverse,
    multiply,
    vertex_operators,
)


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
    assert face_operators(spec_for(rp2(), 4)) == (PauliProduct.z_type(4, (2,)),)
    assert face_operators(spec_for(torus(), 3)) == (identity(3, 2),)
    faces = face_operators(spec_for(torus_grid(2, 2), 5))
    assert [f.weight() for f in faces] == [4] * 4


def test_vertex_operator_examples():
    # a vertex generator is X to the vertex's row of d1; self-loops cancel
    assert vertex_operators(spec_for(rp2(), 3)) == (identity(3, 1),)
    assert vertex_operators(spec_for(torus(), 4)) == (identity(4, 2),)
    vertices = vertex_operators(spec_for(torus_grid(2, 2), 2))
    assert [v.weight() for v in vertices] == [4] * 4


def test_face_vertex_commutation_pairs():
    for complex2, label in two_complex_corpus(40, seed=61):
        for D in range(2, 7):
            spec = spec_for(complex2, D)
            for f, bf in enumerate(face_operators(spec)):
                for v, av in enumerate(vertex_operators(spec)):
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


def rows_spec(D, n, faces, vertices):
    """The spec with these face rows and vertex rows."""
    return StabilizerSpec(
        D, n, ZModMatrix.from_rows(faces, n, D), ZModMatrix.from_rows(vertices, n, D)
    )


def test_enumerate_scalar_generator_flagged():
    # Z^2 and X on the first of two ququarts pair to w^2: the scalars are I and w^2 I
    enum = enumerate_pauli_closure(rows_spec(4, 2, [(2, 0)], [(1, 1)]))
    assert enum.scalar_violation == PauliProduct.scalar(4, 2, 2)
    assert (enum.size, enum.phase_step) == (2 * 2 * 4, 2)


def test_enumerate_noncommuting_produces_scalar():
    # X and Z on one qubit: the commutator is w I = -I
    enum = enumerate_pauli_closure(rows_spec(2, 1, [(1,)], [(1,)]))
    assert enum.scalar_violation == PauliProduct.scalar(2, 1, 1)
    assert (enum.size, enum.phase_step) == (8, 1)


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
    return sum(
        1 for f in face_operators(spec) for v in vertex_operators(spec) if commutation_phase(f, v)
    )


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


@pytest.mark.parametrize("faces, vertices", [(0, 0), (1, 0), (0, 2), (3, 1)])
def test_check_matrix_roundtrip_with_no_qudits(faces, vertices):
    # each row is written as a blank line, and the header alone counts them back
    spec = rows_spec(2, 0, [()] * faces, [()] * vertices)
    text = export_check_matrix(spec)
    assert text == f"2 0 {faces} {vertices}\n" + "\n" * (faces + vertices)
    assert parse_check_matrix(text) == spec


def test_check_matrix_parse_errors():
    from quhom.errors import SchemaError

    with pytest.raises(SchemaError):
        parse_check_matrix("")
    with pytest.raises(SchemaError):
        parse_check_matrix("2 2 1 0\n1 1 1")
    with pytest.raises(SchemaError):
        parse_check_matrix("2 2 1 0\n3 0")
    for body in ("0", "\n0\n", "1 0"):  # with no qudits a row has no entries
        with pytest.raises(SchemaError):
            parse_check_matrix(f"2 0 1 1\n{body}\n")
    assert parse_check_matrix("2 0 20000 0\n").num_face_generators == 20_000
    with pytest.raises(BudgetExceeded, match="20001 rows, over the cap of 20000"):
        parse_check_matrix("2 0 10000 10001\n")


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


def reference_closure(spec, cap):
    """Deque BFS over (phase, x, z) tuples: the reference for the level-wise closure.

    Returns (size, scalar_violation, elements, order) like GroupEnumeration's
    fields, order being the elements in the order the queue discovers them.
    """
    D = spec.modulus
    n = spec.n
    gens = [(g.phase, g.x, g.z) for g in spec.generators()]
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


def closure_outcome(spec, cap, reference=False):
    """(size, scalar_violation, elements, order), or "budget" when over cap.

    `order` lists the elements in the order GroupEnumeration.keys holds them.
    """
    try:
        if reference:
            return reference_closure(spec, cap)
        enum = enumerate_pauli_closure(spec, cap)
    except BudgetExceeded:
        return "budget"
    order = elements(enum)
    return enum.size, enum.scalar_violation, frozenset(order), order


@st.composite
def generator_sets(draw):
    """Specs whose rows come from a pool of at most 3: zero rows (the identity),
    single-qudit rows (Z and X on one qudit do not commute, so the group holds
    scalars) and any rows, each drawn any number of times."""
    D = draw(st.sampled_from((2, 3, 4, 6, 12, 3 * 2**62)))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.sampled_from((0, 1, D - 1, D // 2)), st.integers(0, D - 1))
    unit = st.integers(0, max(n - 1, 0)).map(lambda q: [int(i == q) for i in range(n)])
    row = st.one_of(st.lists(entry, min_size=n, max_size=n), unit, st.just([0] * n))
    pool = st.sampled_from(draw(st.lists(row, min_size=1, max_size=3)))
    faces = draw(st.lists(pool, max_size=3))
    return rows_spec(D, n, faces, draw(st.lists(pool, max_size=3)))


def _wide_case(D=3 * 2**62, n=5):
    """256 elements at a modulus past int64: part tables on object arrays."""
    half = D // 2
    vertices = [[half * (i == q) for i in range(n)] for q in range(4)]
    faces = [[half * (i in (q, q + 1)) for i in range(n)] for q in range(4)]
    return rows_spec(D, n, faces, vertices)


def _spread_case(D=2 * 499_999):
    """8 elements: X and Z of order 2 whose pairing is the scalar -1, so the
    phases are the 2 multiples of D/2."""
    half = D // 2
    return rows_spec(D, 1, [[half]], [[half]])


def _phase_carry_case(D=7_500_000_000_000_000_000):
    """27 elements: X^(D/3) and Z^(2D/3), whose pairing 2D/3 is past 2^62."""
    return rows_spec(D, 1, [[2 * D // 3]], [[D // 3]])


def _carry_pair_case(m=3 * 10**17 + 1):
    """27 elements: X^m and Z^m of order 3 mod D = 3 m, whose pairing
    m^2 = m mod D is a scalar."""
    D = 3 * m
    return rows_spec(D, 1, [[m]], [[m]])


@settings(max_examples=250, deadline=None, derandomize=True)
@given(generator_sets())
@example(_wide_case())
@example(_spread_case())
@example(_phase_carry_case())
@example(_carry_pair_case())
def test_closure_equals_deque_reference(spec):
    assert closure_outcome(spec, 500) == closure_outcome(spec, 500, reference=True)


def test_closure_equals_deque_reference_on_acceptance_complexes():
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            spec = spec_for(complex2, D)
            assert closure_outcome(spec, ENUMERATION_CAP) == closure_outcome(
                spec, ENUMERATION_CAP, reference=True
            ), (label, D)


def test_closure_fills_its_key_space():
    # the group is the D/g scalars w^(g k) times X times Z, so its keys are 0, ..., size - 1
    specs = [spec_for(c, D) for c, _ in acceptance_complexes() for D in ACCEPTANCE_MODULI]
    for spec in specs + scalar_specs():
        enum = enumerate_group(spec)
        space = spec.modulus // enum.phase_step * len(enum.x_parts) * len(enum.z_parts)
        assert space == enum.size, spec
        assert np.array_equal(np.sort(enum.keys), np.arange(space)), spec


@pytest.mark.parametrize(
    "spec",
    [
        spec_for(torus_grid(2, 2), 3),
        spec_for(rp2(), 4),
        rows_spec(3, 1, [(1,)], [(1,)]),
    ],
    ids=["grid 2x2 D=3", "rp2 D=4", "scalar D=3"],
)
def test_closure_cap_edges(spec):
    size = enumerate_pauli_closure(spec).size
    assert enumerate_pauli_closure(spec, cap=size).size == size
    # rp2 at D = 4 has 2 z parts, so its parts pass cap 1 before the group does
    message = rf"exceeded cap {size - 1}: the group (has {size} elements|holds more x parts or z)"
    with pytest.raises(BudgetExceeded, match=message):
        enumerate_pauli_closure(spec, cap=size - 1)
    assert closure_outcome(spec, size - 1, reference=True) == "budget"


@pytest.mark.parametrize(
    "spec",
    [
        rows_spec(3, 3, [], [(1, 0, 0), (0, 1, 1)]),
        rows_spec(3, 3, [(1, 0, 0), (0, 1, 1)], []),
        rows_spec(3, 3, [(1, 0, 1)], [(1, 0, 2)]),
    ],
    ids=["x parts", "z parts", "x and z parts"],
)
def test_closure_over_cap_in_its_parts(spec):
    # 9 x parts, 9 z parts, or 3 of each: the parts alone pass cap 2
    for cap in (1, 2):
        assert closure_outcome(spec, cap) == "budget" == closure_outcome(spec, cap, reference=True)
    with pytest.raises(BudgetExceeded, match="exceeded cap 2: the group holds more x parts or z"):
        enumerate_pauli_closure(spec, cap=2)
    size = reference_closure(spec, 100)[0]
    assert closure_outcome(spec, size) == closure_outcome(spec, size, reference=True)


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


def test_closure_memory_near_the_enumeration_cap():
    # the 2x2 grid at D = 9: 9^6 = 531,441 elements, which fill the key space.  The
    # peak is the keys (4 MB) with their BFS levels and the 2 MB claim table.
    spec = spec_for(torus_grid(2, 2), 9)
    tracemalloc.start()
    try:
        enum = enumerate_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.size == 9**6
    assert peak < 40 * 2**20
    assert peak < 16 * 2**20


@pytest.mark.parametrize("rows", [0, 1])
def test_additive_closure_memory_is_linear_in_the_qudits(rows):
    # n = 20,000 at D = 2: base-2 place values for every qudit would be 25 MB of Python ints
    n = 20_000
    generators = np.zeros((rows, n), dtype=np.int64)
    generators[:, 0] = 1
    tracemalloc.start()
    try:
        elements = additive_closure(generators, 2, ENUMERATION_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elements.shape == (1 + rows, n)
    assert peak < 8 * 2**20


def scalar_specs():
    """Specs whose face and vertex rows do not all commute, so the group holds scalars."""
    rng = random.Random(41)
    specs = []
    for D in (2, 3, 4, 6, 12):
        for n in (1, 2, 3):
            for _ in range(8):
                rows = [[rng.randrange(D) for _ in range(n)] for _ in range(rng.randint(1, 3))]
                faces = ZModMatrix.from_rows(rows[: rng.randint(0, len(rows))], n, D)
                vertices = ZModMatrix.from_rows(rows[faces.nrows :], n, D)
                specs.append(StabilizerSpec(D, n, faces, vertices))
    return specs


def test_enumerate_group_predicts_the_size_with_scalars(monkeypatch):
    from quhom import pauli

    with_scalars = 0
    for spec in scalar_specs() + [spec_for(rp2(), 4), spec_for(torus_grid(1, 2), 6)]:
        size = enumerate_pauli_closure(spec).size
        with_scalars += spec.scalar_witness() is not None
        assert enumerate_group(spec, cap=size).size == size
        closures = []
        with monkeypatch.context() as patch:
            patch.setattr(pauli, "enumerate_pauli_closure", lambda spec, cap: closures.append(spec))
            with pytest.raises(BudgetExceeded, match=f"predicted group size {size} ") as info:
                enumerate_group(spec, cap=size - 1)
        assert info.value.examined == 0 and closures == []
    assert with_scalars > 10
