import functools
import random
from dataclasses import replace
from itertools import combinations, product
from math import comb, gcd

import numpy as np
import pytest

from quhom import distance
from quhom.complex2 import chain_complex, homology_cardinality, rp2, torus, torus_grid
from quhom.distance import (
    COCYCLE,
    CYCLE,
    DistanceReport,
    distance_css,
    distance_homological,
    is_in_normalizer,
    is_logical,
    witness_pauli,
)
from quhom.errors import BudgetExceeded, ScalarViolation
from quhom.pauli import PauliProduct, StabilizerSpec, code_dimension, syndrome
from quhom.zmod import ZModMatrix, contains, orthogonal_complement

from _corpus import ACCEPTANCE_MODULI, acceptance_complexes, two_complex_corpus
from _reference import identity

# torus grids on which the scalar reference search stays cheap
REFERENCE_GRIDS = ((3, 3, 2), (3, 3, 3), (3, 3, 6), (3, 4, 3), (4, 4, 2))


def spec_for(complex2, D):
    return StabilizerSpec.from_chain(chain_complex(complex2, D))


def w_membership(spec, vec):
    """Direct W-membership for brute-force cross-checks."""
    D = spec.modulus
    in_face_perp = all(
        sum(a * b for a, b in zip(row, vec)) % D == 0 for row in spec.face_matrix.entries
    )
    in_vertex_perp = all(
        sum(a * b for a, b in zip(row, vec)) % D == 0 for row in spec.vertex_matrix.entries
    )
    return (in_face_perp and not contains(spec.vertex_matrix, vec)) or (
        in_vertex_perp and not contains(spec.face_matrix, vec)
    )


def brute_distance(spec):
    """Full scan of Z_D^n in weight order; the oracle for the shell search."""
    D, n = spec.modulus, spec.n
    best = None
    for vec in product(range(D), repeat=n):
        w = sum(1 for e in vec if e)
        if w == 0:
            continue
        if w_membership(spec, vec) and (best is None or w < best):
            best = w
    return best


def test_torus_distance_one():
    for D in (2, 3, 4, 5):
        spec = spec_for(torus(), D)
        css = distance_css(spec)
        hom = distance_homological(chain_complex(torus(), D))
        assert css.distance == hom.distance == 1


def test_rp2_distances():
    spec = spec_for(rp2(), 2)
    assert distance_css(spec).distance == 1
    assert distance_homological(chain_complex(rp2(), 2)).distance == 1

    spec = spec_for(rp2(), 3)
    rep = distance_css(spec)
    assert rep.no_logicals
    assert rep.witness is None
    rep = distance_homological(chain_complex(rp2(), 3))
    assert rep.no_logicals

    # even nonprime D: K = 2, a weight-1 logical still exists
    spec = spec_for(rp2(), 4)
    assert distance_css(spec).distance == 1


def test_torus_grid_distance_two():
    grid = torus_grid(2, 2)
    spec = spec_for(grid, 2)
    css = distance_css(spec)
    hom = distance_homological(chain_complex(grid, 2))
    assert css.distance == 2
    assert hom.distance == 2
    assert brute_distance(spec) == 2


def test_route_agreement_on_corpus():
    for complex2, label in two_complex_corpus(30, seed=71):
        for D in (2, 3, 4):
            spec = spec_for(complex2, D)
            css = distance_css(spec)
            hom = distance_homological(chain_complex(complex2, D))
            assert css.distance == hom.distance, (label, D)
            for rep in (css, hom):
                pauli = witness_pauli(rep, D)
                if pauli is not None:
                    assert pauli.weight() == rep.distance, (label, D, rep.method)
                    assert is_logical(pauli, spec), (label, D, rep.method)


def test_distance_matches_bruteforce():
    for complex2, label in two_complex_corpus(20, seed=73):
        if len(complex2.edges) > 4:
            continue
        for D in (2, 3, 4):
            spec = spec_for(complex2, D)
            want = brute_distance(spec)
            assert distance_css(spec).distance == want, (label, D)
            assert distance_homological(chain_complex(complex2, D)).distance == want, (label, D)


def test_no_sub_distance_logicals():
    for complex2, label in two_complex_corpus(20, seed=79):
        if len(complex2.edges) > 4:
            continue
        for D in (2, 3):
            spec = spec_for(complex2, D)
            rep = distance_css(spec)
            if rep.no_logicals:
                continue
            for w in range(1, rep.distance):
                for support in combinations(range(spec.n), w):
                    for values in product(range(1, D), repeat=w):
                        vec = [0] * spec.n
                        for pos, val in zip(support, values):
                            vec[pos] = val
                        assert not w_membership(spec, tuple(vec)), (label, D, vec)


def test_is_in_normalizer_examples():
    spec = spec_for(torus(), 2)
    assert is_in_normalizer(PauliProduct.x_type(2, (1, 0)), spec)
    for g in spec.generators():
        assert is_in_normalizer(g, spec)

    grid_spec = spec_for(torus_grid(2, 2), 2)
    single_x = PauliProduct.x_type(2, (1,) + (0,) * 7)
    assert not is_in_normalizer(single_x, grid_spec)
    for g in grid_spec.generators():
        assert is_in_normalizer(g, grid_spec)


def test_is_logical_examples():
    spec = spec_for(torus(), 3)
    assert not is_logical(identity(3, 2), spec)
    assert is_logical(PauliProduct.x_type(3, (1, 0)), spec)

    spec3 = spec_for(rp2(), 3)
    for x in range(3):
        for z in range(3):
            assert not is_logical(PauliProduct(3, 0, (x,), (z,)), spec3)


def test_normalizer_equals_centralizer_exhaustively():
    # zero syndrome iff the submodule characterization holds, for all pairs
    for complex2, label in two_complex_corpus(30, seed=83):
        if len(complex2.edges) > 3:
            continue
        for D in (2, 3):
            spec = spec_for(complex2, D)
            for x in product(range(D), repeat=spec.n):
                for z in product(range(D), repeat=spec.n):
                    p = PauliProduct(D, 0, x, z)
                    # is_in_normalizer raises TheoremMismatch on route disagreement
                    zero_syndrome = not any(syndrome(p, spec))
                    assert is_in_normalizer(p, spec) == zero_syndrome, (label, D)


def test_syndrome_coset_soundness():
    # matching syndromes and combined weight below d force a stabilizer coset
    grid = torus_grid(2, 2)
    spec = spec_for(grid, 2)
    d = distance_css(spec).distance
    assert d == 2
    n = spec.n
    low_weight = [identity(2, n)] + [
        PauliProduct(2, 0, tuple(a if i == pos else 0 for i in range(n)),
                     tuple(b if i == pos else 0 for i in range(n)))
        for pos in range(n)
        for a, b in product(range(2), repeat=2)
        if (a, b) != (0, 0)
    ]
    for r in low_weight:
        assert r.weight() < d
        if not any(syndrome(r, spec)):
            assert contains(spec.vertex_matrix, r.x) and contains(spec.face_matrix, r.z)


def test_budget_exceeded():
    spec = spec_for(torus_grid(3, 3), 5)
    with pytest.raises(BudgetExceeded):
        distance_css(spec, budget=10)


def test_witness_is_deterministic():
    spec = spec_for(torus_grid(2, 2), 2)
    first = distance_css(spec)
    second = distance_css(spec)
    assert first == second


def scalar_shell_search(n, modulus, sides, method, budget):
    """One candidate at a time in the pinned order: the reference for the block search.

    The witness side is the first passing side in the given order.
    """
    if not sides:
        return DistanceReport(None, None, None, method, 0)
    examined = 0
    for weight in range(1, n + 1):
        for support in combinations(range(n), weight):
            for values in product(range(1, modulus), repeat=weight):
                examined += 1
                if examined > budget:
                    raise BudgetExceeded("reference budget", examined=examined)
                vec = [0] * n
                for pos, val in zip(support, values):
                    vec[pos] = val
                vec = tuple(vec)
                tags = tuple(
                    tag
                    for tag, checks, excluded in sides
                    if all(
                        sum(a * b for a, b in zip(row, vec)) % modulus == 0
                        for row in checks.entries
                    )
                    and not excluded(vec)
                )
                if tags:
                    return DistanceReport(weight, vec, tags[0], method, examined, tags)
    return DistanceReport(None, None, None, method, examined)


def both_routes(complex2, D, budget=distance.DEFAULT_BUDGET):
    chain = chain_complex(complex2, D)
    spec = StabilizerSpec.from_chain(chain)
    return distance_css(spec, budget), distance_homological(chain, budget)


def reference_routes(complex2, D, budget=distance.DEFAULT_BUDGET):
    """Both reports from two scalar searches, each with its own side order.

    The css search tries the cocycle side first, the homological one the
    cycle side first.  Each has no sides when its own count says there are
    no logicals: K = 1 for css, |H_1| = 1 for homological.
    """
    chain = chain_complex(complex2, D)
    spec = StabilizerSpec.from_chain(chain)
    cocycle = (COCYCLE, spec.face_matrix, functools.partial(contains, spec.vertex_matrix))
    cycle = (CYCLE, spec.vertex_matrix, functools.partial(contains, spec.face_matrix))
    css_sides = [cocycle, cycle] if code_dimension(spec) > 1 else []
    hom_sides = [cycle, cocycle] if homology_cardinality(chain) > 1 else []
    return (
        scalar_shell_search(spec.n, D, css_sides, "css", budget),
        scalar_shell_search(spec.n, D, hom_sides, "homological", budget),
    )


def same_reports(got, want):
    """Equal reports, passing sides compared as sets: the reference lists them by preference."""
    unordered = lambda rep: replace(rep, sides=frozenset(rep.sides))  # noqa: E731
    return [unordered(rep) for rep in got] == [unordered(rep) for rep in want]


def test_block_search_matches_scalar_reference_on_acceptance_corpus():
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            want = reference_routes(complex2, D)
            assert same_reports(both_routes(complex2, D), want), (label, D)


@pytest.mark.parametrize("k,l,D", REFERENCE_GRIDS)
def test_block_search_matches_scalar_reference_on_grids(k, l, D):
    grid = torus_grid(k, l)
    css, hom = both_routes(grid, D)
    assert same_reports((css, hom), reference_routes(grid, D))
    assert css.distance == min(k, l)


def test_grid_4x4_mod_6():
    css, hom = both_routes(torus_grid(4, 4), 6)
    assert css.distance == hom.distance == 4
    assert css.examined == hom.examined == 922561


def test_huge_modulus_keeps_exact_syndromes():
    # (D-1)^2 overflows int64, so the block search computes with Python integers
    D = 3 * 2**62
    never = lambda vec: False  # noqa: E731
    checks = ZModMatrix.from_rows([[2**63]], 1, D)  # 2^63 v = 0 mod D iff 3 divides v
    report = distance._weight_shell_search(1, D, [("cycle", checks, never)], "css", 100)
    assert (report.witness, report.examined) == ((3,), 3)
    for rep in both_routes(rp2(), D):  # even D: the weight-1 cycle survives
        assert (rep.distance, rep.witness, rep.witness_side, rep.examined) == (1, (1,), "cycle", 1)


def shell_of(position, n, D):
    """Weight shell holding the 1-based candidate position in the pinned order."""
    for weight in range(1, n + 1):
        size = comb(n, weight) * (D - 1) ** weight
        if position <= size:
            return weight
        position -= size
    raise AssertionError("position past the last shell")


@pytest.mark.parametrize("k,l,D", ((3, 3, 2), (3, 3, 6), (4, 4, 3)))
def test_budget_edges(k, l, D):
    grid = torus_grid(k, l)
    spec = spec_for(grid, D)
    report = distance_css(spec)
    n = spec.n
    assert distance_css(spec, budget=report.examined) == report
    hom = distance_homological(chain_complex(grid, D), budget=report.examined)
    assert hom.examined == report.examined
    rng = random.Random(k * 100 + l * 10 + D)
    budgets = {0, 1, report.examined - 1, *rng.sample(range(report.examined), 20)}
    for budget in sorted(budgets):
        with pytest.raises(BudgetExceeded) as info:
            distance_css(spec, budget=budget)
        assert info.value.examined == budget + 1
        shell = shell_of(budget + 1, n, D)
        assert f"weight shell {shell} of {n} after {budget} candidates" in str(info.value)


def test_negative_budget_stops_at_the_first_candidate():
    spec = spec_for(torus(), 3)
    with pytest.raises(BudgetExceeded) as info:
        distance_css(spec, budget=-5)
    assert info.value.examined == 1


def test_unit_rule_never_prunes_a_nonunit_entry():
    # at D = 4 the single entry 2 has 2 * 2 = 0, so (2, 0) is annihilated
    never = lambda vec: False  # noqa: E731
    checks = ZModMatrix.from_rows([[2, 0]], 2, 4)
    report = distance._weight_shell_search(2, 4, [("cycle", checks, never)], "css", 100)
    assert (report.witness, report.examined) == ((2, 0), 2)
    # a unit entry rules out every value on its support, though the count goes on
    checks = ZModMatrix.from_rows([[3, 0]], 2, 4)
    report = distance._weight_shell_search(2, 4, [("cycle", checks, never)], "css", 100)
    assert (report.witness, report.examined) == ((0, 1), 4)


@pytest.mark.parametrize("D", (4, 6, 8, 9))
def test_kernel_mask_equals_unpruned_products(D):
    rng = random.Random(D)
    n, weight = 7, 3
    for _ in range(4):
        rows = [[rng.choice((0, 0, 0, rng.randrange(D))) for _ in range(n)] for _ in range(4)]
        side = distance._prepare_side("cycle", ZModMatrix.from_rows(rows, n, D), None, np.int64)
        supports = np.array(list(combinations(range(n), weight)), dtype=np.int64)
        values = np.array(list(product(range(1, D), repeat=weight)), dtype=np.int64)
        mask = distance._kernel_mask(side, supports, values, D)
        for s, support in enumerate(supports):
            for j, vals in enumerate(values):
                zero = all(
                    sum(row[p] * v for p, v in zip(support, vals)) % D == 0 for row in rows
                )
                assert mask[s, j] == zero, (rows, support, vals)


def random_checks(rng, D, n=None):
    """Check rows whose columns are mostly graph edges: two unit entries, or
    one (an edge to ground), parallel ones included; now and then a zero
    column, a column of three entries or a non-unit entry."""
    m, n = rng.randint(1, 4), rng.randint(1, 7) if n is None else n
    units = [v for v in range(1, D) if gcd(v, D) == 1]
    nonunits = [v for v in range(2, D) if gcd(v, D) > 1]
    columns = []
    for _ in range(n):
        size = min(m, rng.choices((0, 1, 2, 3), (1, 6, 12, 1))[0])
        column = [0] * m
        for row in rng.sample(range(m), size):
            column[row] = rng.choice(units)
        if nonunits and size and rng.random() < 0.05:
            column[rng.choice([r for r in range(m) if column[r]])] = rng.choice(nonunits)
        columns.append(column)
    return ZModMatrix.from_rows([list(row) for row in zip(*columns)], n, D)


def unit_prune_rejects(checks, support):
    """Some check row holds one nonzero entry on the support, and it is a unit."""
    D = checks.modulus
    for row in checks.entries:
        on_support = [row[p] for p in support if row[p]]
        if len(on_support) == 1 and gcd(on_support[0], D) == 1:
            return True
    return False


@pytest.mark.parametrize("D", (2, 3, 4, 6))
def test_shell_floor_is_the_least_weight_the_unit_prune_passes(D):
    rng = random.Random(400 + D)
    seen = {"below n": 0, "past n": 0}
    for _ in range(150):
        checks = random_checks(rng, D)
        n = checks.ncols
        floor = distance._shell_floor(checks)
        assert 1 <= floor <= n + 1
        side = distance._prepare_side("cycle", checks, None, np.int64)
        for weight in range(1, floor):
            supports = list(combinations(range(n), weight))
            assert all(unit_prune_rejects(checks, support) for support in supports), checks.entries
            values = np.array(list(product(range(1, D), repeat=weight)), dtype=np.int64)
            mask = distance._kernel_mask(side, np.array(supports, dtype=np.int64), values, D)
            assert not mask.any(), checks.entries
        if 1 < floor <= n:  # a girth: some support of that weight passes the prune
            seen["below n"] += 1
            supports = combinations(range(n), floor)
            assert not all(unit_prune_rejects(checks, support) for support in supports)
        elif floor > n:
            seen["past n"] += 1
        assert distance._shell_floor(checks, 2) == min(floor, 2)
    assert min(seen.values()) >= 10, seen


def shell_floors(spec):
    return distance._shell_floor(spec.face_matrix), distance._shell_floor(spec.vertex_matrix)


@pytest.mark.parametrize("D", (2, 3, 6))
def test_shell_floors_of_named_complexes(D):
    for k in range(1, 7):
        for l in range(1, 7):
            girth = min(k, l, 4) if min(k, l) >= 2 else 1
            assert shell_floors(spec_for(torus_grid(k, l), D)) == (girth, girth), (k, l)
    assert shell_floors(spec_for(torus(), D)) == (1, 1)
    # rp2's face row is the single entry 2: zero mod 2, a non-unit mod 6, and
    # mod 3 a unit on a one-entry column, a forest, so the floor is n + 1
    assert shell_floors(spec_for(rp2(), D)) == ((2, 1) if D == 3 else (1, 1))


def search_outcomes(search, budgets):
    """Each budget's report, or its BudgetExceeded as (message, examined)."""
    out = []
    for budget in budgets:
        try:
            out.append(search(budget))
        except BudgetExceeded as exc:
            out.append((str(exc), exc.examined))
    return out


def budget_sweep(n, D, examined):
    """0, 1, the witness's position and each shell's middle and ends up to it, +-1."""
    budgets, total = {0, 1, examined - 1, examined, examined + 1}, 0
    for weight in range(1, n + 1):
        size = comb(n, weight) * (D - 1) ** weight
        budgets |= {total + size // 2, total + size - 1, total + size, total + size + 1}
        total += size
        if total > examined:
            break
    return sorted(budgets)


def same_with_floors_off(monkeypatch, cases):
    """Each case is (n, D, search); the outcomes over a budget sweep do not
    change when every shell floor is 1."""
    sweeps = [
        (search, budget_sweep(n, D, search(distance.DEFAULT_BUDGET).examined))
        for n, D, search in cases
    ]
    with_floors = [search_outcomes(search, budgets) for search, budgets in sweeps]
    with monkeypatch.context() as patch:
        patch.setattr(distance, "_shell_floor", lambda checks, bound=None: 1)
        without = [search_outcomes(search, budgets) for search, budgets in sweeps]
    for got, want, (n, D, search) in zip(with_floors, without, cases):
        assert got == want, (n, D, search)


def css_case(complex2, D):
    spec = spec_for(complex2, D)
    return spec.n, D, functools.partial(distance_css, spec)


def test_floors_off_equivalence_on_grids_and_named_complexes(monkeypatch):
    cases = [
        css_case(torus_grid(k, l), D)
        for k in range(1, 5) for l in range(k, 5) for D in range(2, 7)
    ]
    cases += [css_case(complex2, D) for complex2 in (rp2(), torus()) for D in range(2, 7)]
    same_with_floors_off(monkeypatch, cases)


def test_floors_off_equivalence_on_acceptance_corpus(monkeypatch):
    cases = [
        css_case(complex2, D)
        for complex2, _ in acceptance_complexes() for D in ACCEPTANCE_MODULI
    ]
    same_with_floors_off(monkeypatch, cases)


def test_floors_off_equivalence_on_check_matrices(monkeypatch):
    # two random check matrices as the two sides, each excluding the other's span
    rng = random.Random(907)
    cases = []
    for D in (2, 3, 4, 6):
        for _ in range(40):
            a = random_checks(rng, D)
            b = random_checks(rng, D, a.ncols)
            sides = [
                (COCYCLE, a, functools.partial(contains, b)),
                (CYCLE, b, functools.partial(contains, a)),
            ]
            search = functools.partial(distance._weight_shell_search, a.ncols, D, sides, "css")
            cases.append((a.ncols, D, search))
    same_with_floors_off(monkeypatch, cases)


def distance_or_infinity(report):
    return float("inf") if report.no_logicals else report.distance


def check_crt(cases, a, b):
    """K(ab) = K(a) K(b) and d(ab) = min(d(a), d(b)) for coprime a, b, on both routes."""
    moduli = (a, b, a * b)
    for complex2, label in cases:
        dims = {D: code_dimension(spec_for(complex2, D)) for D in moduli}
        assert dims[a * b] == dims[a] * dims[b], label
        reports = {D: both_routes(complex2, D) for D in moduli}
        for route in (0, 1):
            d = {D: distance_or_infinity(reports[D][route]) for D in moduli}
            assert d[a * b] == min(d[a], d[b]), (label, route)


def test_crt_dimension_and_distance():
    cases = [(c, label) for c, label in acceptance_complexes()]
    cases += [(torus_grid(3, 3), "grid3x3"), (torus_grid(4, 4), "grid4x4")]
    check_crt(cases, 2, 3)


@pytest.mark.parametrize("a,b", ((2, 5), (3, 4)))
def test_crt_other_coprime_pairs(a, b):
    check_crt([*acceptance_complexes(), (torus_grid(3, 3), "grid3x3")], a, b)


def span_subset(inner, outer):
    return all(contains(outer, g) for g in inner.entries)


def test_css_sides_equal_span_subset_decision(monkeypatch):
    # the sides a membership test of the complement generators keeps
    seen = []
    monkeypatch.setattr(
        distance, "_weight_shell_search", lambda n, D, sides, method, budget: seen.append(sides)
    )
    for complex2, label in acceptance_complexes():
        for D in ACCEPTANCE_MODULI:
            spec = spec_for(complex2, D)
            expected = []
            if not span_subset(orthogonal_complement(spec.face_matrix), spec.vertex_matrix):
                expected.append((COCYCLE, spec.face_matrix))
            if not span_subset(orthogonal_complement(spec.vertex_matrix), spec.face_matrix):
                expected.append((CYCLE, spec.vertex_matrix))
            distance_css(spec)
            assert [(tag, checks) for tag, checks, _ in seen.pop()] == expected, (label, D)


def test_css_raises_on_scalar_violation():
    spec = StabilizerSpec(
        modulus=4,
        n=2,
        face_matrix=ZModMatrix.from_rows([(1, 0)], 2, 4),
        vertex_matrix=ZModMatrix.from_rows([(2, 1)], 2, 4),
    )
    with pytest.raises(ScalarViolation) as info:
        distance_css(spec)
    assert info.value.witness.phase == 2
