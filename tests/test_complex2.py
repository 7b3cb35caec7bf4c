from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quhom.complex2 import (
    TwoComplex,
    boundary1,
    boundary2,
    canonical_steps,
    chain_complex,
    faces_sum_to_zero,
    homology_cardinality,
    is_orientable_integral,
    rp2,
    torus,
    torus_grid,
    validate,
)

from _corpus import acceptance_complexes, named_complex, two_complex_corpus


def brute_homology(complex2, D):
    """|ker d1| / |im d2| by direct enumeration; independent of the SNF path."""
    d1 = boundary1(complex2, D)
    d2 = boundary2(complex2, D)
    ne = len(complex2.edges)
    nf = len(complex2.faces)
    kernel = sum(1 for v in product(range(D), repeat=ne) if not any(d1.matvec(v)))
    image = {d2.matvec(c) for c in product(range(D), repeat=nf)}
    assert kernel % len(image) == 0
    return kernel // len(image)


def test_builder_counts():
    c = rp2()
    assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 1, 1)
    c = torus()
    assert (len(c.vertices), len(c.edges), len(c.faces)) == (1, 2, 1)
    c = torus_grid(2, 2)
    assert (len(c.vertices), len(c.edges), len(c.faces)) == (4, 8, 4)
    assert validate(c) == []


def test_builders_validate():
    assert validate(rp2()) == []
    assert validate(torus()) == []
    for k in range(1, 4):
        for l in range(1, 4):
            assert validate(torus_grid(k, l)) == []


def test_two_self_loop_walk_is_valid():
    # both edges loop at v, so every incidence lands at v
    c = named_complex(("v",), [("e1", "v", "v"), ("e2", "v", "v")], [("f", ["e1", "e2"])])
    assert validate(c) == []


def test_validate_reports_incidence_break():
    # e1 loops at u, e2 runs w -> u: only the 0->1 transition is broken
    c = named_complex(("u", "w"), [("e1", "u", "u"), ("e2", "w", "u")], [("f", ["e1", "e2"])])
    problems = validate(c)
    assert len(problems) == 1
    assert "face f" in problems[0] and "0->1" in problems[0]


def test_validate_reports_dangling_references():
    c = named_complex(("v",), [("e", "v", "ghost")], [("f", ["missing"])])
    assert c.unknown_vertices == ("ghost",) and c.unknown_edges == ("missing",)
    problems = validate(c)
    assert any("unknown target vertex" in p for p in problems)
    assert any("unknown edge" in p for p in problems)


def walk_entries(complex2, face):
    """The face's walk as document entries, in canonical rotation."""
    names = complex2.edge_names
    return [
        names[complex2.walk_edges[k]] + ("" if complex2.walk_signs[k] > 0 else "~")
        for k in canonical_steps(complex2, face)
    ]


def loops(walk):
    """One vertex with self-loops a, b, c and one face along the walk."""
    return named_complex(("v",), [(e, "v", "v") for e in "abc"], [("f", walk)])


def test_walk_canonical_rotation():
    assert walk_entries(loops(["b", "a"]), 0) == walk_entries(loops(["a", "b"]), 0) == ["a", "b"]


def reference_rotation(steps):
    """The canonical rotation as the minimum over every rotation's key."""
    rotations = [steps[i:] + steps[:i] for i in range(len(steps))]
    return min(rotations, key=lambda r: tuple((s.rstrip("~"), s.endswith("~")) for s in r))


def walk_steps(names):
    step = st.builds(str.__add__, st.sampled_from("abc"[:names]), st.sampled_from(("", "~")))
    return st.lists(step, min_size=1, max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(walk_steps))
def test_walk_rotation_matches_min_over_rotations(steps):
    # two or three edge names over up to 8 steps make repeated step keys, so ties, likely
    walk = walk_entries(loops(steps), 0)
    assert walk == reference_rotation(steps)
    for i in range(len(steps)):
        assert walk_entries(loops(steps[i:] + steps[:i]), 0) == walk


def test_boundary1_examples():
    assert boundary1(rp2(), 3).entries == ((0,),)
    assert boundary1(torus(), 5).entries == ((0, 0),)
    c = TwoComplex(("u", "w"), ("e",), (0,), (1,), (), (), (), (0,))
    mat = boundary1(c, 7)
    assert mat.transpose().row(0) == (6, 1)  # -1 at source, +1 at target


def test_boundary2_examples():
    for D in (2, 3, 4, 7):
        assert boundary2(rp2(), D).entries == ((2 % D,),)
    assert boundary2(torus(), 4).is_zero()
    c = TwoComplex(("v",), ("e",), (0,), (0,), ("f",), (0,), (1,), (0, 1))
    assert boundary2(c, 5).entries == ((1,),)


def test_chain_complex_property():
    for complex2, _ in two_complex_corpus(40, seed=5):
        for D in range(2, 7):
            chain = chain_complex(complex2, D)
            assert (chain.d1 @ chain.d2).is_zero()


def test_homology_paper_values():
    assert homology_cardinality(chain_complex(rp2(), 2)) == 2
    assert homology_cardinality(chain_complex(rp2(), 3)) == 1
    for D in (2, 3, 4, 5):
        assert homology_cardinality(chain_complex(torus(), D)) == D**2


def test_homology_grid_is_homotopy_invariant():
    for k in range(1, 4):
        for l in range(1, 4):
            grid = torus_grid(k, l)
            for D in range(2, 6):
                assert homology_cardinality(chain_complex(grid, D)) == D**2


def test_homology_matches_bruteforce():
    for complex2, _ in two_complex_corpus(40, seed=17):
        if len(complex2.edges) > 4:
            continue
        for D in (2, 3, 4):
            chain = chain_complex(complex2, D)
            assert homology_cardinality(chain) == brute_homology(complex2, D)


def test_homology_divides_full_space():
    for complex2, _ in two_complex_corpus(30, seed=29):
        for D in (2, 3, 4, 6):
            h = homology_cardinality(chain_complex(complex2, D))
            assert D ** len(complex2.edges) % h == 0


def test_inconsistent_chain_rejected():
    from quhom.complex2 import ChainComplexData
    from quhom.zmod import ZModMatrix

    d1 = ZModMatrix.from_rows([(1,)], 1, 3)
    d2 = ZModMatrix.from_rows([(1,)], 1, 3)
    with pytest.raises(ValueError):
        ChainComplexData(3, d1, d2)


def is_orientable(complex2, D):
    return faces_sum_to_zero(boundary2(complex2, D))


def test_orientability():
    for D in (2, 3, 4, 5):
        assert is_orientable(torus(), D)
        for k in range(1, 4):
            for l in range(1, 4):
                assert is_orientable(torus_grid(k, l), D)
    assert is_orientable(rp2(), 2)
    assert not is_orientable(rp2(), 3)
    assert is_orientable_integral(torus())
    assert not is_orientable_integral(rp2())


def counted_orientable_integral(complex2):
    """Signed multiplicities per edge summed over all walks, over Z: the reference."""
    totals = Counter()
    for edge, sign in zip(complex2.walk_edges, complex2.walk_signs):
        totals[complex2.edges[edge]] += sign
    return all(v == 0 for v in totals.values())


def test_orientable_integral_matches_counted_multiplicities():
    cases = [c for c, _ in [*acceptance_complexes(), *two_complex_corpus(200, seed=97)]]
    degenerate = named_complex(("v",), [], [("f", [])])
    cases += [rp2(), torus(), torus_grid(8, 8), degenerate]
    results = [is_orientable_integral(c) for c in cases]
    assert results == [counted_orientable_integral(c) for c in cases]
    # and from the boundary: each integral row sum of d2 is below M = steps + 1
    # in absolute value, so it is zero mod M exactly when it is zero over Z
    by_boundary = [is_orientable(c, max(2, 1 + len(c.walk_edges))) for c in cases]
    assert results == by_boundary
    assert 0 < results.count(False) < len(cases)


def test_degenerate_walk():
    c = named_complex(("v",), [], [("f", [])])
    assert c.walk_offsets == (0, 0) and canonical_steps(c, 0) == []
    assert validate(c) == []
    assert boundary2(c, 3).nrows == 0
