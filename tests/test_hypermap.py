import dataclasses
import random

import pytest

from quhom.complex2 import (
    boundary2,
    chain_complex,
    faces_sum_to_zero,
    homology_cardinality,
    is_orientable_integral,
    validate,
)
from quhom.hypermap import (
    Hypermap,
    SpecialDarts,
    d1_matrix,
    d2_matrix,
    delta_matrices,
    orbits,
    permutation_from_cycles,
    quotient_matrix,
    to_two_complex,
    verify_equivalence,
)
from quhom.pauli import StabilizerSpec, code_dimension
from quhom.zmod import ZModMatrix

from _corpus import ACCEPTANCE_MODULI, hypermap_corpus, random_special_darts
from _reference import iota_matrix


def test_permutation_from_cycles():
    assert permutation_from_cycles(3, []) == (1, 2, 3)
    assert permutation_from_cycles(2, [[1, 2]]) == (2, 1)
    assert permutation_from_cycles(4, [[1, 3], [2, 4]]) == (3, 4, 1, 2)
    with pytest.raises(ValueError):
        permutation_from_cycles(2, [[1, 1]])
    with pytest.raises(ValueError):
        permutation_from_cycles(2, [[1, 2], [2]])
    with pytest.raises(ValueError):
        permutation_from_cycles(2, [[3]])


def test_orbits_examples():
    assert orbits((1, 2, 3)) == ((1,), (2,), (3,))
    assert orbits((2, 1)) == ((1, 2),)
    # alpha = sigma makes the face map the identity
    h = Hypermap(3, (2, 3, 1), (2, 3, 1))
    assert h.face_map == (1, 2, 3)
    assert h.orbit_structure().faces == ((1,), (2,), (3,))


def test_face_map_convention():
    # face map is i -> sigma(alpha^-1(i)); traversal i_{s+1} = that map applied
    h = Hypermap(2, (2, 1), (2, 1))
    assert h.face_map == (1, 2)
    s = h.orbit_structure()
    assert s.hyperedges == ((1, 2),)
    assert s.hypervertices == ((1, 2),)
    assert s.faces == ((1,), (2,))


def test_single_dart_matrices():
    h = Hypermap(1, (1,), (1,))
    for D in (2, 3, 6):
        assert d2_matrix(h, D).entries == ((1,),)
        assert d1_matrix(h, D).entries == ((0,),)
        assert iota_matrix(h, D).entries == ((1,),)


def test_two_dart_matrices():
    h = Hypermap(2, (2, 1), (2, 1))
    d2 = d2_matrix(h, 3)
    assert d2.entries == ((1, 0), (0, 1))
    assert d1_matrix(h, 3).is_zero()


def test_chain_compositions_vanish_on_corpus():
    for h, label in hypermap_corpus(60, seed=881):
        for D in ACCEPTANCE_MODULI:
            d1 = d1_matrix(h, D)
            d2 = d2_matrix(h, D)
            iota = iota_matrix(h, D)
            assert (d1 @ d2).is_zero(), (label, D)
            assert (d1 @ iota).is_zero(), (label, D)


def test_column_sum_identity():
    # sum of d2 columns = indicator of all darts = sum of iota columns
    for h, _ in hypermap_corpus(40, seed=881):
        D = 7
        d2 = d2_matrix(h, D)
        iota = iota_matrix(h, D)
        face_sum = tuple(sum(row) % D for row in d2.entries)
        edge_sum = tuple(sum(row) % D for row in iota.entries)
        assert face_sum == edge_sum == (1,) * h.n


def reference_reduce_to_basis(vector, hypermap, specials, modulus):
    """Coordinates of one dart vector in the non-special basis, dart by dart.

    [s_e] = -sum of the other darts of hyperedge e, so the coefficient on a
    non-special dart j is vector[j] - vector[s_e(j)].  Independent of the
    sparse products: one vector at a time, read from the hyperedge orbits.
    """
    assert len(vector) == hypermap.n
    structure = hypermap.orbit_structure()
    out = []
    for j in range(1, hypermap.n + 1):
        if j in specials.special_set:
            continue
        s = specials.darts[structure.hyperedge_of[j - 1]]
        out.append((vector[j - 1] - vector[s - 1]) % modulus)
    return tuple(out)


def test_reduce_to_basis():
    h = Hypermap(2, (2, 1), (2, 1))
    specials = SpecialDarts.default(h)
    assert specials.darts == (1,)
    quotient = quotient_matrix(h, specials, 5)
    assert quotient.entries == ((4, 1),)
    # non-special support passes through
    assert quotient.matvec((0, 2)) == (2,)
    # unit vector on the special dart becomes -1 on its partner
    assert quotient.matvec((1, 0)) == (4,)
    # iota columns die in the quotient
    iota = iota_matrix(h, 5)
    assert quotient.matvec(iota.transpose().row(0)) == (0,)
    assert (quotient @ iota).is_zero()


def test_reduce_kills_iota_columns_generally():
    for h, _ in hypermap_corpus(40, seed=883):
        for D in (2, 3, 5):
            specials = SpecialDarts.default(h)
            quotient = quotient_matrix(h, specials, D)
            iota = iota_matrix(h, D)
            for e in range(iota.ncols):
                assert not any(quotient.matvec(iota.transpose().row(e)))


def test_delta_matrices_match_the_reduction_of_each_face():
    rng = random.Random(431)
    for h, label in hypermap_corpus(60, seed=891):
        for specials in (SpecialDarts.default(h), random_special_darts(rng, h)):
            basis = specials.non_special(h.n)
            for D in (*ACCEPTANCE_MODULI, 3 * 2**62):
                d1, d2 = d1_matrix(h, D), d2_matrix(h, D)
                chain = delta_matrices(h, specials, D)
                columns = [reference_reduce_to_basis(d2.transpose().row(f), h, specials, D)
                           for f in range(d2.ncols)]
                want = ZModMatrix.from_rows(columns, len(basis), D).transpose()
                assert chain.d2 == want, (label, D, specials)
                assert chain.d1.entries == tuple(
                    tuple(row[j - 1] for j in basis) for row in d1.entries
                ), (label, D, specials)


def test_delta_matrices_single_dart():
    h = Hypermap(1, (1,), (1,))
    specials = SpecialDarts.default(h)
    chain = delta_matrices(h, specials, 3)
    assert specials.non_special(h.n) == ()
    assert chain.d1.nrows == 1 and chain.d1.ncols == 0
    assert chain.d2.nrows == 0 and chain.d2.ncols == 1
    assert homology_cardinality(chain) == 1


def test_delta_matrices_two_darts():
    h = Hypermap(2, (2, 1), (2, 1))
    specials = SpecialDarts.default(h)
    assert specials.non_special(h.n) == (2,)
    for D in (2, 3, 4, 6):
        chain = delta_matrices(h, specials, D)
        # face {1} reduces to -[2], face {2} to +[2]
        assert chain.d2.entries == (((D - 1) % D, 1),)
        assert chain.d1.is_zero()


def test_to_two_complex_single_dart():
    h = Hypermap(1, (1,), (1,))
    c = to_two_complex(h, SpecialDarts.default(h))
    assert len(c.vertices) == 1
    assert c.edges == ()
    assert len(c.faces) == 1
    assert c.walk_offsets == (0, 0)  # one degenerate face
    assert validate(c) == []
    assert boundary2(c, 4).transpose().row(0) == ()


def test_to_two_complex_two_darts():
    h = Hypermap(2, (2, 1), (2, 1))
    c = to_two_complex(h, SpecialDarts.default(h))
    assert len(c.vertices) == 1
    assert c.edges == ("d2",)
    assert c.sources == c.targets  # self-loop
    assert len(c.faces) == 2
    assert c.walk_offsets == (0, 1, 2)  # one step per face
    assert sorted(c.walk_signs) == [-1, 1]
    assert validate(c) == []
    assert verify_equivalence(h, SpecialDarts.default(h), c, 5, boundary2(c, 5))


def test_equivalence_reads_the_given_complex():
    # the certificate checks the complex it is handed, not a rebuilt one
    h = Hypermap(2, (2, 1), (2, 1))
    specials = SpecialDarts.default(h)
    c = to_two_complex(h, specials)
    # each face is one step on the one edge, so swapping the signs swaps the walks
    swapped = dataclasses.replace(c, walk_signs=c.walk_signs[::-1])
    assert verify_equivalence(h, specials, c, 5, boundary2(c, 5))
    assert not verify_equivalence(h, specials, swapped, 5, boundary2(swapped, 5))


def test_equivalence_on_corpus():
    rng = random.Random(421)
    for h, label in hypermap_corpus(60, seed=885):
        default = SpecialDarts.default(h)
        alternate = random_special_darts(rng, h)
        for specials in (default, alternate):
            c = to_two_complex(h, specials)
            assert validate(c) == [], (label, specials)
            for D in ACCEPTANCE_MODULI:
                assert verify_equivalence(h, specials, c, D, boundary2(c, D)), (label, D, specials)


def test_constructed_complexes_are_orientable():
    for h, label in hypermap_corpus(40, seed=887):
        c = to_two_complex(h, SpecialDarts.default(h))
        assert is_orientable_integral(c), label
        for D in ACCEPTANCE_MODULI:
            assert faces_sum_to_zero(boundary2(c, D)), (label, D)


def test_end_to_end_dimension_agreement():
    for h, label in hypermap_corpus(40, seed=889):
        specials = SpecialDarts.default(h)
        for D in (2, 3, 4):
            chain = delta_matrices(h, specials, D)
            k_hypermap = code_dimension(StabilizerSpec.from_chain(chain))
            c = to_two_complex(h, specials)
            k_complex = homology_cardinality(chain_complex(c, D))
            assert k_hypermap == k_complex, (label, D)


def test_special_dart_validation():
    h = Hypermap(4, (2, 1, 4, 3), (1, 2, 3, 4))
    assert SpecialDarts.default(h).darts == (1, 3)
    assert SpecialDarts.from_darts(h, [2, 3]).darts == (2, 3)
    with pytest.raises(ValueError):
        SpecialDarts.from_darts(h, [1, 2])  # same hyperedge twice
    with pytest.raises(ValueError):
        SpecialDarts.from_darts(h, [1])
    with pytest.raises(ValueError):
        SpecialDarts.from_darts(h, [1, 9])


def test_hypermap_validation():
    with pytest.raises(ValueError):
        Hypermap(2, (1, 1), (1, 2))
    with pytest.raises(ValueError):
        Hypermap(0, (), ())
