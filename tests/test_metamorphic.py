"""K, |S| and d do not depend on how a code is written down.

On the acceptance complexes at D in {2, 3, 4}, each of these leaves the
stabilizer size, the dimension and the distance (or the scalar violation)
unchanged: new names and orders for the vertices, edges and faces; face
walks rotated or inverted; the generator rows of the equivalent check
matrix permuted.  The search's `examined` count may change.
"""

import random

import pytest

from quhom.complex2 import chain_complex
from quhom.distance import distance_css
from quhom.documents import complex_from_dict, complex_to_dict
from quhom.errors import ScalarViolation
from quhom.pauli import StabilizerSpec, parse_check_matrix, stabilizer_size

from _corpus import acceptance_complexes, permuted_rows, renamed, turned

MODULI = (2, 3, 4)


def invariants(spec):
    """(|S|, K, d), d None when there are no logicals; or the scalar's phase."""
    try:
        size = stabilizer_size(spec)
    except ScalarViolation as exc:
        return ("scalar", exc.witness.phase)
    report = distance_css(spec)
    return size, spec.modulus**spec.n // size, None if report.no_logicals else report.distance


def spec_of(doc):
    complex2, modulus = complex_from_dict(doc)
    return StabilizerSpec.from_chain(chain_complex(complex2, modulus))


@pytest.mark.parametrize("D", MODULI)
def test_code_parameters_do_not_depend_on_how_the_code_is_written(D):
    rng = random.Random(D)
    for complex2, label in acceptance_complexes():
        doc = complex_to_dict(complex2, D)
        spec = spec_of(doc)
        expected = invariants(spec)
        assert invariants(spec_of(renamed(doc, rng))) == expected, (label, "renamed")
        assert invariants(spec_of(turned(doc, rng))) == expected, (label, "turned")
        permuted = parse_check_matrix(permuted_rows(spec, rng))
        assert invariants(permuted) == expected, (label, "permuted rows")
