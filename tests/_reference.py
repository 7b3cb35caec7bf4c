"""Reference implementations that the tests compare the library against.

Pauli products multiplied one at a time with the phase rule written out,
Pauli products as dense D^n x D^n matrices, a group's elements as
(phase, x, z) triples, and a hypermap's hyperedge indicators.  The
library's own routes (the index-table closure, syndromes from the check
matrices, the class projector, the dart quotient) use none of these.
"""

import numpy as np

from quhom.oracle import (
    DENSE_DIMENSION_CAP,
    _checked_dimension,
    _digit_table,
    _pauli_action,
    dense_projector,
)
from quhom.pauli import PauliProduct, enumerate_group
from quhom.zmod import ZModMatrix


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _check_compatible(p, q):
    if p.modulus != q.modulus:
        raise ValueError("modulus mismatch")
    if p.num_qudits != q.num_qudits:
        raise ValueError("qudit count mismatch")


def identity(modulus, n):
    return PauliProduct.scalar(modulus, 0, n)


def multiply(p, q):
    """p q in X-before-Z normal form; reordering costs w^(z_p . x_q)."""
    _check_compatible(p, q)
    return PauliProduct(
        p.modulus,
        p.phase + q.phase + _dot(p.z, q.x),
        tuple(a + b for a, b in zip(p.x, q.x)),
        tuple(a + b for a, b in zip(p.z, q.z)),
    )


def inverse(p):
    return PauliProduct(
        p.modulus, _dot(p.z, p.x) - p.phase, tuple(-a for a in p.x), tuple(-a for a in p.z)
    )


def commutation_phase(p, q):
    """beta with p q = w^beta q p; zero iff the two commute."""
    _check_compatible(p, q)
    return (_dot(p.z, q.x) - _dot(p.x, q.z)) % p.modulus


def dense_pauli(pauli, cap=DENSE_DIMENSION_CAP):
    """Dense matrix of w^l X^x Z^z on D^n dimensions."""
    dim = _checked_dimension(pauli.modulus, pauli.num_qudits, cap)
    rows, values = _pauli_action(pauli, _digit_table(pauli.modulus, pauli.num_qudits))
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, np.arange(dim)] = values
    return mat


def elements(enum):
    """The enumerated group as a set of (phase, x, z) triples, read off its rows."""
    n = (enum.rows.shape[1] - 1) // 2
    return frozenset(
        (row[0], tuple(row[1 : n + 1]), tuple(row[n + 1 :])) for row in enum.rows.tolist()
    )


def projector(spec):
    """The class projector of the spec, from its enumerated group."""
    return dense_projector(spec, enumerate_group(spec))



def iota_matrix(hypermap, modulus):
    """Darts x hyperedges; column e is the indicator of the darts in hyperedge e."""
    hyperedges = hypermap.orbit_structure().hyperedges
    pairs = [(dart - 1, e) for e, orbit in enumerate(hyperedges) for dart in orbit]
    rows, cols = zip(*pairs)  # a hypermap has at least one dart
    return ZModMatrix.from_coo(hypermap.n, len(hyperedges), modulus, rows, cols, [1] * len(pairs))
