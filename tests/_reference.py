"""Reference implementations that the tests compare the library against.

Pauli products multiplied one at a time with the phase rule written out,
Pauli products as dense D^n x D^n matrices, a group's elements as
(phase, x, z) triples, the class projector one entry per basis column
and as a dense array, class projectors with random unclosed classes, the
logical-action residual from dense arrays, a hypermap's hyperedge indicators, and a complex document's walk
rotation and validation by names.  The library's own routes (the
index-table closure, syndromes from the check matrices, the class
projector, the dart quotient, the index lists of a parsed complex) use
none of these.
"""

import numpy as np

from quhom.errors import ScalarViolation
from quhom.oracle import (
    CELL_CAP,
    ClassProjector,
    DENSE_DIMENSION_CAP,
    RESIDUAL_TOL,
    _checked_dimension,
    _digit_table,
    _pauli_action,
    _place_values,
    _slots,
    dense_projector,
)
from quhom.pauli import PauliProduct, code_dimension, enumerate_group
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
    """The enumerated group as (phase, x, z) triples in discovery order, each
    key phase |X| |Z| + a |Z| + b read as (phase, X[a], Z[b])."""
    nz = len(enum.z_parts)
    x_parts, z_parts = enum.x_parts.tolist(), enum.z_parts.tolist()
    triples = []
    for key in enum.keys.tolist():
        phase, index = divmod(key, len(x_parts) * nz)
        triples.append((phase, tuple(x_parts[index // nz]), tuple(z_parts[index % nz])))
    return triples


def projector(spec):
    """The class projector of the spec, from its enumerated group."""
    return dense_projector(spec, enumerate_group(spec))


def class_columns(spec, proj):
    """(rows, values) of a ClassProjector, one entry per class and basis column:
    class i's entry in column c lies in row rows[i, c], the basis index of c
    plus its X part, and is values[i, c], its sum at the label of c."""
    D, n = spec.modulus, spec.n
    digits = _digit_table(D, n)
    rows = ((digits[None] + digits[proj.codes][:, None]) % D) @ _place_values(D, n)
    return rows, proj.sums[:, proj.labels]


def densify(spec, proj):
    """The D^n x D^n array of a ClassProjector."""
    dim = len(proj.labels)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for rows, values in zip(*class_columns(spec, proj)):
        mat[rows, np.arange(dim)] = values
    return mat


def unclosed_projector(D, n, codes, seed, labels=None):
    """A ClassProjector with random sums on the given X classes, closed or not.

    Without `labels` every basis column has a label of its own.  With it,
    the columns are dealt that many labels at random, each used, and the
    last label has the same sums as the first, bit for bit.
    """
    rng = np.random.default_rng(seed)
    dim = D**n
    shape = (len(codes), labels or dim)
    sums = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if labels:
        sums[:, -1] = sums[:, 0]
        column_labels = rng.permutation(np.arange(dim) % labels)
    else:
        column_labels = np.arange(dim)
    return ClassProjector(np.array(codes, dtype=np.int64), sums, column_labels)


def logical_residual(pauli, spec, proj):
    """The Frobenius norm of R P - c P, with c = tr(R P) / Re tr(P), from dense arrays."""
    dense_proj = densify(spec, proj)
    applied = dense_pauli(pauli) @ dense_proj
    scale = np.trace(applied) / np.trace(dense_proj).real
    return float(np.linalg.norm(applied - scale * dense_proj))


def per_column_checks(spec, proj):
    """projector_checks with P-dagger and P-squared formed in every column, column
    blocks of at most CELL_CAP products: the reference for the per-signature checks."""
    D, n = spec.modulus, spec.n
    codes = proj.codes
    rows, values = class_columns(spec, proj)
    dim = rows.shape[1]
    slots = _slots(dim, codes)
    # P-dagger[r, c] = conj(P[c, r]): class x of P meets class -x read at its rows
    partners = slots[(-_digit_table(D, n)[codes] % D) @ _place_values(D, n)]
    herm_residual = 0.0
    for i, partner in enumerate(partners):
        diff = values[i] if partner < 0 else np.conj(np.take(values[partner], rows[i])) - values[i]
        herm_residual = max(herm_residual, float(np.abs(diff).max()))
    # P_i P_j is the class x_i + x_j, whose code is the column x_j shifted by
    # x_i; its entry in column c is values[i] read at the row class j sends c to.
    # Column blocks of at most CELL_CAP products reuse one buffer.
    sums = rows[:, codes]
    square_slots = _slots(dim, codes, sums)
    square = np.zeros((square_slots.max() + 1, dim), dtype=np.complex128)
    step = min(dim, max(1, CELL_CAP // len(codes)))
    buffer = np.empty((len(codes), step), dtype=np.complex128)
    for lo in range(0, dim, step):
        block_rows = rows[:, lo : lo + step]
        products = buffer[:, : block_rows.shape[1]]
        for i, targets in enumerate(square_slots[sums]):
            np.take(values[i], block_rows, out=products)
            products *= values[:, lo : lo + step]
            square[targets, lo : lo + step] += products
    square[square_slots[codes]] -= values
    idem_residual = float(np.abs(square).max())
    trace = complex(values[slots[0]].sum()) if slots[0] >= 0 else 0j
    trace_residual = abs(trace - round(trace.real))
    try:
        expected = code_dimension(spec)
    except ScalarViolation:
        expected = 0
    residual = max(herm_residual, idem_residual, float(trace_residual))
    rounded = int(round(trace.real))
    return {
        "hermitian_residual": herm_residual,
        "idempotent_residual": idem_residual,
        "trace": trace,
        "trace_residual": float(trace_residual),
        "rounded_trace": rounded,
        "expected_dimension": expected,
        "residual": residual,
        "ok": residual < RESIDUAL_TOL and rounded == expected,
    }


def iota_matrix(hypermap, modulus):
    """Darts x hyperedges; column e is the indicator of the darts in hyperedge e."""
    hyperedges = hypermap.orbit_structure().hyperedges
    pairs = [(dart - 1, e) for e, orbit in enumerate(hyperedges) for dart in orbit]
    rows, cols = zip(*pairs)  # a hypermap has at least one dart
    return ZModMatrix.from_coo(hypermap.n, len(hyperedges), modulus, rows, cols, [1] * len(pairs))


def canonical_rotation(steps):
    """(edge name, sign) steps in their canonical rotation: the
    lexicographically minimal rotation, + ordered before -."""
    steps = tuple(steps)
    if steps:
        # the first rotation with the minimal key starts at a minimal step key
        keys = [(edge, sign < 0) for edge, sign in steps]
        first = min(keys)
        start = keys.index(first)
        if keys.count(first) > 1:
            doubled, n = keys * 2, len(keys)
            starts = (i for i, key in enumerate(keys) if key == first)
            start = min(starts, key=lambda i: doubled[i : i + n])
        steps = steps[start:] + steps[:start]
    return steps


def document_walks(doc):
    """Each face's walk as (edge name, sign) steps in canonical rotation."""
    return [
        canonical_rotation((item[:-1], -1) if item.endswith("~") else (item, 1) for item in face["walk"])
        for face in doc["faces"]
    ]


def validate_document(doc):
    """The violations of a complex document that passes the schema, found by
    names: dangling vertex and edge references, then per face the unknown
    edges or else the incidence breaks, positions in canonical rotation."""
    violations = []
    vertices = set(doc["vertices"])
    ends = {e["name"]: (e["source"], e["target"]) for e in doc["edges"]}
    for e in doc["edges"]:
        if e["source"] not in vertices:
            violations.append(f"edge {e['name']}: unknown source vertex {e['source']!r}")
        if e["target"] not in vertices:
            violations.append(f"edge {e['name']}: unknown target vertex {e['target']!r}")
    for face, steps in zip(doc["faces"], document_walks(doc)):
        f = face["name"]
        bad_ref = False
        for pos, (edge, _) in enumerate(steps):
            if edge not in ends:
                violations.append(f"face {f}: step {pos} references unknown edge {edge!r}")
                bad_ref = True
        if bad_ref or not steps:
            continue
        n = len(steps)
        for pos in range(n):
            (edge, sign), (next_edge, next_sign) = steps[pos], steps[(pos + 1) % n]
            target = ends[edge][1] if sign > 0 else ends[edge][0]
            source = ends[next_edge][0] if next_sign > 0 else ends[next_edge][1]
            if target != source:
                violations.append(
                    f"face {f}: incidence break at position {pos}->{(pos + 1) % n}: "
                    f"target {target!r} != source {source!r}"
                )
    return violations
