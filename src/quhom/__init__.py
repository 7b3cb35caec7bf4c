"""Qudit homological quantum codes over Z_D from 2-complexes and hypermaps."""

from .complex2 import (
    ChainComplexData,
    ClosedWalk,
    SignedEdge,
    TwoComplex,
    boundary1,
    boundary2,
    chain_complex,
    homology_cardinality,
    is_orientable_integral,
    rp2,
    torus,
    torus_grid,
    validate,
)
from .distance import DistanceReport, distance_css, distance_homological, is_in_normalizer, is_logical
from .errors import BudgetExceeded, QuhomError, ScalarViolation, SchemaError, TheoremMismatch
from .hypermap import (
    Hypermap,
    SpecialDarts,
    delta_matrices,
    to_two_complex,
    verify_equivalence,
)
from .pauli import (
    PauliProduct,
    StabilizerSpec,
    code_dimension,
    enumerate_group,
    stabilizer_size,
    syndrome,
)
from .zmod import (
    SmithDecomposition,
    ZModMatrix,
    contains,
    kernel_cardinality,
    orthogonal_complement,
    smith_normal_form,
    span_cardinality,
)

__version__ = "0.1.0"
