"""qglab: build finite quantum groups from Cayley tables and certify their
structural identities, approximate diagonals, and quantitative bounds.
"""

from .diagonals import (
    DiagonalCandidate,
    NetVector,
    build_diagonal,
    certify_commutator_bound,
    commutant_compression,
    diagonal_residuals,
    exact_nets,
    left_invariance_residual,
    right_invariance_residual,
)
from .dualside import (
    DualContext,
    build_approximate_identity,
    certify_identity_bound,
    certify_quasicentral_bound,
    dual_context,
)
from .funalg import (
    BlockDecomposition,
    Functional,
    block_decompose,
    convolve,
    predual_norm,
    tensor_predual_norm,
    vector_state,
)
from .groups import BUILTIN_NAMES, GroupTable, builtin_table, load_group, parse_cayley
from .qgcore import (
    FiniteQuantumGroup,
    comultiply,
    derived_unitaries,
    dual,
    function_algebra,
    structure_identity_residuals,
)
from .report import CheckRecord, CheckReport
from .suites import RunConfig, run_suites

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BUILTIN_NAMES",
    "BlockDecomposition",
    "CheckRecord",
    "CheckReport",
    "DiagonalCandidate",
    "DualContext",
    "FiniteQuantumGroup",
    "Functional",
    "GroupTable",
    "NetVector",
    "RunConfig",
    "block_decompose",
    "build_approximate_identity",
    "build_diagonal",
    "builtin_table",
    "certify_commutator_bound",
    "certify_identity_bound",
    "certify_quasicentral_bound",
    "commutant_compression",
    "comultiply",
    "convolve",
    "derived_unitaries",
    "diagonal_residuals",
    "dual",
    "dual_context",
    "exact_nets",
    "function_algebra",
    "left_invariance_residual",
    "load_group",
    "parse_cayley",
    "predual_norm",
    "right_invariance_residual",
    "run_suites",
    "structure_identity_residuals",
    "tensor_predual_norm",
    "vector_state",
]
