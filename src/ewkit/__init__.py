"""ewkit: entanglement witnesses, PPT states, and the families they generate.

From a seed pair (a witness W0 and the PPT entangled state rho0 it detects)
the toolkit builds the open convex sets of nearby witnesses and states,
computes the detection thresholds in closed form, and certifies PPT-ness,
indecomposability, and (conditionally) atomicity with machine-checkable
evidence. The sigma-PPT machinery generalizes everything to N parties.
"""

from .core import (
    HermitianOp,
    TensorSpace,
    bipartite,
    is_psd,
    partial_transpose,
    tensor_op,
    trace_pair,
)
from .construct import (
    LinearMapTable,
    choi_map,
    convex_combination,
    ghz_projector,
    ha_state,
    max_entangled_projector,
    maximally_mixed,
    perturbed_witness,
    product_basis_state,
    projector_p,
    projector_q,
    witness_dk,
    witness_from_difference,
)
from .detect import (
    alpha_threshold,
    chain_pair,
    lambda_threshold,
    mu_threshold,
    sample_sppt,
    sample_wind,
    separable_catalog,
    sweep,
)
from .certify import (
    HA_SCHMIDT_ASSUMPTION,
    Certificate,
    ScanConfig,
    blockpos_scan,
    certify_atomic_conditional,
    certify_detection,
    certify_indecomposable,
    certify_ppt,
    revalidate,
    schmidt_rank,
)
from .serialize import (
    MalformedFileError,
    certificate_to_json_dict,
    read_map_table,
    read_operator,
    write_map_table,
    write_operator,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "HA_SCHMIDT_ASSUMPTION",
    "Certificate",
    "HermitianOp",
    "LinearMapTable",
    "MalformedFileError",
    "ScanConfig",
    "TensorSpace",
    "alpha_threshold",
    "bipartite",
    "blockpos_scan",
    "certificate_to_json_dict",
    "certify_atomic_conditional",
    "certify_detection",
    "certify_indecomposable",
    "certify_ppt",
    "chain_pair",
    "choi_map",
    "convex_combination",
    "ghz_projector",
    "ha_state",
    "is_psd",
    "lambda_threshold",
    "max_entangled_projector",
    "maximally_mixed",
    "mu_threshold",
    "partial_transpose",
    "perturbed_witness",
    "product_basis_state",
    "projector_p",
    "projector_q",
    "read_map_table",
    "read_operator",
    "revalidate",
    "sample_sppt",
    "sample_wind",
    "schmidt_rank",
    "separable_catalog",
    "sweep",
    "tensor_op",
    "trace_pair",
    "witness_dk",
    "witness_from_difference",
    "write_map_table",
    "write_operator",
    "write_sweep_csv",
]
