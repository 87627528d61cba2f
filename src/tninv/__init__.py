"""Tensor-network state factorization and numerical local-unitary invariants."""

from .tensor import Tensor, ShapeError, group_legs
from .decompose import (
    SVDFactors,
    SchmidtForm,
    MPSChain,
    diagrammatic_svd,
    schmidt,
    mps_factor,
    mps_reconstruct,
    classify_topology,
    verify_isometry,
    fidelity,
    SEPARABLE,
    MAXIMALLY_ENTANGLED,
    GENERIC,
)
from .invariants import (
    PermTuple,
    CanonicalClass,
    ContractionCost,
    parse_label,
    format_label,
    canonicalize,
    conjugate_tuple,
    connected_components,
    component_subtuples,
    enumerate_invariants,
    permutation_operator,
    evaluate,
    evaluate_fast,
    evaluate_many,
    is_real_guaranteed,
    verify_classes,
    max_unitary_deviation,
    pure_jk,
    reduced_power_label,
)
from .entropy import (
    Spectrum,
    CharPolyRelation,
    renyi,
    von_neumann,
    renyi_from_invariant,
    char_poly_relation,
    schmidt_from_jk,
)
from .states import (
    StateData,
    StateFileError,
    save_state,
    save_chain,
    load_state,
    random_pure_state,
    random_local_unitary,
    density_from_pure,
    partial_trace,
    bipartition_density,
    apply_local_unitary,
)

__version__ = "0.1.0"
