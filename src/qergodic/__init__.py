"""Random walks on finite quantum groups and their ergodicity certificates."""

from .blocks import (
    AlgebraElement,
    BlockStructure,
    LinearFunctional,
    TensorSplit,
    is_positive,
    is_projection,
    p_norm,
    spectral_decomposition,
)
from .catalog import (
    chi_subgroup,
    classical_state,
    dual_state_from_values,
    dual_subgroup_state,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    kp_pure_state,
    state_from_positive_definite,
)
from .ergodicity import (
    ErgodicityVerdict,
    baraquin_check,
    classify,
    cyclic_partition,
    freslon_check,
    is_irreducible,
    quasi_subgroup_is_subgroup,
    zhang_criterion,
)
from .groups import FiniteGroup, IrrepTable, build_group, normal_subgroups, subgroups
from .hopf import FiniteQuantumGroup, HopfAxiomReport
from .walks import (
    WalkState,
    cesaro_limit,
    convolution_power,
    convolve,
    counit_state,
    distances_to_random,
    eigenvalues,
    haar_state,
    idempotent_support,
    random_state,
    spectrum_peripheral,
    stochastic_operator,
    support_projection,
    total_variation,
)

__version__ = "0.1.0"
