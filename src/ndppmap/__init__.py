"""MAP inference and desk-scale verification for nonsymmetric PSD DPP kernels."""

from .charpoly import superset_marginal
from .coreset import PartitionPlan, build_plan, compose_and_report, coreset_map
from .downup import (
    apply_field,
    build_downup,
    conductance,
    sample_walk,
    spectral_gap,
    tv_distance,
)
from .errors import (
    CapacityError,
    ConditioningError,
    DomainError,
    IncompleteSearchError,
    InfeasibilityError,
    NdppError,
    TrappedStateError,
)
from .exchange import (
    brute_force_map,
    check_strong_basis_exchange,
    hurwitz_coeff_check,
    verify_exchange_all_pairs,
)
from .greedy import GreedyTrace, induced_greedy, standard_greedy
from .kernel import (
    Kernel,
    condition_on,
    is_npsd,
    load_kernel,
    principal_minor,
    save_kernel,
)
from .localsearch import (
    SearchConfig,
    SearchTrace,
    local_search,
    map_inference,
)
from .setdist import (
    KernelDistribution,
    SetDistribution,
    TableDistribution,
    kernel_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
