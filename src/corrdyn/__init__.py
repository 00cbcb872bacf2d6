"""corrdyn: finite-dimensional quantum correlation dynamics.

Dense exact engine for correlation operators, cluster correlations,
cumulants of evolution groups, and reduced-density hierarchies on small
tensor-product Hilbert spaces, with brute-force oracles that turn every
identity into a testable matrix equation.
"""

from .combinatorics import (
    ClusterElement,
    ClusterSet,
    Partition,
    bell_number,
    declusterize,
    mobius_weight,
    nonempty_subsets,
    set_partitions,
)
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Permutation,
    Statistics,
    embed_operator,
    partial_trace,
    permute_ket,
    symmetrize,
    trace_norm,
    sequence_trace_norm,
)
from .hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    build_hamiltonian,
    evolve_blocks,
    evolve_group,
    interaction_generator,
    periodic_laplacian,
    von_neumann_generator,
)
from .correlations import (
    ClusterCorrelation,
    CorrelationSequence,
    clusterize,
    correlations_to_density,
    density_to_correlations,
    generalized_rhs,
    integrate_hierarchy,
    von_neumann_rhs,
)
from .bbgky import (
    BBGKYSeries,
    CumulantBoundReport,
    MarginalSequence,
    WeightedNormParams,
    bbgky_rhs,
    chaos_cluster_solution,
    cumulant_apply,
    cumulant_norm_bound_check,
    marginal_from_clusters,
    marginals_from_correlations,
    solve_bbgky_series,
    solve_series_time_derivative,
    weighted_norm,
)
from .errors import (
    ConfigError,
    CorrdynError,
    DomainError,
    IntegrationError,
    ResourceCapError,
    TruncationError,
)

__version__ = "0.1.0"
