"""Graph flips, flip metrics, and exhaustive desk-scale verification."""

from .errors import CapExceeded, DomainError
from .graphs import (
    INF,
    Bipartite,
    Graph,
    ball,
    bipartite_induced,
    complement,
    diameter,
    distance_matrix,
    induced,
)
from .flips import (
    FlipSpec,
    Partition,
    apply_flip,
    canonical_pairs,
    definable_partition,
    enumerate_flips,
    enumerate_partitions,
    num_flips,
    reconstruct_flip_spec,
    refine,
)
from .metrics import (
    SetFamily,
    ball_family,
    ball_partition,
    dist_definable,
    dist_definable_matrix,
    dist_family,
    dist_family_matrix,
    dist_partition,
    dist_partition_matrix,
)
from .vc import ShatterReport, is_shattered, shatter_function, vc_dimension
from .conversion import (
    BipartiteCase,
    BipartiteCaseTag,
    ConversionResult,
    bipartite_flip,
    classify_bipartite,
    convert,
    search_definable_emulation,
)
from .breaksep import (
    BreakWitness,
    SearchBudget,
    SunflowerResult,
    WeightFn,
    break_from_sep,
    breakability_search,
    greedy_scattered,
    sep_then_break,
    separability_search,
    small_balls_orchestrate,
    sunflower_extract,
    verify_break_witness,
)

__version__ = "0.1.0"
