"""Storage-budgeted continual merging of low-rank adapters."""

from .adapters import (
    FactorPair,
    LayerKey,
    LoraAdapter,
    PROJECTIONS,
    delta_map,
    read_adapter,
    write_adapter,
)
from .engine import (
    AdapterStore,
    IngestDecision,
    MergeEngine,
    MergeHistory,
    PolicyConfig,
)
from .merging import (
    MergedDelta,
    MergeOperator,
    RankPolicy,
    dare_merge,
    dare_preprocess,
    dare_ties_merge,
    linear_merge,
    refactor,
    ties_merge,
)
from .similarity import (
    Profile,
    adapter_similarity,
    calibrate_threshold,
    most_similar,
    similarities,
    similarity_matrix,
)
from .bench import (
    GeneratorConfig,
    OrderingSpec,
    TaskSpec,
    aggregate_score,
    clustering_consistency,
    generate_suite,
    load_suite,
    run_simulation,
    save_suite,
    surrogate_metric,
    threshold_sweep,
)

__version__ = "0.1.0"
