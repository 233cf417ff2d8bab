"""Search-based merge conflict resolution toolkit.

Resolves git merge conflicts by hill-climbing over partial-order-constrained
interleavings of the conflicting versions' lines, and ships the surrounding
apparatus: conflict file parsing, dataset management, trivial and remote
resolvers, a rule-based hybrid router, benchmarking, and paired statistics.
"""

from .corpus import (
    ConflictRecord,
    DatasetSplit,
    Language,
    RejectionReport,
    dedupe_by_commit,
    ingest_records,
    load_records,
    preserves_partial_order,
    split_dataset,
)
from .parsing import (
    ConflictChunk,
    ConflictedFile,
    Context,
    MarkerError,
    NestedMarkers,
    UnbalancedMarkers,
    parse_conflicted_file,
    render_resolved,
    render_with_markers,
)
from .resolvers import (
    RemoteResolver,
    ResolutionCandidate,
    Resolver,
    SearchResolver,
    Status,
    StubGenerativeResolver,
    TokenLimits,
    TrivialResolver,
    TrivialStrategy,
    estimate_tokens,
)
from .stub_server import StubServer
from .router import (
    ConflictFeatures,
    HybridResolver,
    RouteDecision,
    RouteRule,
    RouteTarget,
    RouteThresholds,
    extract_features,
    hybrid_resolve,
    route,
)
from .search import (
    Candidate,
    ScoredCandidate,
    SearchParams,
    SearchResult,
    SourceLineRef,
    Version,
    candidate_lines,
    concat_candidate,
    evaluate,
    is_valid_candidate,
    neighbor,
    random_candidate,
    rrhc_resolve,
)
from .similarity import Granularity, lcs_length, similarity
from .stats import cles, wilcoxon_signed_rank
from .bench import (
    ComparisonReport,
    ResultRow,
    TuningRow,
    compare_results,
    run_benchmark,
    tune_grid,
)

__version__ = "0.1.0"
