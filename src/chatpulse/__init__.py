"""Engagement analytics for encrypted group chats from message metadata.

The pipeline never reads message content. From a (user, timestamp) log it
builds one weighted undirected interaction network per fixed time window
(consecutive senders are linked), scores each window's conversation with the
engagement index (equality x intensity), classifies windows by ei z-score,
ranks users by mean ei centrality per class, and compares user engagement
between two date ranges.
"""

__version__ = "0.1.0"

from .chatlog import (
    AnonymizedLog,
    MessageLog,
    ParsedTranscript,
    PROFILES,
    anonymize,
    dump_log,
    dump_mapping,
    load_log,
    log_lines,
    parse_transcript,
    read_mapping,
    utf8_lines,
)
from .engagement import (
    EngagementMetrics,
    engagement_index,
    gini,
)
from .ensemble import (
    ClassifiedNetwork,
    EngagementClass,
    EnsembleStats,
    UserRanking,
    WindowMetrics,
    conversation_metrics,
    ensemble_stats,
    rank_users,
    zscore_classify,
    zscore_histogram,
)
from .errors import (
    ChatpulseError,
    DegenerateEnsembleError,
    InsufficientDataError,
    MappingConflictError,
    NotAConversationError,
    OrderingError,
    ParameterError,
    ParseError,
    SchemaError,
)
from .netbuild import (
    InteractionNetwork,
    WindowSlice,
    WindowSpec,
    ensemble_lines,
    network_from_senders,
    slice_windows,
    window_networks,
)
from .synth import Regime, SynthResult, WindowTruth, dump_ground_truth, generate
from .temporal import (
    ComparisonRow,
    PeriodComparison,
    UserSeries,
    engagement_drop_report,
    period_compare,
    period_means,
    user_series,
)
