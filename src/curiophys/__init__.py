"""Possible/impossible classification of object-detection event traces.

The pipeline: parse or generate a trace, track its detections with a
constant-velocity filter, score each track's body-budget properties,
explain away continuity breaks (occlusion, scene entry/exit), verdict
the event, and fold the outcome into a Z-number knowledge base.
"""
from .body_budget import (
    BodyBudgetScores,
    WeightConfig,
    composite_score,
    focus_track,
    hypothesis_scores,
    normalized_euclidean_distance,
    score_object_permanence,
    score_shape_constancy,
    score_spatial_temporal,
    score_track,
)
from .config import ConfigError, RunConfig, load_config, with_overrides
from .curiosity import (
    EXPLAIN_NONE,
    EXPLAIN_OCCLUDER,
    EXPLAIN_SCENE_BOUNDS,
    CuriosityContext,
    CuriosityParams,
    EventError,
    EventVerdict,
    Explanation,
    Flag,
    TrackScore,
    classify_event,
    encode_verdicts,
    explain_discontinuities,
    process_stream,
    verdict_to_json,
)
from .ingest import (
    Rect,
    ScenarioError,
    ScenarioKind,
    ScenarioSpec,
    TraceParseError,
    TraceValidationError,
    build_spec,
    default_occluder,
    encode_trace,
    generate_event,
    parse_trace,
    read_trace_file,
    write_trace_file,
)
from .knowledge import (
    AmbiguousScoreError,
    ClassStats,
    DegenerateStatsError,
    ExceptionRecord,
    ExceptionSignature,
    KnowledgeBase,
    KnowledgeLoadError,
    ZNumber,
    confidence,
    infer,
    load_kb,
    load_kb_file,
    raw_distances,
    relative_distances,
    save_kb,
    save_kb_file,
    z_number,
)
from .trace_model import (
    CLASS_ORDER,
    SCOREABLE_CLASSES,
    Detection,
    EventTrace,
    FrameRecord,
    GroundTruth,
    ObjectClass,
    SceneBounds,
    class_order_index,
    default_profiles,
    default_shape_descriptor,
    validate_trace,
)
from .tracker import (
    CovarianceError,
    Discontinuity,
    DiscontinuityKind,
    Track,
    TrackerParams,
    trace_discontinuities,
    track_discontinuities,
    track_event,
    write_track_csv,
)

__version__ = "0.1.0"
