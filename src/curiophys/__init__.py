"""Possible/impossible classification of object-detection event traces.

The pipeline: parse or generate a trace, track its detections with a
constant-velocity filter, score each track's body-budget properties,
explain away continuity breaks (occlusion, scene entry/exit), verdict
the event, and fold the outcome into a Z-number knowledge base.

The root holds the names the acceptance checks use; every other public
name is imported from the module that owns it, e.g.
``from curiophys.curiosity import process_stream``.
"""
from .body_budget import (
    WeightConfig,
    composite_score,
    score_object_permanence,
    score_spatial_temporal,
)
from .curiosity import Flag, classify_event
from .ingest import ScenarioKind, build_spec, encode_trace, generate_event, parse_trace
from .knowledge import (
    ClassStats,
    ExceptionSignature,
    KnowledgeBase,
    confidence,
    infer,
    load_kb,
    raw_distances,
    save_kb,
)
from .trace_model import ObjectClass, class_order_index, default_profiles
from .tracker import track_event

__version__ = "0.1.0"
