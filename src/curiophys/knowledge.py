"""Z-number knowledge base: class score statistics and exception rules.

A classified object is summarized as a Z-number <X, A, B>: X the class
hypothesis, A its composite body-budget score, B a per-class confidence
map derived from how far A sits from each class's running mean score
(smaller is closer, so inference picks the class minimizing B).

The base also records exceptions: events where the agent's verdict
contradicted ground truth.  A signature seen often enough is promoted to
a rule, after which matching events are resolved in favor of the ground
truth instead of being flagged again.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .trace_model import (
    SCOREABLE_CLASSES,
    ObjectClass,
    class_order_index,
    is_finite_number,
    is_integer,
)
from .tracker import DiscontinuityKind

KB_VERSION = 1
DEFAULT_PROMOTION_THRESHOLD = 3

# What a stored exception signature may name: break kinds and verdicts.
_KIND_WORDS = tuple(kind.value for kind in DiscontinuityKind)
_VERDICT_WORDS = ("possible", "impossible")

# Σ_c B_c must equal 1 to this tolerance after normalization.
NORMALIZATION_TOL = 1e-9

# a_u is either one composite score compared against every class mean, or a
# per-class map when the unknown was scored separately under each hypothesis.
ScoreInput = Union[float, Mapping[ObjectClass, float]]


class DegenerateStatsError(ValueError):
    """Class statistics unusable for inference (empty, a mean of zero, or
    a mean so small that the relative distances overflow)."""


class AmbiguousScoreError(ValueError):
    """Every class is at relative distance zero; normalization undefined."""


class KnowledgeLoadError(ValueError):
    """Persisted knowledge base unreadable; nothing was loaded."""


@dataclass
class ClassStats:
    """Running mean of composite scores observed for one class."""

    object_class: ObjectClass
    a_mean: float = 0.0
    count: int = 0

    def record(self, a: float) -> None:
        if a < 0:
            raise ValueError(f"composite score must be >= 0, got {a}")
        self.count += 1
        self.a_mean += (a - self.a_mean) / self.count


@dataclass(frozen=True)
class ZNumber:
    """<X, A, B>: class hypothesis, its score, and per-class confidences."""

    x: ObjectClass
    a: float
    b: Mapping[ObjectClass, float]

    def __post_init__(self):
        total = 0.0
        for cls, value in self.b.items():
            if not value >= 0:
                raise ValueError(f"confidence for {cls.value} is negative or NaN: {value}")
            total += value
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"confidences sum to {total}, expected 1")


@dataclass(frozen=True, order=True)
class ExceptionSignature:
    """What made an event exceptional, abstracted for repeat detection.
    Signatures order by their fields, which is the order kb.json lists them in."""

    violation_kinds: tuple[str, ...]
    occluder_present: bool
    verdict_agent: str
    verdict_ground_truth: str

    def __post_init__(self):
        if tuple(sorted(self.violation_kinds)) != self.violation_kinds:
            raise ValueError("violation_kinds must be sorted")

    @staticmethod
    def build(
        violation_kinds: Iterable[str],
        occluder_present: bool,
        verdict_agent: str,
        verdict_ground_truth: str,
    ) -> "ExceptionSignature":
        return ExceptionSignature(
            tuple(sorted(violation_kinds)), occluder_present, verdict_agent, verdict_ground_truth
        )


@dataclass
class ExceptionRecord:
    signature: ExceptionSignature
    occurrences: int = 0
    promoted: bool = False


class KnowledgeBase:
    """Mutable store of class statistics and exception records.

    Single-writer: all updates go through this object; inference helpers
    (confidence, infer) are pure functions over a stats snapshot.
    """

    def __init__(self, promotion_threshold: int = DEFAULT_PROMOTION_THRESHOLD):
        self._stats: dict[ObjectClass, ClassStats] = {}
        self._exceptions: dict[ExceptionSignature, ExceptionRecord] = {}
        self.set_promotion_threshold(promotion_threshold)

    # -- class statistics ------------------------------------------------

    def stats(self) -> list[ClassStats]:
        return sorted(self._stats.values(), key=lambda s: class_order_index(s.object_class))

    def update_stats(self, cls: ObjectClass, a: float) -> ClassStats:
        if cls not in SCOREABLE_CLASSES:
            raise ValueError(f"cannot record scores for class {cls.value}")
        stats = self._stats.setdefault(cls, ClassStats(cls))
        stats.record(a)
        return stats

    # -- exceptions --------------------------------------------------------

    def exceptions(self) -> list[ExceptionRecord]:
        return sorted(self._exceptions.values(), key=lambda r: r.signature)

    def record_exception(self, signature: ExceptionSignature) -> ExceptionRecord:
        record = self._exceptions.setdefault(signature, ExceptionRecord(signature))
        record.occurrences += 1
        if record.occurrences >= self.promotion_threshold:
            record.promoted = True
        return record

    def exception_for(self, signature: ExceptionSignature) -> Optional[ExceptionRecord]:
        return self._exceptions.get(signature)

    def set_promotion_threshold(self, threshold: int) -> None:
        """Change the threshold; promotion is sticky, so lowering it may
        promote existing records but raising it demotes none."""
        if threshold < 1:
            raise ValueError(f"promotion_threshold must be >= 1, got {threshold}")
        self.promotion_threshold = threshold
        for record in self._exceptions.values():
            if record.occurrences >= threshold:
                record.promoted = True


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _score_for(a_u: ScoreInput, cls: ObjectClass) -> float:
    if isinstance(a_u, Mapping):
        if cls not in a_u:
            raise ValueError(f"a_u map carries no score for class {cls.value}")
        value = a_u[cls]
    else:
        value = a_u
    if value < 0:
        raise ValueError(f"a_u must be >= 0, got {value}")
    return float(value)


def _check_stats(stats: Sequence[ClassStats]) -> None:
    if not stats:
        raise DegenerateStatsError("no class statistics recorded yet")
    for st in stats:
        if st.count < 1:
            raise DegenerateStatsError(f"class {st.object_class.value} has no recorded scores")
        if st.a_mean <= 0:
            raise DegenerateStatsError(
                f"class {st.object_class.value} has mean {st.a_mean}; relative distance undefined"
            )


def raw_distances(a_u: ScoreInput, stats: Sequence[ClassStats]) -> dict[ObjectClass, float]:
    """Plain |a_mean_c - a_u| per class; reported alongside the normalized
    confidences for comparability, and scaled by relative_distances."""
    _check_stats(stats)
    return {
        st.object_class: abs(st.a_mean - _score_for(a_u, st.object_class)) for st in stats
    }


def relative_distances(a_u: ScoreInput, stats: Sequence[ClassStats]) -> dict[ObjectClass, float]:
    """|a_mean_c - a_u| / a_mean_c per class (the unnormalized confidence):
    each raw distance divided by its class mean."""
    raw = raw_distances(a_u, stats)
    return {st.object_class: raw[st.object_class] / st.a_mean for st in stats}


def confidence(a_u: ScoreInput, stats: Sequence[ClassStats]) -> dict[ObjectClass, float]:
    """Per-class confidences B_c: relative distances normalized to sum 1.

    Smaller means closer.  Raises DegenerateStatsError on unusable stats,
    including relative distances that overflow, and AmbiguousScoreError
    when every distance is zero (nothing to normalize; the caller breaks
    the tie by class order).
    """
    rel = relative_distances(a_u, stats)
    total = sum(rel.values())
    if not math.isfinite(total):
        raise DegenerateStatsError(f"relative distances overflow (sum {total})")
    if total == 0.0:
        raise AmbiguousScoreError("a_u coincides with every class mean")
    return {cls: value / total for cls, value in rel.items()}


def infer(a_u: ScoreInput, stats: Sequence[ClassStats]) -> ObjectClass:
    """Class whose mean score sits closest (minimal B_c); ties and the
    all-zero-distance case resolve by canonical class order."""
    try:
        return z_number(a_u, stats).x
    except AmbiguousScoreError:
        return min((st.object_class for st in stats), key=class_order_index)


def z_number(a_u: ScoreInput, stats: Sequence[ClassStats]) -> ZNumber:
    """Full inference result; raises AmbiguousScoreError when confidences
    are undefined (caller may still use infer())."""
    b = confidence(a_u, stats)
    x = min(b, key=lambda cls: (b[cls], class_order_index(cls)))
    return ZNumber(x=x, a=_score_for(a_u, x), b=b)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def kb_to_document(kb: KnowledgeBase) -> dict:
    return {
        "version": KB_VERSION,
        "promotion_threshold": kb.promotion_threshold,
        "class_stats": [
            {"class": st.object_class.value, "mean": st.a_mean, "count": st.count}
            for st in kb.stats()
        ],
        "exceptions": [exception_to_json(rec) for rec in kb.exceptions()],
    }


def exception_to_json(record: ExceptionRecord) -> dict:
    """One exception record as kb.json and verdicts.jsonl write it."""
    signature = record.signature
    return {
        "violation_kinds": list(signature.violation_kinds),
        "occluder_present": signature.occluder_present,
        "verdict_agent": signature.verdict_agent,
        "verdict_ground_truth": signature.verdict_ground_truth,
        "occurrences": record.occurrences,
        "promoted": record.promoted,
    }


def _load_error(msg: str) -> KnowledgeLoadError:
    return KnowledgeLoadError(f"knowledge base unreadable: {msg}")


def _field(entry: dict, key: str, valid, expected: str):
    value = entry[key]
    if not valid(value):
        raise ValueError(f"{key} must be {expected}, got {value!r}")
    return value


def _is_kind_list(value) -> bool:
    return isinstance(value, list) and all(kind in _KIND_WORDS for kind in value)


def _is_verdict(value) -> bool:
    return value in _VERDICT_WORDS


def _is_bool(value) -> bool:
    return isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_count(value) -> bool:
    # a running mean divides by the count as a float
    return is_integer(value) and is_finite_number(value)


def _section(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise _load_error(f"{key} must be an array, got {value!r}")
    return value


def kb_from_document(doc) -> KnowledgeBase:
    if not isinstance(doc, dict):
        raise _load_error("top-level document must be an object")
    version = doc.get("version")
    if version != KB_VERSION:
        raise _load_error(f"unsupported version {version!r} (expected {KB_VERSION})")
    threshold = doc.get("promotion_threshold", DEFAULT_PROMOTION_THRESHOLD)
    if not is_integer(threshold) or threshold < 1:
        raise _load_error(f"promotion_threshold must be a positive integer, got {threshold!r}")
    kb = KnowledgeBase(promotion_threshold=threshold)

    for i, entry in enumerate(_section(doc, "class_stats")):
        try:
            cls = ObjectClass.from_name(_field(entry, "class", _is_str, "a string"))
            mean = float(_field(entry, "mean", is_finite_number, "a finite number"))
            count = _field(entry, "count", _is_count, "an integer a float can hold")
        except (KeyError, TypeError, ValueError) as exc:
            raise _load_error(f"class_stats[{i}]: {exc}") from None
        if cls not in SCOREABLE_CLASSES:
            raise _load_error(f"class_stats[{i}]: class {cls.value} cannot carry scores")
        if count < 1 or mean < 0:
            raise _load_error(f"class_stats[{i}]: invalid mean/count ({mean}, {count})")
        if cls in kb._stats:  # class names ignore case
            raise _load_error(f"class_stats[{i}]: class {cls.value} appears twice")
        kb._stats[cls] = ClassStats(cls, a_mean=mean, count=count)

    for i, entry in enumerate(_section(doc, "exceptions")):
        try:
            signature = ExceptionSignature.build(
                _field(entry, "violation_kinds", _is_kind_list, f"an array of {_KIND_WORDS}"),
                _field(entry, "occluder_present", _is_bool, "a boolean"),
                _field(entry, "verdict_agent", _is_verdict, f"one of {_VERDICT_WORDS}"),
                _field(entry, "verdict_ground_truth", _is_verdict, f"one of {_VERDICT_WORDS}"),
            )
            occurrences = _field(entry, "occurrences", is_integer, "an integer")
            promoted = _field(entry, "promoted", _is_bool, "a boolean")
        except (KeyError, TypeError, ValueError) as exc:
            raise _load_error(f"exceptions[{i}]: {exc}") from None
        if occurrences < 1:
            raise _load_error(f"exceptions[{i}]: occurrences must be >= 1")
        if signature in kb._exceptions:
            raise _load_error(f"exceptions[{i}]: repeats the signature of an earlier entry")
        kb._exceptions[signature] = ExceptionRecord(signature, occurrences, promoted)

    kb.set_promotion_threshold(threshold)  # promotes any record that has reached it
    return kb


def save_kb(kb: KnowledgeBase) -> bytes:
    return json.dumps(kb_to_document(kb), indent=2, sort_keys=True).encode("utf-8") + b"\n"


def load_kb(data: bytes) -> KnowledgeBase:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _load_error(str(exc)) from None
    return kb_from_document(doc)


def save_kb_file(kb: KnowledgeBase, path) -> None:
    """Atomic write: the file at path is either the old or the new KB,
    never a partial one.  The staged file is created as open() creates one,
    mode 0666 less the umask (mkstemp would make it 0600), and never
    replaces an existing file."""
    payload = save_kb(kb)
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".kb-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_kb_file(path) -> KnowledgeBase:
    with open(path, "rb") as fh:
        return load_kb(fh.read())
