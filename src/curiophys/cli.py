"""Command-line front end.

    curiophys generate --kind possible-occluded --class sphere
    curiophys classify events/*.jsonl --kb kb.json --out results/
    curiophys plot events/possible-occluded-sphere-f90-s0.jsonl --out plots/
    curiophys kb show --kb kb.json

Exit codes: 0 success, 1 I/O or config error, 2 some events failed to
process (remaining events were still handled).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Tuple

from .config import ConfigError, RunConfig, load_config, with_overrides
from .curiosity import EventError, encode_verdicts, process_stream
from .ingest import (
    ScenarioError,
    ScenarioKind,
    TraceParseError,
    TraceValidationError,
    build_spec,
    generate_event,
    read_trace_file,
    write_trace_file,
)
from .knowledge import (
    DEFAULT_PROMOTION_THRESHOLD,
    KnowledgeBase,
    KnowledgeLoadError,
    load_kb_file,
    save_kb_file,
)
from .trace_model import ObjectClass

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit code 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curiophys",
        description="Classify object-detection event traces as possible or impossible.",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--kb", metavar="FILE", help="knowledge base file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write one synthetic event trace")
    gen.add_argument("--kind", required=True, choices=[k.value for k in ScenarioKind])
    gen.add_argument(
        "--class",
        dest="object_class",
        default="sphere",
        choices=["sphere", "cone", "cube"],
        help="object class (default sphere)",
    )
    gen.add_argument("--frames", type=int, default=90, help="frame count (default 90)")
    gen.add_argument("--noise", type=float, default=0.0, help="center jitter sigma in px")
    gen.add_argument("--velocity", default="3,0", metavar="VX,VY", help="per-frame velocity")
    gen.add_argument("--confidence", type=float, default=0.6, help="detection confidence")

    cls = sub.add_parser("classify", help="run the pipeline over trace files")
    cls.add_argument("traces", nargs="*", metavar="TRACE", help="trace files")

    plot = sub.add_parser("plot", help="render SVG and CSV for one trace")
    plot.add_argument("trace", metavar="TRACE", help="trace file")

    kb = sub.add_parser("kb", help="inspect or edit the knowledge base")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    kb_sub.add_parser("show", help="print stats and exceptions")
    kb_sub.add_parser("reset", help="write an empty knowledge base")
    threshold = kb_sub.add_parser("promote-threshold", help="persist a new promotion threshold")
    threshold.add_argument("threshold", type=int)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return with_overrides(config, seed=args.seed, kb_path=args.kb, out_dir=args.out)


def _kb_path(config: RunConfig) -> str:
    return config.kb_path or os.path.join(config.out_dir, "kb.json")


def _parse_velocity(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--velocity expects 'vx,vy', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise CliError(f"--velocity expects two numbers, got {text!r}") from None


def _load_or_fresh_kb(config: RunConfig) -> Tuple[KnowledgeBase, str]:
    path = _kb_path(config)
    if os.path.exists(path):
        try:
            kb = load_kb_file(path)
        except (KnowledgeLoadError, OSError) as exc:
            raise CliError(str(exc)) from None
        if config.promotion_threshold is not None:
            kb.set_promotion_threshold(config.promotion_threshold)
    else:
        kb = KnowledgeBase(config.promotion_threshold or DEFAULT_PROMOTION_THRESHOLD)
    return kb, path


def cmd_generate(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        spec = build_spec(
            ScenarioKind(args.kind),
            object_class=ObjectClass.from_name(args.object_class),
            frame_count=args.frames,
            velocity=_parse_velocity(args.velocity),
            seed=config.seed,
            noise_sigma=args.noise,
            confidence=args.confidence,
            scene=config.scene(),
        )
        trace = generate_event(spec)
    except (ScenarioError, ValueError) as exc:
        raise CliError(str(exc)) from None
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"{trace.event_id}.jsonl")
    write_trace_file(trace, path)
    print(f"{trace.event_id} -> {path}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> int:
    kb, kb_path = _load_or_fresh_kb(config)

    traces = []
    for trace_path in args.traces:
        try:
            traces.append(read_trace_file(trace_path, scene=config.scene()))
        except (OSError, TraceParseError, TraceValidationError) as exc:
            raise CliError(f"{trace_path}: {exc}") from None

    if not traces:
        print("no traces given; nothing to do")
        return EXIT_OK

    results = process_stream(traces, kb, config.curiosity_params())

    os.makedirs(config.out_dir, exist_ok=True)
    report_path = os.path.join(config.out_dir, "verdicts.jsonl")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(encode_verdicts(results))
    save_kb_file(kb, kb_path)

    failed = 0
    for result in results:
        if isinstance(result, EventError):
            failed += 1
            print(f"{result.event_id}: error ({result.message})")
        else:
            print(f"{result.event_id}: {result.flag.value}")
    print(f"wrote {report_path}; knowledge base at {kb_path}")
    return EXIT_PARTIAL if failed else EXIT_OK


def _looks_like_report(path: str) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        return isinstance(first, dict) and ("flag" in first or "error" in first)
    except (OSError, ValueError):
        return False


def cmd_plot(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        trace = read_trace_file(args.trace, scene=config.scene())
    except (OSError, TraceParseError, TraceValidationError) as exc:
        if _looks_like_report(args.trace):
            raise CliError(
                f"{args.trace} is a verdict report; plotting needs the event's trace file "
                "(reports carry no per-frame positions)"
            ) from None
        raise CliError(f"{args.trace}: {exc}") from None
    from .plot import plot_event  # only this command needs the SVG renderer

    os.makedirs(config.out_dir, exist_ok=True)
    for path in plot_event(trace, config.out_dir, config.tracker_params()):
        print(path)
    return EXIT_OK


def cmd_kb(args: argparse.Namespace, config: RunConfig) -> int:
    path = _kb_path(config)
    if args.kb_command == "reset":
        kb = KnowledgeBase(config.promotion_threshold or DEFAULT_PROMOTION_THRESHOLD)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        save_kb_file(kb, path)
        print(f"reset {path}")
        return EXIT_OK

    if not os.path.exists(path):
        raise CliError(f"no knowledge base at {path}")
    try:
        kb = load_kb_file(path)
    except (KnowledgeLoadError, OSError) as exc:
        raise CliError(str(exc)) from None

    if args.kb_command == "promote-threshold":
        kb.set_promotion_threshold(args.threshold)
        save_kb_file(kb, path)
        print(f"promotion threshold set to {args.threshold} in {path}")
        return EXIT_OK

    stats = kb.stats()
    exceptions = kb.exceptions()
    print(f"knowledge base: {path}")
    print(f"promotion threshold: {kb.promotion_threshold}")
    print(f"{len(stats)} classes, {len(exceptions)} exceptions")
    for st in stats:
        print(f"  {st.object_class.value}: mean A {st.a_mean:.6f} over {st.count} events")
    for rec in exceptions:
        sig = rec.signature
        status = "promoted" if rec.promoted else "pending"
        print(
            f"  exception [{', '.join(sig.violation_kinds)}] "
            f"occluder={'yes' if sig.occluder_present else 'no'} "
            f"agent={sig.verdict_agent} truth={sig.verdict_ground_truth} "
            f"occurrences={rec.occurrences} ({status})"
        )
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "classify": cmd_classify,
    "plot": cmd_plot,
    "kb": cmd_kb,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](args, config)
    except (CliError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
