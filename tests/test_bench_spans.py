"""The benchmark's traced run wraps program functions by module attribute;
a rename or a dropped import in the program must fail here, not there."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# instrument() rebinds module globals, so it runs in its own interpreter
SCRIPT = """
import json
import spans
from curiophys import KnowledgeBase, ScenarioKind, build_spec, curiosity, generate_event

rec = spans.Recorder()
spans.instrument(rec)
kb = KnowledgeBase()
for kind in (ScenarioKind.POSSIBLE_OCCLUDED, ScenarioKind.POSSIBLE_VISIBLE):
    curiosity.classify_event(generate_event(build_spec(kind)), kb)
calls, _, _ = rec.totals()
print(json.dumps(calls))
"""


def test_the_benchmark_span_hooks_attach():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in (
        "classify_event",
        "track_event",
        "filter",
        "trace_discontinuities",
        "explain_discontinuities",
        "hypothesis_scores",
        "infer",
        "learn",
    ):
        assert calls.get(name, 0) > 0, name


# the traced run's path: trace files read, a stream classified, verdicts
# encoded, the knowledge base saved and loaded back, then per_layer
PER_LAYER_SCRIPT = """
import json, os, sys
import spans
from curiophys import ScenarioKind, build_spec, curiosity, encode_trace, generate_event, ingest, knowledge

rec = spans.Recorder()
spans.instrument(rec)
out = sys.argv[1]
paths = []
for kind in ScenarioKind:
    path = os.path.join(out, kind.value + ".jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_trace(generate_event(build_spec(kind))))
    paths.append(path)
kb = knowledge.KnowledgeBase()
results = curiosity.process_stream([ingest.read_trace_file(p) for p in paths], kb)
curiosity.encode_verdicts(results)
kb_path = os.path.join(out, "kb.json")
knowledge.save_kb_file(kb, kb_path)
knowledge.load_kb_file(kb_path)
print(json.dumps(sorted(spans.per_layer(rec))))
"""


def test_the_traced_run_reports_every_per_layer_metric(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", PER_LAYER_SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # bench/run.py adds cli.import_ms itself, from a fresh interpreter
    expected = sorted(m["name"] for m in declared if m["name"] != "cli.import_ms")
    assert json.loads(proc.stdout) == expected


def test_importing_the_cli_prints_nothing():
    # bench/run.py reads the import time as the only thing on stdout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import curiophys.cli"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
