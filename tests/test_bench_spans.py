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
