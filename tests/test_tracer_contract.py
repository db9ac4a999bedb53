"""The benchmark tracer still reaches every per-layer metric BENCHMARK.json names.

`perfbench/tracer.py` wraps frobpair functions by name and skips a name that
no longer exists, so renaming or deleting a traced function silently drops
that layer's size metric (for instance `cube.rank.rows`) from a traced run.
The tracer is loaded from its file, read-only, and removed again afterwards.
"""

import importlib.util
import json
from pathlib import Path

import frobpair.cube

ROOT = Path(__file__).resolve().parent.parent

#: computed by perfbench/run.py from two timed passes, not by the tracer
RUN_METRICS = {"trace.overhead_ratio"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_every_declared_layer_metric():
    tracer = load_tracer()
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    installed = tracer.Tracer().install()
    try:
        assert hasattr(frobpair.cube.edge_map, "__wrapped__")
        produced = set(tracer.layer_metrics(installed.counters())) | RUN_METRICS
    finally:
        installed.uninstall()
    assert not hasattr(frobpair.cube.edge_map, "__wrapped__")
    assert declared <= produced, sorted(declared - produced)
