"""The benchmark tracer still reaches every per-layer metric BENCHMARK.json names.

`perfbench/tracer.py` wraps frobpair functions by name and skips a name that
no longer exists, so renaming or deleting a traced function silently drops
that layer's size metric (for instance `cube.rank.rows`) from a traced run.
`perfbench/selftest.py` compares traced call counts with hand counts; its
report of stale counts may only shrink.  Both are loaded from their files,
read-only, and the tracer is removed again afterwards.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import frobpair.cli
import frobpair.cube

ROOT = Path(__file__).resolve().parent.parent

#: computed by perfbench/run.py from two timed passes, not by the tracer
RUN_METRICS = {"trace.overhead_ratio"}


#: the layers whose selftest hand counts no longer match frobpair's call structure
STALE_SELFTEST_LAYERS = {
    "tensor.compose.calls", "tensor.tensor.calls", "tensor.permutation.calls",
    "pair.generator_table.calls", "cube.edge_map.calls",
    "cube.differential.calls", "cube.rank.calls", "cube.snf.cells",
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


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


def test_selftest_names_no_new_stale_layer():
    # a change that alters the call structure of a layer not listed above fails
    # here rather than only in the metadata of a traced benchmark run
    selftest, tracer = load_perfbench("selftest"), load_tracer()

    def run_cli(argv):  # as perfbench's jobs.run_cli: (exit code, stdout) in process
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = frobpair.cli.main(argv)
        return code, out.getvalue()

    installed = tracer.Tracer().install()
    try:
        outputs, mismatches = selftest.calibrate(installed, run_cli)
    finally:
        installed.uninstall()
    assert not hasattr(frobpair.cube.edge_map, "__wrapped__")
    assert [outputs[0], outputs[1][0], outputs[2]] == [(0, "2\n"), 0, (True, None)]
    stale = {line.split()[0] for line in mismatches}
    assert stale <= STALE_SELFTEST_LAYERS, sorted(stale - STALE_SELFTEST_LAYERS)
