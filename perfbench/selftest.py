"""Tracer self-test: traced call counts of three small jobs against hand counts.

    python3 perfbench/selftest.py

`eval --pair aps.json torus.cob` folds four events (birth, split, merge,
death); each event builds one layer with two `tensor` calls and applies it
with one `compose`, after one `generator_table` call that derives beta and
gamma with two more `compose` calls.

`cube --builtin aps split1.cube --coeff z` has one split edge: one
differential, one `edge_map` (one `generator_table`, two permutations, one
`tensor`, two `compose` plus the two of `generator_table`), the rank of d_0
taken twice (once for each adjacent degree), and one Smith normal form of
the dense 4 x 2 matrix of d_0.  `check_d_squared` on the same one-crossing
cube over a freshly built aps pair loads the cube and has no square to check.

A layer whose wrapper missed a rebinding reads low here instead of silently
reading zero in a workload.  `calibrate` then runs two uncounted jobs, a
`verify` of the frobA group and one diamond case, so that with the three
above every layer is entered; a traced run reports these figures for a
layer its workload never enters.  The counts describe frobpair's call
structure at the commit that defined the benchmark; a change that alters
that structure (for example building `generator_table` once per pair)
changes them, and the run reports the difference in its metadata without
failing.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "frobpair" / "data"

EVAL_TORUS = ["eval", "--pair", str(DATA / "aps.json"), str(DATA / "torus.cob")]
CUBE_SPLIT1 = ["cube", str(DATA / "split1.cube"), "--builtin", "aps", "--coeff", "z"]
VERIFY_FROBA = ["verify", "--builtin", "aps", "--groups", "frobA"]

#: layer -> calls for the three jobs together; every other layer expects 0
EXPECTED_CALLS = {
    "cli.main": 2,
    "pair.build": 3,               # pair_from_json, build_aps twice
    "pair.generator_table": 2,     # one per cobordism.evaluate and per edge_map
    "cobordism.evaluate": 1,
    "tensor.tensor": 8 + 1,
    "tensor.compose": (4 + 2) + (2 + 2),
    "tensor.permutation": 2,
    "cube.load": 2,
    "cube.d_squared": 1,
    "cube.homology": 1,
    "cube.differential": 1,
    "cube.edge_map": 1,
    "cube.rank": 2,
    "cube.snf": 1,
}
EXPECTED_SIZES = {"cube.snf.cells": 8}


def calibrate(tracer, run_cli):
    """Run the jobs under `tracer`; returns (outputs, mismatches)."""
    from frobpair import cobordism, cube, pair

    before = dict(tracer.calls), dict(tracer.sizes)
    outputs = [run_cli(EVAL_TORUS), run_cli(CUBE_SPLIT1),
               cube.check_d_squared(cube.load_cube(DATA / "split1.cube"), pair.build_aps())]
    mismatches = []
    for name in tracer.calls:
        got = tracer.calls[name] - before[0][name]
        want = EXPECTED_CALLS.get(name, 0)
        if got != want and not name.startswith("ring."):
            mismatches.append(f"{name}.calls {got} != {want}")
    for name, want in EXPECTED_SIZES.items():
        got = tracer.sizes[name] - before[1].get(name, 0)
        if got != want:
            mismatches.append(f"{name} {got} != {want}")
    run_cli(VERIFY_FROBA)
    cobordism.diamond_exchange_suite(pair.build_aps(), cobordism.DIAMOND_CASES[:1])
    return outputs, mismatches


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from jobs import run_cli
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        outputs, mismatches = calibrate(tracer, run_cli)
    finally:
        tracer.uninstall()
    if [outputs[0], outputs[1][0], outputs[2]] != [(0, "2\n"), 0, (True, None)]:
        mismatches.append(f"unexpected outputs {outputs}")
    for name in sorted(tracer.calls):
        print(f"{name:24s} {tracer.calls[name]:8d} calls")
    for line in mismatches:
        print(f"MISMATCH {line}")
    print("tracer self-test: " + ("FAILED" if mismatches else "ok"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
