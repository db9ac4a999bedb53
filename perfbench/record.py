"""Record the exit code and stdout digest of every fixed job.

    python3 perfbench/record.py

Writes perfbench/expected.json, which run.py checks each fixed job against.
Re-record only when a change to frobpair is meant to change an output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jobs as jobs_mod  # noqa: E402


def main() -> int:
    recorded = {}
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for build in jobs_mod.WORKLOADS.values():
            for job in build(0, ROOT, Path(tmp), {}).jobs:
                if job.fixed:
                    code, stdout = job.run()
                    recorded[job.name] = [code, jobs_mod.digest(stdout)]
    with open(jobs_mod.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} jobs in {jobs_mod.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
