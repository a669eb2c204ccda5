"""Pin the reference outputs that checks.py compares against.

    python3 perfbench/pin_reference.py

Runs one checked pass of every workload at the reference seed and writes
what it observed to reference.json.  Re-pin only when a change to the
outputs is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.proc import Launcher  # noqa: E402  (standard library only)
from perfbench.run import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    src = ROOT / "src"
    work = ROOT / ".perfbench" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    pinned = {}
    with Launcher(src) as launcher:
        sys.path.insert(0, str(src))
        from perfbench import checks, pipeline, workloads

        try:
            for name in WORKLOADS:
                inputs = workloads.generate(name, REFERENCE_SEED, work / "inputs", src)
                runs, _ = pipeline.child_pass(launcher, inputs, work)
                checker = checks.Checker()
                seen = checks.check_pass(checker, inputs, runs, work, None, None)
                checks.check_oracle_prefix(checker, inputs, work)
                if checker.failures:
                    print(f"{name}: not pinned, checks failed: {checker.failures}",
                          file=sys.stderr)
                    return 1
                pinned[name] = {k: v for k, v in seen.items() if k != "outputs_digest"}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(
        json.dumps({"seed": REFERENCE_SEED, "workloads": pinned}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
