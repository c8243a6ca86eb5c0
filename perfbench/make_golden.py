#!/usr/bin/env python3
"""Write ``perfbench/golden.json``: SHA-256 digests of every benchmark output at
the trace generator's default seed, and of the seven shipped synthetic
scenarios' reports and event logs.

Run from the repository root:  python3 perfbench/make_golden.py

Only rerun it for a change that is meant to alter provsim's outputs, and say
in CHANGES.md why the digests moved.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    import checks
    import inputs
    import run
    import workloads

    work = HERE / ".work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    golden = {"seed": inputs.DEFAULT_SEED}
    try:
        for name in workloads.WORKLOADS:
            plan = workloads.prepare(name, inputs.DEFAULT_SEED, work / name / "inputs")
            out, ref = work / name / "out", work / name / "ref"
            run.execute_subprocess(plan.reference(ref), work / "proc")
            run.execute_subprocess(plan.timed(out, workloads.sweep_workers()), work / "proc")
            reference = checks.digests(ref) if ref.is_dir() else {}
            golden[name] = {**reference, **checks.digests(out)}
        run.execute_subprocess(checks.shipped_commands(work / "shipped"), work / "proc")
        golden["shipped"] = checks.digests(work / "shipped")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
