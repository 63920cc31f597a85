"""Record the (suite, check, anchor) list each problem kind yields.

Writes ``expected.json`` next to this file.  Run it once, at the commit
that defines the benchmark, from the repository root:

    PYTHONPATH=src python3 perfbench/record_expected.py

The benchmark then compares every call's record list against this file,
so a later change that drops, adds or renames a check shows up as a
wrong output rather than as a speed-up.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import problems

HERE = Path(__file__).resolve().parent
SEED = 0


def main() -> int:
    keys = {}
    failures = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for workload in problems.WORKLOADS:
            for prob in problems.build(workload, SEED, workdir):
                records = prob.run()
                got = [[r["suite"], r["check"], r["anchor"]] for r in records]
                if keys.setdefault(prob.kind, got) != got:
                    raise SystemExit(f"{prob.name}: record list differs "
                                     f"from other {prob.kind} problems")
                failed = [r["check"] for r in records if not r["pass"]]
                if failed:
                    failures[prob.name] = failed
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                            capture_output=True, text=True).stdout.strip()
    out = {
        "commit": commit,
        "seed": SEED,
        "records": keys,
        "failures_at_commit": failures,
    }
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
