"""sympairs benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk_batch --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The workload runs in its own process with
BLAS threads pinned to 1 and ``src`` on its import path.  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` a separate traced run of the same seed prints the
per-layer metrics.  Each metric is printed as ``name value unit``, and
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with machine metadata, is
written under ``.perfbench_out/``.  Exits non-zero, without a result,
when the package sources are missing or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# set-up is timed in this many fresh processes per run; the median is kept
SETUP_SAMPLES = 5
# every process this run starts must have ended by then
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run one workload process to completion; its last stdout line."""
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", workdir,
           *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the deadline")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "sympairs" / "__init__.py").is_file():
            raise BenchError(f"no package sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        OUT_DIR.mkdir(exist_ok=True)
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = run_worker(common + ["--seconds", "0",
                                             "--setup-only"], deadline)
                setups.append(probe)
        result = run_worker(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        setups.append(result)
        values = dict(result, setup_s=statistics.median(
            p["setup_s"] for p in setups))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload produced no {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = result["raised"] + result["mismatched"]
    summary = {
        "correct": failed == 0,
        "attempted": result["calls"],
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, summary=summary,
                  setup_samples=[{k: p[k] for k in ("setup_s", "setup_raw_s")}
                                 for p in setups])
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print("meta " + json.dumps(result["meta"], sort_keys=True))
    print(f"calls {result['calls']} (call_p50_s samples), "
          f"passes {result['passes']}, records {result['records']}, "
          f"records passed {result['records_passed']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
