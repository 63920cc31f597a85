"""One workload process: set up, run closed-loop passes, verify, measure.

Started by ``run.py`` with BLAS threads pinned to 1 in its environment.
Set-up time runs from the first line of this script (before numpy and
sympairs are imported) to the first timed call.  A pass is the
workload's whole problem list, submitted one call at a time, each call
after the previous one returned.  Prints one JSON object on its last
stdout line.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import sympairs  # noqa: E402,F401
import clock  # noqa: E402
import problems  # noqa: E402
import tracer  # noqa: E402
from run import THREAD_VARS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# layers whose growth exponent each sweep reports, besides the total
SWEEP_LAYERS = {
    "malliavin": ("chaos", "pairs"),
    "network": ("network",),
    "modular": ("modular", "core"),
    "pair": ("pairs", "core"),
}


class Tally:
    """Calls attempted and failed, and identity records passed."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.calls = 0
        self.raised = 0
        self.mismatched = 0
        self.records = 0
        self.passed = 0

    def add(self, kind: str, records):
        """Count one call; ``records`` is None when the call raised."""
        want = self.expected[kind]
        self.calls += 1
        if records is None:
            self.raised += 1
            self.records += len(want)
            return
        got = [[r["suite"], r["check"], r["anchor"]] for r in records]
        if got != want:
            self.mismatched += 1
        self.records += len(records)
        self.passed += sum(1 for r in records if r["pass"])


def run_pass(batch, tally: Tally, clk: clock.Clock) -> list:
    """Run the problems in order; (raw, reference) seconds per call."""
    times = []
    for prob in batch:
        t0 = time.perf_counter()
        try:
            records = prob.run()
        except Exception:  # a raising call is a failed check, not a stop
            records = None
            if tally.raised < 3:
                print(f"{prob.name} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
        tally.add(prob.kind, records)
        raw = time.perf_counter() - t0
        times.append((raw, clk.scale(raw)))
    return times


def run_loop(batch, seconds, tally, clk, after_pass=None) -> list:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(batch, tally, clk))
        if after_pass is not None:
            after_pass(passes[-1])
        if time.perf_counter() >= deadline:
            return passes


def pass_wall(times) -> float:
    """Reference seconds for a whole pass: the sum over its calls."""
    return sum(ref for _, ref in times)


def position_medians(passes, skip: int = 0) -> list:
    """Per position in the batch, the median reference time over passes."""
    columns = zip(*([ref for _, ref in times[skip:]] for times in passes))
    return [statistics.median(col) for col in columns]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sympairs").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def growth_exponent(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def run_sweep(tr: tracer.Tracer, seed: int, clk: clock.Clock) -> tuple:
    """Traced size sweep; growth exponent per layer, largest-size wall."""
    from sympairs import suites

    points = {}
    metrics = {}
    for suite, size, entry in problems.sweep_points(seed):
        before = tr.snapshot()
        t0 = time.perf_counter()
        suites.run_suite({"suites": [entry]})
        raw = time.perf_counter() - t0
        wall = clk.scale(raw)
        layers = tracer.layer_self(tracer.delta(tr.snapshot(), before))
        layers = {k: v * wall / raw for k, v in layers.items()}
        points.setdefault(suite, []).append((size, wall, layers))
        if suite == "modular":
            # n = 4 is the largest and last modular point, so the
            # process high-water mark after it is its commutant peak
            metrics["sweep.modular.peak_rss_mb"] = peak_rss_mb()
    for suite, pts in points.items():
        sizes = [p[0] for p in pts]
        metrics[f"sweep.{suite}.top_wall_s"] = pts[-1][1]
        metrics[f"sweep.{suite}.total.exponent"] = growth_exponent(
            sizes, [p[1] for p in pts])
        for layer in SWEEP_LAYERS[suite]:
            metrics[f"sweep.{suite}.{layer}.exponent"] = growth_exponent(
                sizes, [p[2][layer] for p in pts])
    detail = {
        suite: [{"size": s, "wall_s": w, "layer_self_s": ls}
                for s, w, ls in pts]
        for suite, pts in points.items()
    }
    return metrics, detail


def traced_phase(batch, seconds, seed, workdir, tally, clk, untraced_wall):
    """Per-layer metrics, per pass, from a traced run of the same batch.

    Each traced pass starts with one desk-batch call, which reaches every
    layer, so no per-layer timer is structurally zero on any workload;
    its time is taken out of the pass wall before the overhead is
    computed.  Self times are scaled to reference seconds with their
    pass's ratio of reference to raw time.
    """
    cfg, out = problems.write_desk_config(seed, workdir)
    probe = problems.desk_problem("desk probe", cfg, out)
    tr = tracer.Tracer()
    tr.install()
    per_pass = []
    mark = [tr.snapshot()]

    def after_pass(times):
        now = tr.snapshot()
        factor = pass_wall(times) / sum(raw for raw, _ in times)
        per_pass.append({
            name: (calls, self_s * factor)
            for name, (calls, self_s) in tracer.delta(now, mark[0]).items()
        })
        mark[0] = now

    try:
        passes = run_loop([probe] + batch, seconds, tally, clk, after_pass)
        sweep_metrics, sweep_detail = run_sweep(tr, seed, clk)
    finally:
        tr.uninstall()

    metrics = {}
    for name in per_pass[0]:
        metrics[f"{name}.calls"] = statistics.median_low(
            p[name][0] for p in per_pass)
        metrics[f"{name}.self_s"] = statistics.median(
            p[name][1] for p in per_pass)
    layer_passes = [tracer.layer_self(p) for p in per_pass]
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            lp[layer] for lp in layer_passes)
    metrics["trace.overhead_s"] = (sum(position_medians(passes, skip=1))
                                   - untraced_wall)
    metrics.update(sweep_metrics)
    full_wall = statistics.median(pass_wall(times) for times in passes)
    detail = {
        "traced_pass_walls_s": [pass_wall(t) for t in passes],
        "layer_share_of_pass": {
            layer: metrics[f"{layer}.self_s"] / full_wall
            for layer in tracer.LAYERS
        },
        "links": sorted(([p, c, n] for (p, c), n in tr.links.items()),
                        key=lambda x: -x[2]),
        "sweep": sweep_detail,
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)["records"]
    batch = problems.build(args.workload, args.seed, args.workdir)
    setup_raw = time.perf_counter() - T_START
    clk = clock.Clock(problems.KERNEL_MIX[args.workload])
    setup_s = clk.scale_now(setup_raw)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    tally = Tally(expected)
    # a traced run splits its time: half untraced, half traced
    phase_s = args.seconds / 2 if args.trace else args.seconds
    passes = run_loop(batch, phase_s, tally, clk)
    # each problem's median over passes: a slow phase of the host that
    # hits one call of a pass does not move the whole pass
    per_position = position_medians(passes)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": sum(per_position),
        "call_p50_s": statistics.median(per_position),
        "passes": len(passes),
        "pass_walls_s": [pass_wall(t) for t in passes],
        "call_times_s": [[ref for _, ref in t] for t in passes],
        "raw_pass_walls_s": [sum(raw for raw, _ in t) for t in passes],
        "peak_rss_mb": peak_rss_mb(),
        "kernel_mix": problems.KERNEL_MIX[args.workload],
        "kernel_s": [k for _, k in clk.samples],
    }
    if args.trace:
        layer_metrics, detail = traced_phase(
            batch, phase_s, args.seed, args.workdir, tally, clk,
            result["wall_s"])
        result["per_layer"] = layer_metrics
        result["trace_detail"] = detail
    result.update(
        pass_frac=tally.passed / tally.records if tally.records else 0.0,
        calls=tally.calls,
        raised=tally.raised,
        mismatched=tally.mismatched,
        records=tally.records,
        records_passed=tally.passed,
        meta=metadata(args.seed),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
