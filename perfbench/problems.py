"""Seeded inputs and problem lists for the four benchmark workloads.

Every input is generated here from the workload seed; the package only
ever receives the generated configs, graphs and matrices.  A problem is
one closed-loop call into the package's public entry points
(``cli.main`` or ``suites.run_suite``), looked up on the module at call
time so that the tracer's wrappers are hit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("desk_batch", "chaos_scale", "network_scale", "modular_scale")
# calibration kernel per workload, (python, array, lapack) units (see
# clock.py): roughly how its time splits at the defining commit
KERNEL_MIX = {"desk_batch": (8, 2, 2), "chaos_scale": (10, 1, 1),
              "network_scale": (3, 9, 0), "modular_scale": (0, 0, 12)}

# desk_batch: calls of the one seeded config per pass
DESK_CALLS = 40
# (dim H1, dim H2, linearity) of the seeded pairs; fixed, so that the
# seed changes the entries but not the amount of work
DESK_PAIRS = ((20, 40, "linear"), (40, 20, "conjugate"),
              (30, 30, "linear"), (25, 35, "conjugate"))
# chaos_scale: (d, N); (3, 7) and (4, 5) fail exp_inner_product at the
# seed commit (tolerance equals the tail bound with no rounding slack)
CHAOS_SIZES = ((2, 10), (3, 6), (3, 7), (4, 5))
NETWORK_SIZES = (60, 70, 80, 90)
MODULAR_N = 3
MODULAR_COUNT = 18
T_LIST = [0.5, 1.0, 3.0]


@dataclass(frozen=True)
class Problem:
    """One call: ``run()`` returns the emitted records as dicts."""

    name: str
    kind: str  # key into expected.json
    run: Callable[[], list]


# ---------------------------------------------------------------------------
# generators


def matrix_json(M: np.ndarray, linearity: str) -> dict:
    """Shared matrix JSON format: rows, cols, linearity, [re, im] entries."""
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "linearity": linearity,
        "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)],
    }


def random_pair(rng, n1: int, n2: int, linearity: str) -> dict:
    """Exactly symmetric pair: B is the (tag-aware) adjoint of A."""
    A = rng.normal(size=(n2, n1)) + 1j * rng.normal(size=(n2, n1))
    B = A.conj().T if linearity == "linear" else A.T
    return {"A": matrix_json(A, linearity), "B": matrix_json(B, linearity)}


def random_graph_text(rng, n: int) -> str:
    """Connected graph: random spanning tree plus n/2 chords, c in [0.1, 2]."""
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((i, j, float(rng.uniform(0.1, 2.0))))
    seen = {(x, y) for x, y, _ in edges}
    for _ in range(n // 2):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j or (i, j) in seen or (j, i) in seen:
            continue
        edges.append((i, j, float(rng.uniform(0.1, 2.0))))
        seen.add((i, j))
    lines = [f"{x} {y} {c!r}" for x, y, c in edges]
    return "\n".join(lines + ["origin 0", ""])


def random_rho(rng, n: int) -> list:
    """Full-rank density matrix as nested [re, im] cells."""
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P = M @ M.conj().T + 0.1 * np.eye(n)
    rho = P / np.trace(P).real
    return [[[float(z.real), float(z.imag)] for z in row] for row in rho]


def desk_config(seed: int) -> dict:
    """Bundled default batch plus four seeded pairs (linear, conjugate)."""
    from sympairs import suites

    rng = np.random.default_rng(seed)
    config = suites.default_config()
    for n1, n2, linearity in DESK_PAIRS:
        config["suites"].append(
            {"kind": "pair", "params": random_pair(rng, n1, n2, linearity)}
        )
    return config


# ---------------------------------------------------------------------------
# problem lists


def _records(report) -> list:
    return [
        {"suite": r.suite, "check": r.check, "anchor": r.anchor,
         "pass": r.passed}
        for r in report.records
    ]


def suite_problem(name: str, kind: str, entry: dict) -> Problem:
    from sympairs import suites

    config = {"suites": [entry]}
    return Problem(name, kind, lambda: _records(suites.run_suite(config)))


def desk_problem(name: str, cfg_path: str, out_path: str) -> Problem:
    from sympairs import cli

    argv = ["run", "-c", cfg_path, "-o", out_path]

    def run():
        code = cli.main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"sympairs run exited with code {code}")
        with open(out_path, encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        if (code == 0) != all(r["pass"] for r in records):
            raise RuntimeError(f"exit code {code} disagrees with the records")
        return records

    return Problem(name, "desk", run)


def write_desk_config(seed: int, workdir: str) -> tuple:
    """Write the seeded desk config; returns (config path, report path)."""
    cfg_path = os.path.join(workdir, "desk.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(desk_config(seed), fh)
    return cfg_path, os.path.join(workdir, "desk-report.json")


def build(workload: str, seed: int, workdir: str) -> list:
    """The workload's problem list, generated from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "desk_batch":
        cfg, out = write_desk_config(seed, workdir)
        problem = desk_problem("desk", cfg, out)
        return [problem] * DESK_CALLS
    if workload == "chaos_scale":
        # the suite has no random input; the seed fixes the call order
        order = rng.permutation(len(CHAOS_SIZES))
        return [
            suite_problem(f"malliavin d={d} N={N}", "malliavin",
                          {"kind": "malliavin", "params": {"d": d, "N": N}})
            for d, N in (CHAOS_SIZES[i] for i in order)
        ]
    if workload == "network_scale":
        return [
            suite_problem(f"network v={n}", "network",
                          {"kind": "network",
                           "params": {"graph": random_graph_text(rng, n)}})
            for n in NETWORK_SIZES
        ]
    if workload == "modular_scale":
        return [
            suite_problem(f"modular n={MODULAR_N} #{i}", "modular",
                          {"kind": "modular",
                           "params": {"n": MODULAR_N,
                                      "rho": random_rho(rng, MODULAR_N),
                                      "t_list": T_LIST}})
            for i in range(MODULAR_COUNT)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def sweep_points(seed: int) -> list:
    """Size sweep of the traced run: (suite, size, run_suite entry).

    Sizes are the dimension each suite works in: chaos basis length,
    vertex count, standard-form dimension n^2, and pair size n.
    """
    from math import comb

    rng = np.random.default_rng([seed, 1])
    points = []
    for N in (6, 7, 8):
        points.append(("malliavin", comb(N + 3, 3),
                       {"kind": "malliavin", "params": {"d": 3, "N": N}}))
    for n in (40, 60, 80, 100):
        points.append(("network", n,
                       {"kind": "network",
                        "params": {"graph": random_graph_text(rng, n)}}))
    for n in (2, 3, 4):
        points.append(("modular", n * n,
                       {"kind": "modular",
                        "params": {"n": n, "rho": random_rho(rng, n),
                                   "t_list": T_LIST}}))
    for n in (50, 100, 150):
        points.append(("pair", n,
                       {"kind": "pair",
                        "params": random_pair(rng, n, n, "linear")}))
    return points
