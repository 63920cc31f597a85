"""Command-line front door for the verification suites.

Exit code contract: 0 when every check passes, 1 when any check fails,
2 for configuration or usage errors.  ``check <kind>`` runs exactly what
a one-entry batch of that kind runs (``suites.run_entry``).  Tolerance
precedence, the same for both commands: ``--tol`` or an entry's ``tol``,
then the environment variable SYMPAIR_TOL, then a pair file's ``tol``,
then DEFAULT_TOL.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import network, suites
from .core import parse_tol
from .report import FORMATS, Report, emit


class UsageError(ValueError):  # one of suites.ENTRY_ERRORS
    pass


def _env_tol() -> float | None:
    raw = os.environ.get("SYMPAIR_TOL")
    return None if raw is None else parse_tol(raw, "SYMPAIR_TOL")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_json(path: str):
    try:
        return json.loads(_read_file(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="sympairs",
        description="Residual checks for symmetric operator pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one suite from the command line")
    kinds = check.add_subparsers(dest="kind", required=True)

    p = kinds.add_parser("pair", help="verify a pair given as matrix JSON")
    p.add_argument("-i", "--input", required=True, metavar="pair.json")
    p.set_defaults(params=lambda a: _load_json(a.input))

    p = kinds.add_parser("malliavin", help="derivative/divergence suite")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", type=int, default=6)
    p.set_defaults(params=lambda a: {"d": a.d, "N": a.N})

    p = kinds.add_parser("modular", help="modular-theory suite")
    # argparse takes an argument that starts with a minus sign for an option
    # unless it matches this pattern, by default a lone number, so "--t
    # -1,0.5" failed; here "-" before a digit or ".digit" starts a value.
    # The attribute is private; Python 3.10 and 3.11 read it alike.
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("--rho", metavar="rho.json",
                   help="density matrix file (default: tracial)")
    p.add_argument("--n", type=int, default=2,
                   help="matrix size when --rho is omitted")
    p.add_argument("--t", default="0.5,1",
                   help="comma-separated modular flow times")
    p.set_defaults(params=lambda a: {
        **({"rho": _load_json(a.rho)} if a.rho is not None else {"n": a.n}),
        "t_list": [t for t in a.t.split(",") if t.strip()]})

    p = kinds.add_parser("network", help="finite-network identity suite")
    p.add_argument("-g", "--graph", required=True, metavar="graph.txt")
    p.set_defaults(params=lambda a: {"graph": _read_file(a.graph)})

    # only the flags given are passed on: run_entry holds the defaults
    p = kinds.add_parser("defect", help="half-line defect recurrence")
    p.add_argument("--rule", choices=("geometric", "constant"))
    p.add_argument("--r", type=float)
    p.add_argument("--nmax", type=int)
    p.add_argument("--expect", choices=(network.CONVERGES, network.DIVERGES),
                   help="fail unless the verdict matches")
    p.set_defaults(params=lambda a: {
        key: getattr(a, key) for key in ("rule", "r", "nmax", "expect")
        if getattr(a, key) is not None})

    for sp in kinds.choices.values():
        sp.add_argument("--format", choices=FORMATS, default="human")
        sp.add_argument("-o", "--output", metavar="FILE")
        sp.add_argument("--tol", type=float)

    p = sub.add_parser("run", help="run a batch suite config")
    p.add_argument("-c", "--config", required=True, metavar="suite.json",
                   help="config file, or 'default' for the bundled batch")
    p.add_argument("-o", "--output", metavar="report.json")
    p.add_argument("--format", choices=FORMATS, default="json")
    return parser


def _deliver(report: Report, fmt: str, output: str | None) -> int:
    text = emit(report, fmt)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return 0 if report.all_passed else 1


def _validate_config(config) -> dict:
    """``config``, once its shape and every entry pass, before any runs."""
    for entry in suites.config_entries(config):
        suites.check_entry(entry)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        if args.command == "check":
            tol = parse_tol(args.tol, "--tol") if args.tol is not None \
                else _env_tol()
            start = time.perf_counter()
            report = Report(suites.run_entry(args.kind, args.params(args),
                                             tol))
            report.wall_time = time.perf_counter() - start
        else:
            raw = suites.default_config() if args.config == "default" \
                else _load_json(args.config)
            config = _validate_config(raw)
            # graph params may point at files; inline them before dispatch
            for entry in config.get("suites", []):
                params = entry.get("params", {})
                if entry["kind"] == "network" and "graph_file" in params:
                    params["graph"] = _read_file(params["graph_file"])
            report = suites.run_suite(config, _env_tol())
        return _deliver(report, args.format, args.output)
    except suites.ENTRY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
