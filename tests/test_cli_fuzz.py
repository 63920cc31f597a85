"""Fuzz the command line: every input exits 0, 1 or 2, never a traceback.

Draws cover ``check <kind>`` argv and ``run -c`` batch entries of every
kind, with malformed, non-finite and wrong-typed values.  Sizes are
either small enough to run in milliseconds or far past a guard; an
oversized draw runs with the expensive builders patched to fail, so it
passes only through a refusal made before any work or allocation.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sympairs import chaos, cli, modular, network

NAN, INF = float("nan"), float("inf")
# values a JSON field might hold by mistake (1e308 as a size is refused;
# 10**400 is an integer past the float range)
JUNK = st.sampled_from([None, True, "x", "3", [], {}, [1], 2.5, -1, 0,
                        NAN, INF, -INF, 1e308, 10**400])
SMALL_FLOAT = st.sampled_from([2.0, 1.0, 0.5, 3.0, 0.0, -1.0, 1e-300, 1e300,
                               NAN, INF])
TOL_TEXT = st.sampled_from(["1e-10", "0", "1e-3", "-1", "nan", "inf", "abc"])
# (suite, sizes) far past a guard; each must be refused before any work
OVERSIZED = st.sampled_from([
    ("malliavin", {"d": 3, "N": 100}),  # 146 TB of Eq 3.14 terms
    ("malliavin", {"d": 10, "N": 8}),  # 0.948 GiB
    ("malliavin", {"d": 1, "N": 400}),  # (N+1)! overflows
    ("malliavin", {"d": 10**6, "N": 2}),
    ("malliavin", {"d": 2, "N": 10**9}),
    ("modular", {"n": 9}),  # 1.33 GiB
    ("modular", {"n": 10**9}),
    ("defect", {"rule": "constant", "r": 1.0, "nmax": 10**7}),  # 0.82 GiB
    ("defect", {"rule": "geometric", "r": 1.0, "nmax": 10**18}),
    ("defect", {"rule": "geometric", "r": 2.0, "nmax": 10**9}),
])


def refuse(*args, **kwargs):
    raise AssertionError("work started before the size was refused")


#: what an oversized problem must never reach; ``_rank`` places the
#: multi-indices of a basis that passed ChaosBasis's size guards
EXPENSIVE = ((chaos, "_rank"),
             (modular, "commutant"),
             (network.ConductanceSequence, "c"))


@st.composite
def matrices(draw):
    """Matrix JSON: well formed or broken in shape, cells or type."""
    if draw(st.booleans()):
        return draw(JUNK)
    rows = draw(st.sampled_from([1, 2, 3, 0, -1, 10**9]))
    cols = draw(st.sampled_from([1, 2, 3, 0, 10**9]))
    count = draw(st.sampled_from([rows * cols, 1, 0, 4]))
    count = min(max(count, 0), 9)
    cell = st.one_of(
        st.tuples(SMALL_FLOAT, SMALL_FLOAT).map(list), JUNK,
        st.lists(SMALL_FLOAT, max_size=3))
    obj = {"rows": rows, "cols": cols,
           "linearity": draw(st.sampled_from(["Linear", "ConjugateLinear",
                                              "bogus", None])),
           "entries": draw(st.lists(cell, min_size=count, max_size=count))}
    for key in draw(st.sets(st.sampled_from(list(obj)), max_size=1)):
        del obj[key]
    return json.dumps(obj) if draw(st.booleans()) else obj


@st.composite
def rho_rows(draw):
    """Density-matrix JSON rows of size 1..3, good, singular or broken."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["diag", "random", "junk", "ragged"]))
    if kind == "junk":
        return draw(JUNK)
    if kind == "diag":
        w = draw(st.lists(SMALL_FLOAT, min_size=n, max_size=n))
        return [[w[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    pair = st.tuples(SMALL_FLOAT, SMALL_FLOAT).map(list)
    cell = st.one_of(SMALL_FLOAT, pair)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if kind == "ragged":
        rows[-1] = rows[-1][:-1]
    return rows


@st.composite
def graph_text(draw):
    """Edge-list text on at most five vertices, with malformed lines."""
    name = st.sampled_from("abcde")
    cond = st.sampled_from(["1", "2.5", "0", "-1", "nan", "inf", "1e308",
                            "1e-308", "abc"])
    edge = st.builds(lambda x, y, c: f"{x} {y} {c}", name, name, cond)
    junk = st.sampled_from(["", "a", "a b", "a b 1 2", "origin", "origin z",
                            "# note", "origin a b"])
    lines = draw(st.lists(st.one_of(edge, edge, junk,
                                    name.map(lambda x: f"origin {x}")),
                          max_size=8))
    return "\n".join(lines) + "\n"


def params_for(kind, draw):
    """Batch params for one suite kind; sizes stay small."""
    if kind == "pair":
        params = {"A": draw(matrices()), "B": draw(matrices())}
        if draw(st.booleans()):
            params["tol"] = draw(st.one_of(JUNK, SMALL_FLOAT))
    elif kind == "malliavin":
        params = {"d": draw(st.one_of(st.integers(-1, 3), JUNK)),
                  "N": draw(st.one_of(st.integers(-1, 5), JUNK))}
    elif kind == "modular":
        params = {"n": draw(st.one_of(st.integers(-1, 3), JUNK)),
                  "rho": draw(st.one_of(st.just("tracial"), rho_rows())),
                  "t_list": draw(st.one_of(st.lists(SMALL_FLOAT, max_size=3),
                                           JUNK))}
    elif kind == "network":
        params = {"graph": draw(st.one_of(graph_text(), JUNK))}
    else:
        params = {"rule": draw(st.sampled_from(["geometric", "constant",
                                                "bogus"])),
                  "r": draw(st.one_of(SMALL_FLOAT, JUNK)),
                  "nmax": draw(st.one_of(st.integers(-1, 300), JUNK)),
                  "expect": draw(st.sampled_from([None, "CONVERGES",
                                                  "DIVERGES", "maybe"]))}
    for key in draw(st.sets(st.sampled_from(list(params)), max_size=1)):
        del params[key]
    return params


KINDS = ("pair", "malliavin", "modular", "network", "defect")


@st.composite
def batch_entries(draw):
    kind = draw(st.sampled_from(KINDS + ("bogus",)))
    entry = {"kind": kind,
             "params": params_for(kind if kind in KINDS else "pair", draw)}
    if draw(st.booleans()):
        entry["tol"] = draw(st.one_of(SMALL_FLOAT, JUNK))
    return entry


@st.composite
def cli_cases(draw):
    """(argv, files to write, oversized): one ``check`` or ``run`` call."""
    files = {}
    if draw(st.booleans()):
        oversized = draw(st.booleans())
        if oversized:
            kind, params = draw(OVERSIZED)
            entries = [{"kind": kind, "params": params}]
        else:
            entries = draw(st.lists(batch_entries(), min_size=1, max_size=3))
        files["cfg.json"] = {"suites": entries}
        argv = ["run", "-c", "cfg.json"]
        if not oversized and draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["json", "csv",
                                                       "human", "xml"]))]
        return argv, files, oversized
    kind = draw(st.sampled_from(KINDS))
    oversized = kind in ("malliavin", "modular", "defect") and draw(
        st.booleans())
    if oversized:
        _, params = draw(OVERSIZED.filter(lambda o: o[0] == kind))
    else:
        params = params_for(kind, draw)
    argv = ["check", kind]
    if kind == "pair":
        files["pair.json"] = params
        argv += ["-i", "pair.json"]
    elif kind == "malliavin":
        argv += [f"--{k}={v}" for k, v in params.items()]
    elif kind == "modular":
        if "rho" in params and params["rho"] != "tracial":
            files["rho.json"] = params["rho"]
            argv += ["--rho", "rho.json"]
        if "n" in params:
            argv.append(f"--n={params['n']}")
        if isinstance(params.get("t_list"), list):
            argv.append("--t=" + ",".join(map(str, params["t_list"])))
    elif kind == "network":
        graph = params.get("graph")
        files["graph.txt"] = graph if isinstance(graph, str) else ""
        argv += ["-g", "graph.txt"]
    else:
        argv += [f"--{k}={v}" for k, v in params.items() if v is not None]
    if draw(st.booleans()):
        argv.append(f"--tol={draw(TOL_TEXT)}")
    return argv, files, oversized


def run_cli(argv, files, oversized):
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(content if isinstance(content, str)
                         else json.dumps(content))
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            mp.delenv("SYMPAIR_TOL", raising=False)
            if oversized:
                for owner, name in EXPENSIVE:
                    mp.setattr(owner, name, refuse)
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
# tolerance scales past the float range: n max|K| and max c(x) max|K|
@example(case=(["run", "-c", "cfg.json"], {"cfg.json": {"suites": [
    {"kind": "network", "params": {"graph": "a b 1e-308\n"}},
    {"kind": "network", "params": {"graph": "a b 1e300\nb c 1e-300\n"}},
]}}, False))
def test_cli_never_tracebacks(case):
    argv, files, oversized = case
    code, out, err = run_cli(argv, files, oversized)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err and "Traceback" not in out
    if code == 2 and err.startswith("error:"):
        assert err.count("\n") == 1, err  # one-line refusal
    if code in (0, 1) and argv[0] == "run" and "--format" not in argv:
        records = json.loads(out)["records"]
        assert (code == 0) == all(r["pass"] for r in records)
    if oversized and argv[0] == "run":
        # a refused batch entry is one failed suite_error record
        assert code == 1
        assert [r["check"] for r in json.loads(out)["records"]] == [
            "suite_error"]
    elif oversized:
        assert code == 2, (argv, err)
