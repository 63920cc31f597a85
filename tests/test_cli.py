import json
import warnings

import numpy as np
import pytest

from sympairs import cli, suites
from sympairs.core import OperatorMatrix
from sympairs.report import Record, Report, emit, make_record
from sympairs.suites import run_suite


def write_pair_file(path, value_a=1.0, value_b=1.0, tol=1e-8):
    obj = {
        "A": OperatorMatrix(np.array([[value_a]])).to_json(),
        "B": OperatorMatrix(np.array([[value_b]])).to_json(),
        "tol": tol,
    }
    path.write_text(json.dumps(obj))


def test_emit_empty_report():
    out = emit(Report(), "json")
    obj = json.loads(out)
    assert obj["records"] == []
    assert obj["summary"]["total"] == 0


def test_emit_csv_failing_record():
    rep = Report()
    rep.records.append(make_record("pair", "identity", "x", 1.0, 1e-10))
    lines = emit(rep, "csv").splitlines()
    assert lines[0] == "suite,check,anchor,residual,tol,pass"
    assert len(lines) == 2
    assert lines[1].endswith("false")


def test_emit_json_round_trip():
    rep = Report(wall_time=0.25)
    rep.records.append(make_record("pair", "identity", "x", 3e-12, 1e-10))
    rep.records.append(make_record("net", "kernel", "y", 2.0, 1e-10,
                                   message="note"))
    back = Report.from_dict(json.loads(emit(rep, "json")))
    assert back.records == rep.records


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(Report(), "xml")


def test_check_pair_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_pair_file(good)
    assert cli.main(["check", "pair", "-i", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    write_pair_file(bad, value_b=2.0)
    assert cli.main(["check", "pair", "-i", str(bad)]) == 1
    capsys.readouterr()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["check", "pair", "-i", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["check", "bogus"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["check", "malliavin", "--d", "0"]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["check", "pair", "-i", str(garbled)]) == 2
    capsys.readouterr()


def test_malliavin_oversized_N_refused(capsys):
    # refused in ChaosBasis before any basis is enumerated
    assert cli.main(["check", "malliavin", "--d", "1", "--N", "400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sympair_tol_env(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good.json"
    write_pair_file(good)
    monkeypatch.setenv("SYMPAIR_TOL", "not-a-number")
    assert cli.main(["check", "pair", "-i", str(good)]) == 2
    monkeypatch.setenv("SYMPAIR_TOL", "-1")
    assert cli.main(["check", "pair", "-i", str(good)]) == 2
    monkeypatch.setenv("SYMPAIR_TOL", "1e-6")
    assert cli.main(["check", "pair", "-i", str(good)]) == 0
    capsys.readouterr()


def test_run_default_config(capsys):
    assert cli.main(["run", "-c", "default", "--format", "json"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out.strip())
    assert obj["summary"]["failed"] == 0
    assert obj["summary"]["total"] > 20


def test_run_empty_suites(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"suites": []}))
    assert cli.main(["run", "-c", str(cfg)]) == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["summary"]["total"] == 0


def test_run_tol_zero_fails_checks(tmp_path, capsys):
    cfg = tmp_path / "strict.json"
    cfg.write_text(json.dumps({
        "suites": [
            {"kind": "malliavin", "tol": 0.0, "params": {"d": 1, "N": 4}}
        ]
    }))
    assert cli.main(["run", "-c", str(cfg)]) == 1
    capsys.readouterr()
    # negative tol is a config error, not a check failure
    cfg.write_text(json.dumps({
        "suites": [
            {"kind": "malliavin", "tol": -1.0, "params": {"d": 1, "N": 4}}
        ]
    }))
    assert cli.main(["run", "-c", str(cfg)]) == 2
    capsys.readouterr()


def test_run_output_file_and_byte_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suites": [
            {"kind": "defect",
             "params": {"rule": "geometric", "r": 2.0, "nmax": 80,
                        "expect": "CONVERGES"}},
        ]
    }))
    for config in (str(cfg), "default"):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert cli.main(["run", "-c", config, "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        # the canonical report holds no timing, so reruns match byte for byte
        assert outs[0] == outs[1]
        assert "wall_time" not in json.loads(outs[0])["summary"]


def test_run_suite_error_becomes_failed_record():
    rep = run_suite({"suites": [{"kind": "network",
                                 "params": {"graph": "a a 1\n"}}]})
    assert rep.total == 1
    assert not rep.all_passed
    assert rep.records[0].check == "suite_error"


def test_run_suite_bad_kind_rejected_by_cli(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suites": [{"kind": "bogus"}]}))
    assert cli.main(["run", "-c", str(cfg)]) == 2
    capsys.readouterr()


def test_check_defect_expect_mismatch(capsys):
    code = cli.main([
        "check", "defect", "--rule", "geometric", "--r", "2",
        "--expect", "DIVERGES",
    ])
    assert code == 1
    capsys.readouterr()


def test_check_modular_and_network_subcommands(tmp_path, capsys):
    assert cli.main(["check", "modular", "--n", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "suite,check,anchor,residual,tol,pass"
    graph = tmp_path / "g.txt"
    graph.write_text("a b 1\nb c 1\norigin a\n")
    assert cli.main(["check", "network", "-g", str(graph),
                     "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_default_config_is_valid():
    cfg = suites.default_config()
    assert cli._validate_config(cfg) is cfg
    rep = run_suite(cfg)
    assert rep.all_passed


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_math_domain_errors_exit_2(tmp_path, capsys):
    graph = tmp_path / "split.txt"
    graph.write_text("a b 1\nc d 1\n")
    for argv in (["check", "network", "-g", str(graph)],  # NetworkError
                 ["check", "defect", "--nmax", "2"],  # NetworkError
                 ["check", "modular", "--n", "0"]):  # ModularError
        assert cli.main(argv) == 2
        assert_one_line_error(capsys)


def test_defect_overflow_no_traceback(tmp_path, capsys):
    assert cli.main(["check", "defect", "--nmax", "2000"]) == 2
    assert_one_line_error(capsys)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({
        "suites": [{"kind": "defect", "params": {"nmax": 2000}}]
    }))
    assert cli.main(["run", "-c", str(cfg)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [r["check"] for r in out["records"]] == ["suite_error"]


@pytest.mark.parametrize("entry", [
    {"kind": "malliavin", "params": {"d": None, "N": 4}},
    {"kind": "defect", "params": {"nmax": [80]}},
    {"kind": "defect", "params": {"r": "abc"}},
    {"kind": "malliavin", "params": [2, 4]},
    {"kind": "network", "params": {"graph": None}},
    {"kind": "malliavin", "tol": "abc", "params": {"d": 1, "N": 4}},
    {"kind": "malliavin", "tol": None, "params": {"d": 1, "N": 4}},
    {"kind": "malliavin", "tol": float("nan"), "params": {"d": 1, "N": 4}},
    {"kind": "defect", "params": {"expect": 5}},
    {"kind": "defect", "params": {"expect": "converges"}},
])
def test_bad_batch_config_exit_2(tmp_path, capsys, entry):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suites": [entry]}))
    assert cli.main(["run", "-c", str(cfg)]) == 2
    assert_one_line_error(capsys)


def test_non_finite_tol_refused(capsys, monkeypatch):
    for raw in ("nan", "inf"):
        assert cli.main(["check", "defect", "--tol", raw]) == 2
        assert_one_line_error(capsys)
        monkeypatch.setenv("SYMPAIR_TOL", raw)
        assert cli.main(["check", "defect"]) == 2
        assert_one_line_error(capsys)
        assert cli.main(["run", "-c", "default"]) == 2
        assert_one_line_error(capsys)
        monkeypatch.delenv("SYMPAIR_TOL")


UNIT = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}


@pytest.mark.parametrize("kind,params", [
    ("pair", {"A": None, "B": UNIT}),
    ("pair", {"A": [1], "B": UNIT}),
    ("pair", {"A": UNIT, "B": UNIT, "tol": None}),
    ("pair", {"A": UNIT}),
    ("pair", {"A": {"rows": 0, "cols": 0, "entries": []},
              "B": {"rows": 0, "cols": 0, "entries": []}}),
    ("modular", {"n": 2, "rho": None}),
    ("modular", {"n": 2, "rho": 1.5}),
    ("modular", {"n": 2, "rho": [[0.5, 0.0], [0.5]]}),  # ragged
    ("modular", {"n": 2, "rho": [[0.5, 0.1], [0.0, 0.5]]}),  # not Hermitian
    ("modular", {"n": 2, "t_list": 1.5}),
    ("modular", {"n": 6}),  # oversized: refused before any work
])
def test_malformed_json_no_traceback(tmp_path, capsys, kind, params):
    # run: one failed suite_error record, exit 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suites": [{"kind": kind, "params": params}]}))
    assert cli.main(["run", "-c", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    records = json.loads(captured.out)["records"]
    assert [(r["check"], r["pass"]) for r in records] == [
        ("suite_error", False)]
    # check: the same input is a usage error, exit 2 with one line
    path = tmp_path / "in.json"
    if kind == "pair":
        path.write_text(json.dumps(params))
        argv = ["check", "pair", "-i", str(path)]
    elif "rho" in params:
        path.write_text(json.dumps(params["rho"]))
        argv = ["check", "modular", "--rho", str(path)]
    elif "t_list" in params:
        return  # check takes --t as text, parsed by the CLI itself
    else:
        argv = ["check", "modular", "--n", str(params["n"])]
    assert cli.main(argv) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("kind,params,missing", [
    ("malliavin", {"d": 2}, "N"),
    ("malliavin", {"N": 4}, "d"),
    ("modular", {"rho": "tracial"}, "n"),
    ("network", {}, "graph"),
])
def test_missing_param_names_suite_and_param(kind, params, missing):
    rep = run_suite({"suites": [{"kind": kind, "params": params}]})
    [rec] = rep.records
    assert rec.check == "suite_error" and not rec.passed
    assert rec.message == f"{kind}: missing param {missing!r}"


@pytest.mark.parametrize("argv", [
    ["check", "defect", "--r", "2", "--nmax", "1023"],
    ["check", "defect", "--r", "0.5", "--nmax", "3000"],
])
def test_defect_float_edge_prints_no_warnings(capsys, argv):
    # inf scales, energies and norms are handled outcomes, not warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_malliavin_byte_preflight_exit_2(tmp_path, capsys, monkeypatch):
    # C(103, 3) passes the basis guard, but t_matrix would need 1.5 TB:
    # refused from d and N alone, before any basis is built
    from sympairs import chaos

    def refuse(*args):
        raise AssertionError("basis built before the byte check")

    monkeypatch.setattr(chaos, "basis_build", refuse)
    assert cli.main(["check", "malliavin", "--d", "3", "--N", "100"]) == 2
    assert_one_line_error(capsys)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(
        {"suites": [{"kind": "malliavin", "params": {"d": 3, "N": 100}}]}))
    assert cli.main(["run", "-c", str(cfg)]) == 1
    [rec] = json.loads(capsys.readouterr().out)["records"]
    assert rec["check"] == "suite_error" and "GiB" in rec["message"]


def test_fuzz_found_inputs_exit_cleanly(tmp_path, capsys):
    # each gave a traceback or a RuntimeWarning before: ValueError from a
    # non-numeric conductance, ZeroDivisionError once r**n underflows to
    # 0, OverflowError while wording the byte refusal of d = 1e308, inf
    # in rho, and an infinite modular flow time
    graph = tmp_path / "g.txt"
    graph.write_text("a b abc\n")
    rho = tmp_path / "rho.json"
    rho.write_text("[[Infinity]]")
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(
        {"suites": [{"kind": "malliavin", "params": {"d": 1e308, "N": 1}}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["check", "network", "-g", str(graph)],
                     ["check", "modular", "--rho", str(rho)],
                     ["check", "modular", "--t", "0.5,inf"]):
            assert cli.main(argv) == 2
            assert_one_line_error(capsys)
        assert cli.main(["check", "defect", "--r", "1e-300"]) == 0
        assert "overflow" in capsys.readouterr().out
        assert cli.main(["run", "-c", str(cfg)]) == 1
    [rec] = json.loads(capsys.readouterr().out)["records"]
    assert rec["check"] == "suite_error" and "bytes" in rec["message"]


def test_defect_nmax_cap_refused_before_work(capsys, monkeypatch):
    # r = 1 never overflows, so nothing but the cap stops 10^9 nodes
    from sympairs import network

    def refuse(*args):
        raise AssertionError("recurrence started before the nmax check")

    monkeypatch.setattr(network.ConductanceSequence, "c", refuse)
    argv = ["check", "defect", "--rule", "constant", "--r", "1",
            "--nmax", str(10**9)]
    assert cli.main(argv) == 2
    assert_one_line_error(capsys)
