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
    back = [Record(r["suite"], r["check"], r["anchor"], r["residual"],
                   r["tol"], r["pass"], r["message"])
            for r in json.loads(emit(rep, "json"))["records"]]
    assert back == rep.records


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


def test_check_reports_its_wall_time(capsys, monkeypatch):
    # the human footer times the entry, as run does; JSON holds no timing
    for fmt in ("human", "json"):
        ticks = iter([10.0, 12.5])
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        assert cli.main(["check", "defect", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "human":
            assert out.rstrip().endswith("wall 2.50s")
        else:
            assert "wall_time" not in json.loads(out)["summary"]
        assert next(ticks, None) is None  # start and end, nothing else


def test_run_suite_error_becomes_failed_record():
    rep = run_suite({"suites": [{"kind": "network",
                                 "params": {"graph": "a a 1\n"}}]})
    assert rep.total == 1
    assert not rep.all_passed
    assert rep.records[0].check == "suite_error"


@pytest.mark.parametrize("entry", [
    {"kind": "modular", "params": [1]},
    {"kind": "defect", "params": [1]},
    {"kind": "malliavin", "params": "dN"},
    "modular",
    {"kind": ["a"]},
    {"kind": "network", "params": {"graph": 5}},
])
def test_run_suite_refuses_what_run_refuses(tmp_path, capsys, entry):
    # these raised AttributeError or TypeError out of run_suite; now each
    # is one suite_error record carrying the message `run` exits 2 with
    [rec] = run_suite({"suites": [entry]}).records
    assert (rec.check, rec.passed) == ("suite_error", False)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suites": [entry]}))
    assert cli.main(["run", "-c", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {rec.message}\n"


@pytest.mark.parametrize("config", [[], {"suites": 5}, "x"])
def test_run_suite_refuses_a_config_run_refuses(tmp_path, capsys, config):
    # these raised AttributeError or TypeError out of run_suite
    [rec] = run_suite(config).records
    assert (rec.check, rec.passed) == ("suite_error", False)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {rec.message}\n"


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
    {"kind": "defect", "tol": 10**400},  # an int past the float range
    # refused as by `check`, not truncated to 6, 1, 2 and 80
    {"kind": "malliavin", "params": {"d": 2, "N": 6.7}},
    {"kind": "malliavin", "params": {"d": 1.5, "N": 4}},
    {"kind": "modular", "params": {"n": 2.5}},
    {"kind": "defect", "params": {"nmax": 80.5}},
])
def test_bad_batch_config_exit_2(tmp_path, capsys, entry):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suites": [entry]}))
    assert cli.main(["run", "-c", str(cfg)]) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("N", [6, 6.0, "6"])
def test_integral_size_accepted_in_any_form(tmp_path, capsys, N):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(
        {"suites": [{"kind": "malliavin", "params": {"d": 2, "N": N}}]}))
    assert cli.main(["run", "-c", str(cfg)]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 9


@pytest.mark.parametrize("kind, flags, params, code", [
    ("defect", [], {}, 0),  # the relative residual is within 64 eps
    ("malliavin", ["--d", "1", "--N", "3"], {"d": 1, "N": 3}, 1),
])
def test_tol_zero_same_from_every_door(tmp_path, capsys, monkeypatch, kind,
                                       flags, params, code):
    # a zero tolerance makes strict checks fail: exit 1, not a usage error
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(
        {"suites": [{"kind": kind, "tol": 0, "params": params}]}))
    doors = ((["check", kind, *flags, "--tol", "0", "--format", "json"], None),
             (["check", kind, *flags, "--format", "json"], "0"),
             (["run", "-c", str(cfg)], None))
    seen = []
    for argv, env in doors:
        monkeypatch.delenv("SYMPAIR_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("SYMPAIR_TOL", env)
        seen.append((cli.main(argv), capsys.readouterr().out))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0] == code


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
    ("modular", {"n": 9}),  # over the memory budget: refused before work
    # JSON integers past the float range raised OverflowError
    ("pair", {"A": {"rows": 1, "cols": 1, "entries": [[10**400, 0]]},
              "B": UNIT}),
    ("pair", {"A": UNIT, "B": UNIT, "tol": 10**400}),
    ("modular", {"n": 2, "rho": [[10**400, 0], [0, 0.5]]}),
    ("modular", {"n": 2, "t_list": [0.5, 10**400]}),
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


#: a pair with |B - A*| = 0.5
HALF = {"A": UNIT, "B": {"rows": 1, "cols": 1, "entries": [[1.5, 0.0]]}}


@pytest.mark.parametrize("entry, code", [
    # refused by the batch's validation: exit 2
    ({"kind": "malliavin", "params": {"d": True, "N": 4}}, 2),
    ({"kind": "malliavin", "params": {"d": 2, "N": True}}, 2),
    ({"kind": "modular", "params": {"n": True}}, 2),
    ({"kind": "defect", "params": {"nmax": True}}, 2),
    ({"kind": "defect", "params": {"r": True}}, 2),
    ({"kind": "network", "tol": True,
      "params": {"graph": "o a 1\na b 1\norigin o\n"}}, 2),
    # refused while the entry runs: one suite_error record, exit 1
    ({"kind": "modular", "params": {"n": 2, "t_list": [True]}}, 1),
    ({"kind": "modular", "params": {"rho": [[0.5, 0], [False, 0.5]]}}, 1),
    ({"kind": "modular", "params": {"rho": [[[0.5, False], 0], [0, 0.5]]}},
     1),
    ({"kind": "pair", "params": {**HALF, "tol": True}}, 1),
    ({"kind": "pair", "params": {"A": {**UNIT, "rows": True}, "B": UNIT}}, 1),
    ({"kind": "pair", "params": {"A": {**UNIT, "entries": [[True, False]]},
                                 "B": UNIT}}, 1),
])
def test_json_booleans_are_not_numbers(tmp_path, capsys, entry, code):
    # JSON true and false parse to bools, which int(), float() and
    # complex() read as 1 and 0: "d": true ran d = 1, and a pair file's
    # "tol": true passed |B - A*| = 0.5
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps({"suites": [entry]}))
    assert cli.main(["run", "-c", str(cfg)]) == code
    if code == 2:
        assert_one_line_error(capsys)
    else:
        records = json.loads(capsys.readouterr().out)["records"]
        assert [(r["check"], r["pass"]) for r in records] == [
            ("suite_error", False)]
    # check reads the same file content: a usage error
    params, path = entry["params"], tmp_path / "in.json"
    if entry["kind"] == "pair":
        path.write_text(json.dumps(params))
        argv = ["check", "pair", "-i", str(path)]
    elif "rho" in params:
        path.write_text(json.dumps(params["rho"]))
        argv = ["check", "modular", "--rho", str(path)]
    else:
        return  # check takes these as flags, typed by argparse
    assert cli.main(argv) == 2
    assert_one_line_error(capsys)


def refuse_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("where", ["entry", "default"])
@pytest.mark.parametrize("raw, message", [
    (True, "tol is not a number: True"),  # read as 1.0, passed HALF
    (float("nan"), "tol must be finite and nonnegative"),  # tol NaN records
    (-1, "tol must be finite and nonnegative"),  # failed every record
    pytest.param(10**400, "tol must be finite and nonnegative",
                 id="int-past-float"),  # raised OverflowError
    (float("inf"), "tol must be finite and nonnegative"),
])
def test_run_suite_takes_the_cli_tol_rule(where, raw, message):
    # a library caller's tolerance, an entry's own or the batch default,
    # is refused as the CLI refuses it: one suite_error record
    entry = {"kind": "pair", "params": HALF}
    if where == "entry":
        report = run_suite({"suites": [{**entry, "tol": raw}]})
    else:
        report = run_suite({"suites": [entry]}, raw)
    [rec] = report.records
    assert (rec.check, rec.passed) == ("suite_error", False)
    prefix = "suite" if where == "entry" else "default"
    assert rec.message.startswith(prefix) and rec.message.endswith(
        message), rec.message
    json.loads(emit(report, "json"), parse_constant=refuse_constant)


def test_run_suite_keeps_good_tols_and_their_precedence():
    # |B - A*| = 0.5: an entry's tol beats the batch default
    entry = {"kind": "pair", "params": HALF}
    verdicts = [
        run_suite({"suites": [{**entry, "tol": tol}]}, default).all_passed
        for tol, default in ((0.6, None), (0.4, 0.6), (0.6, -1))]
    assert verdicts == [True, False, True]
    assert run_suite({"suites": [entry]}, 0.6).all_passed
    assert not run_suite({"suites": [entry]}, 0).all_passed


@pytest.mark.parametrize("raw", ["true", "NaN", "-1", "1e400"])
def test_cli_keeps_exit_2_for_a_bad_entry_tol(tmp_path, capsys, raw):
    cfg = tmp_path / "tol.json"
    cfg.write_text('{"suites": [{"kind": "defect", "tol": %s}]}' % raw)
    assert cli.main(["run", "-c", str(cfg)]) == 2
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
    # d=3, N=100: one pair section alone would take 1.4 TB, past the
    # memory budget: refused from d and N alone, before any basis is built
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
    assert rec["check"] == "suite_error" and "GiB (limit 0.75 GiB)" in \
        rec["message"]


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
        {"suites": [{"kind": "malliavin", "params": {"d": 1e308, "N": 2}}]}))
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


def test_modular_flow_time_cap(capsys, tmp_path):
    # past the cap the flow residual outgrows its fixed tolerance on a
    # true identity (t = 1e6 gave 1.08e-9 against 1e-9), so it is refused
    from sympairs.modular import MAX_FLOW_T

    for t in ("1e6", f"-{2 * MAX_FLOW_T:g}"):
        assert cli.main(["check", "modular", "--n", "2", f"--t={t}"]) == 2
        assert_one_line_error(capsys)
    assert cli.main(["check", "modular", "--n", "2",
                     f"--t=0.5,{MAX_FLOW_T:g}", "--format", "json"]) == 0
    capsys.readouterr()
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"suites": [
        {"kind": "modular", "params": {"n": 2, "t_list": [1e6]}}]}))
    assert cli.main(["run", "-c", str(cfg)]) == 1
    [rec] = json.loads(capsys.readouterr().out)["records"]
    assert rec["check"] == "suite_error" and "|t|" in rec["message"]


def check_and_run(tmp_path, capsys, argv, entry):
    """(exit code, stdout, stderr) of ``check <argv>`` and of a one-entry
    ``run`` of ``entry``."""
    code = cli.main(["check", *argv, "--format", "json"])
    checked = (code, *capsys.readouterr())
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"suites": [entry]}))
    code = cli.main(["run", "-c", str(cfg)])
    return checked, (code, *capsys.readouterr())


def parity_cases(tmp_path):
    """(check argv, batch entry) by name, naming the same input."""
    pair = tmp_path / "pair.json"
    write_pair_file(pair, value_b=1.0 + 1e-6, tol=1e-9)
    rho = [[0.7, 0.0], [0.0, 0.3]]
    (tmp_path / "rho.json").write_text(json.dumps(rho))
    graph = "p q 1\nq r 2\nr p 1\norigin q\n"
    (tmp_path / "g.txt").write_text(graph)
    return {
        "pair": (["pair", "-i", str(pair)],
                 {"kind": "pair", "params": json.loads(pair.read_text())}),
        "malliavin": (["malliavin", "--d", "2", "--N", "4"],
                      {"kind": "malliavin", "params": {"d": 2, "N": 4}}),
        "modular_tracial": (
            ["modular", "--n", "2", "--t", "0.5,1"],
            {"kind": "modular", "params": {"n": 2, "t_list": [0.5, 1]}}),
        "modular_rho": (
            ["modular", "--rho", str(tmp_path / "rho.json"), "--t", "0.5,3"],
            {"kind": "modular", "params": {"rho": rho, "t_list": [0.5, 3]}}),
        # a time list that starts with a minus sign is a value, not a flag
        "modular_negative_t": (
            ["modular", "--n", "2", "--t", "-1,0.5"],
            {"kind": "modular", "params": {"n": 2, "t_list": [-1, 0.5]}}),
        "network": (["network", "-g", str(tmp_path / "g.txt")],
                    {"kind": "network", "params": {"graph": graph}}),
        "defect": (["defect", "--rule", "constant", "--r", "1", "--nmax",
                    "60", "--expect", "DIVERGES"],
                   {"kind": "defect",
                    "params": {"rule": "constant", "r": 1.0, "nmax": 60,
                               "expect": "DIVERGES"}}),
        "defect_mismatch": (["defect", "--expect", "DIVERGES"],  # exit 1
                            {"kind": "defect",
                             "params": {"expect": "DIVERGES"}}),
    }


@pytest.mark.parametrize("name", [
    "pair", "malliavin", "modular_tracial", "modular_rho",
    "modular_negative_t", "network", "defect", "defect_mismatch"])
def test_check_is_a_one_entry_run(tmp_path, capsys, monkeypatch, name):
    monkeypatch.delenv("SYMPAIR_TOL", raising=False)
    argv, entry = parity_cases(tmp_path)[name]
    checked, ran = check_and_run(tmp_path, capsys, argv, entry)
    assert checked[0] == ran[0] and ran[0] in (0, 1)
    assert json.loads(checked[1]) == json.loads(ran[1])
    assert checked[2] == ran[2] == ""


@pytest.mark.parametrize("flag, env, code", [
    (None, None, 1),  # the pair file's tol 1e-9
    ("1e-3", None, 0),
    (None, "1e-3", 0),
    ("1e-12", "1e-3", 1),  # explicit beats SYMPAIR_TOL
])
def test_pair_tol_precedence_is_shared(tmp_path, capsys, monkeypatch,
                                       flag, env, code):
    # |B - A*| = 1e-6: explicit tol > SYMPAIR_TOL > file tol > default
    if env is None:
        monkeypatch.delenv("SYMPAIR_TOL", raising=False)
    else:
        monkeypatch.setenv("SYMPAIR_TOL", env)
    argv, entry = parity_cases(tmp_path)["pair"]
    if flag is not None:
        argv, entry = argv + ["--tol", flag], {**entry, "tol": float(flag)}
    checked, ran = check_and_run(tmp_path, capsys, argv, entry)
    assert checked[0] == ran[0] == code
    assert json.loads(checked[1]) == json.loads(ran[1])


@pytest.mark.parametrize("argv, entry", [
    (["malliavin", "--d", "0"], {"kind": "malliavin",
                                 "params": {"d": 0, "N": 6}}),
    (["malliavin", "--N", "1"], {"kind": "malliavin",
                                 "params": {"d": 2, "N": 1}}),
    (["modular", "--t", "0.5,abc"], {"kind": "modular",
                                     "params": {"n": 2,
                                                "t_list": ["0.5", "abc"]}}),
    (["modular", "--n", "9"], {"kind": "modular", "params": {"n": 9}}),
    # still a number, so still a size for --n
    (["modular", "--n", "-3"], {"kind": "modular", "params": {"n": -3}}),
    (["defect", "--nmax", "2"], {"kind": "defect", "params": {"nmax": 2}}),
])
def test_bad_input_same_message_from_both_doors(tmp_path, capsys, argv,
                                                entry):
    checked, ran = check_and_run(tmp_path, capsys, argv, entry)
    assert checked[0] == 2 and checked[1] == ""
    assert ran[0] == 1
    [rec] = json.loads(ran[1])["records"]
    assert rec["check"] == "suite_error"
    assert checked[2] == f"error: {rec['message']}\n"


@pytest.mark.parametrize("kind, flag, text, params", [
    ("pair", "-i", json.dumps({"A": UNIT}), {"A": UNIT}),
    ("modular", "--rho", "[[0.5, 0.1], [0.0, 0.5]]",
     {"rho": [[0.5, 0.1], [0.0, 0.5]]}),  # not Hermitian
    ("network", "-g", "a b 1\nc d 1\n", {"graph": "a b 1\nc d 1\n"}),
])
def test_bad_file_same_message_from_both_doors(tmp_path, capsys, kind, flag,
                                               text, params):
    path = tmp_path / "input"
    path.write_text(text)
    checked, ran = check_and_run(tmp_path, capsys, [kind, flag, str(path)],
                                 {"kind": kind, "params": params})
    assert checked[0] == 2 and ran[0] == 1
    [rec] = json.loads(ran[1])["records"]
    assert rec["check"] == "suite_error"
    assert checked[2] == f"error: {rec['message']}\n"
