import json
import sys

import pytest
from click.testing import CliRunner

from omsim.cli import main as cli_main
from omsim.engine import ConfigError
from omsim.harness import (
    build_constants, csv_summary, resolve_inputs, run_record, run_sweep,
    to_jsonl,
)
from omsim.metrics import Metrics, check_lower_bound_product


def test_build_constants():
    c = build_constants({"delta_coeff": 5.0, "set_one": [19, 30]}, "scaled")
    assert c.delta_coeff == 5.0 and c.set_one == (19, 30)
    with pytest.raises(ConfigError):
        build_constants({"bogus": 1})
    with pytest.raises(ConfigError):
        build_constants(None, "nope")


def test_resolve_inputs():
    assert resolve_inputs("ones", 3) == (1, 1, 1)
    assert resolve_inputs("alternating", 4) == (1, 0, 1, 0)
    assert resolve_inputs("0110", 4) == (0, 1, 1, 0)
    assert resolve_inputs([1, 0], 2) == (1, 0)
    with pytest.raises(ConfigError):
        resolve_inputs("012", 3)


def test_run_record_shape_and_determinism():
    a = run_record(n=32, t=1, seed=5)
    b = run_record(n=32, t=1, seed=5)
    assert to_jsonl([a]) == to_jsonl([b])
    assert a["agreement"] and a["all_non_faulty_decided"]
    expected = a["closed_form_T"]
    if a["metrics"]["fallback_triggered"]:
        expected += 1 + 1  # t + 1 flooding rounds beyond the closed form
    assert a["metrics"]["T"] == expected
    assert a["lower_bound"]["ok"]


def test_run_sweep_continues_past_bad_cells():
    plan = {"cells": [
        {"n": 31, "t": 1, "protocol": "main", "seeds": 2},
        {"n": 30, "t": 5, "protocol": "main", "seeds": 1},   # violates t < n/30
        {"n": 64, "t": 1, "protocol": "tradeoff", "x": 4, "seeds": 1},
    ]}
    records = run_sweep(plan)
    assert len(records) == 4
    good = [r for r in records if "error" not in r]
    bad = [r for r in records if "error" in r]
    assert len(good) == 3 and len(bad) == 1
    assert "ConfigError" in bad[0]["error"]


def test_sweep_rerun_byte_identical():
    plan = {"cells": [{"n": 32, "t": 1, "seeds": 3}]}
    assert to_jsonl(run_sweep(plan)) == to_jsonl(run_sweep(plan))


def test_csv_summary():
    records = run_sweep({"cells": [{"n": 31, "t": 1, "seeds": 2}]})
    text = csv_summary(records)
    lines = text.strip().splitlines()
    assert lines[0].startswith("cell,n,t,protocol")
    assert len(lines) == 2


def test_lower_bound_examples():
    m = Metrics(T=1, comm_bits=0, sent_msgs=0, omitted_msgs=0, R_accesses=0,
                R_bits=0, operative_final=0, operative_min=0, fallback_triggered=False)
    # tiny T and R only violate the product once t is large enough for the
    # right-hand side to exceed 1
    ok, margin = check_lower_bound_product(m, 256, 2048)
    assert not ok and margin < 0
    ok, _ = check_lower_bound_product(m, 256, 8)
    assert ok
    ok, _ = check_lower_bound_product(m, 256, 0)
    assert ok


# --- CLI ------------------------------------------------------------------

def test_cli_run_jsonl():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["run", "-n", "31", "-t", "1", "--seed", "3"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["n"] == 31 and rec["agreement"]


def test_cli_run_config_error_exit_code():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["run", "-n", "30", "-t", "5"])
    assert res.exit_code == 2


def test_cli_sweep_and_csv(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"cells": [{"n": 31, "t": 1, "seeds": 2}]}))
    runner = CliRunner()
    res = runner.invoke(cli_main, ["sweep", str(plan), "--format", "csv"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("cell,")


def test_cli_graph_check():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["graph-check", "-n", "40", "--coeff", "3",
                                   "--trials", "100"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["n"] == 40


def test_cli_coin_game():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["coin-game", "--k", "5", "--alpha", "0.5"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["k"] == 5 and rep["f"] == "majority"


def test_cli_anti_concentration():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["coin-game", "--anti-concentration",
                                   "--n", "10000", "--tau", "0.5",
                                   "--trials", "20000"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["ok"]


def test_cli_run_crash_with_schedule_file(tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("1: 2\n")
    runner = CliRunner()
    res = runner.invoke(cli_main, ["run", "-n", "32", "-t", "1",
                                   "--adversary", "crash",
                                   "--schedule", str(sched)])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["corrupted"] == {"2": 1}


def assert_config_exit(res):
    """Exit 2 with a one-line message, no traceback."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr


@pytest.mark.parametrize("extra", [
    ["--adversary", "eclipse", "--targets", "70"],
    ["--adversary", "eclipse", "--targets", "0"],
    ["--adversary", "eclipse", "--targets=-1"],
    ["--adversary", "eclipse", "--targets", "1,x"],
    ["--adversary", "eclipse", "--rotation", "0"],
    ["--adversary", "coin-biaser", "--direction", "5"],
    ["--adversary", "eclipse", "--targets", "1,2,3"],
    ["--adversary", "crash", "--rotation", "3"],
    ["--adversary", "crash", "--rotation", "0", "--direction", "7"],
    ["--adversary", "none", "--direction", "1"],
    ["--adversary", "coin-biaser", "--targets", "1"],
])
def test_cli_bad_adversary_options_exit_2(extra):
    res = CliRunner().invoke(cli_main, ["run", "-n", "64", "-t", "2"] + extra)
    assert_config_exit(res)


@pytest.mark.parametrize("text", ["1: 70\n", "1: 0\n", "one: 2\n", "1: 1 2 3\n",
                                  "2: 3\n2: 5\n", "2: 3\n02: 5\n", "5\n"])
def test_cli_bad_crash_schedule_exit_2(tmp_path, text):
    sched = tmp_path / "sched.txt"
    sched.write_text(text)
    res = CliRunner().invoke(cli_main, ["run", "-n", "64", "-t", "2",
                                        "--adversary", "crash",
                                        "--schedule", str(sched)])
    assert_config_exit(res)


def test_cli_coin_game_over_budget_exit_2():
    assert_config_exit(CliRunner().invoke(cli_main, ["coin-game", "--k", "30"]))


@pytest.mark.parametrize("args", [
    ["coin-game", "--mode", "mc", "--trials", "0"],
    ["coin-game", "--mode", "mc", "--trials=-5"],
    ["coin-game", "--anti-concentration", "--trials", "0"],
    ["coin-game", "--coeff=-1"],
    ["graph-check", "-n", "40", "--trials", "0"],
    ["graph-check", "-n", "40", "--delta", "0"],
    ["coin-game", "--anti-concentration", "--n=-5", "--tau", "0"],
    ["coin-game", "--anti-concentration", "--n", "0", "--tau", "0"],
    ["graph-check", "-n", "40", "--coeff", "nan"],
    ["graph-check", "-n", "40", "--coeff=-3"],
    ["graph-check", "-n", "40", "--alpha=-1"],
    ["coin-game", "--anti-concentration", "--n", "100", "--tau", "nan", "--trials", "100"],
    ["coin-game", "--anti-concentration", "--n", "100", "--tau=-inf", "--trials", "100"],
    ["coin-game", "--coeff", "inf"],
    ["graph-check", "-n", "40", "--alpha", "inf"],
    ["graph-check", "-n", "40", "--seed", "-5"],
    ["coin-game", "--mode", "mc", "--seed", "-1"],
    ["coin-game", "--anti-concentration", "--seed", "-1"],
    ["run", "-n", "31", "-t", "1", "--x", "3"],
    ["run", "-n", "31", "-t", "1", "--protocol", "main", "--x=-1"],
    ["run", "-n", "64", "-t", "2", "--adversary", "eclipse", "--targets", ""],
])
def test_cli_bad_numeric_inputs_exit_2(args):
    assert_config_exit(CliRunner().invoke(cli_main, args))


@pytest.mark.parametrize("protocol", [[], ["--protocol", "tradeoff", "--x", "2"], ["--x", "1"]])
def test_cli_run_negative_seed_exits_0(protocol):
    # the overlay masks its graph seed, so any run seed makes a graph
    res = CliRunner().invoke(cli_main, ["run", "-n", "62", "-t", "1", "--seed", "-5"]
                             + protocol)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["seed"] == -5


def test_cli_graph_check_small_n_exits_0():
    # n = 10 makes ell = 1, where no vertex set can break sparsity
    res = CliRunner().invoke(cli_main, ["graph-check", "-n", "10"])
    assert res.exit_code == 0, res.output
    [verdict] = json.loads(res.output)["edge_sparse"].values()
    assert verdict["ok"]


def test_cli_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    runner = CliRunner()
    assert_config_exit(runner.invoke(cli_main, ["sweep", str(bad)]))
    assert_config_exit(runner.invoke(cli_main, ["run", "-n", "31", "-t", "1",
                                                "--config", str(bad)]))
    bad.write_text("[1, 2]")
    assert_config_exit(runner.invoke(cli_main, ["sweep", str(bad)]))


def test_run_sweep_unknown_cell_key_is_that_cells_error():
    records = run_sweep({"cells": [
        {"n": 31, "t": 1, "adversry": "crash", "seeds": 2},
        {"n": 31, "t": 1, "seeds": 1},
    ]})
    assert len(records) == 2
    assert records[0] == {"cell": 0, "error": "unknown cell keys: adversry"}
    assert records[1]["cell"] == 1 and "error" not in records[1]


# each value is in its range, but the schedule built from it passes the
# round ceiling; only the trade-off reads flooding_coeff
PAST_ROUND_CEILING = ({"epoch_coeff": 1e300}, {"spreading_coeff": 1e300},
                      {"epoch_coeff": sys.float_info.max}, {"flooding_coeff": 1e300})
MAIN_128 = ["run", "-n", "128", "-t", "1", "--preset", "acceptance"]


@pytest.mark.parametrize("overrides", [
    [1], {"delta_coeff": "x"}, {"coin_coeff": 8.0},
    {"lower_bound_const": 0}, {"epoch_coeff": float("nan")}, {"epoch_coeff": float("inf")},
    {"main_fault_bound": 0}, {"flooding_coeff": 1e400}, {"inoperative_divisor": 0},
    {"epoch_coeff": -1}, {"spreading_coeff": 0}, {"delta_coeff": -3},
    {"tradeoff_fault_bound": 0}, {"epoch_coeff": 10 ** 400}, *PAST_ROUND_CEILING,
])
def test_bad_constant_values_are_config_errors(tmp_path, overrides):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps(overrides))
    if overrides in PAST_ROUND_CEILING:
        build_constants(overrides, "acceptance")
        run = MAIN_128 + (["--protocol", "tradeoff", "--x", "4"]
                          if "flooding_coeff" in overrides else [])
        res = CliRunner().invoke(cli_main, run + ["--config", str(conf)])
        assert_config_exit(res)
        assert "passes the ceiling of 1000000 rounds" in res.stderr
        return
    with pytest.raises(ConfigError):
        build_constants(overrides, "scaled")
    assert_config_exit(CliRunner().invoke(cli_main, ["run", "-n", "31", "-t", "1",
                                                     "--config", str(conf)]))


# each pair is well formed, so the preset takes it, but the order is not:
# a ones-share between set_zero and decide_lo (or between decide_hi and
# set_one) would count as decided while holding a coin flip
COIN_DECIDES = ({"decide_lo": [20, 30]}, {"decide_hi": [17, 30]})


@pytest.mark.parametrize("protocol", [{}, {"protocol": "tradeoff", "x": 4}])
@pytest.mark.parametrize("overrides", COIN_DECIDES)
def test_thresholds_that_decide_on_a_coin_exit_2(tmp_path, overrides, protocol):
    build_constants(overrides, "acceptance")
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps(overrides))
    flags = [arg for key, value in protocol.items() for arg in ("--" + key, str(value))]
    res = CliRunner().invoke(cli_main, MAIN_128 + flags + ["--config", str(conf)])
    assert_config_exit(res)
    assert "need decide_lo <= set_zero and set_one <= decide_hi" in res.stderr
    [rec] = run_sweep({"cells": [dict(protocol, n=128, t=1, preset="acceptance",
                                      constants=overrides)]})
    assert rec["error"].startswith("ConfigError: vote thresholds need")


def test_thresholds_at_the_set_thresholds_are_accepted(tmp_path):
    # decide_lo = set_zero and decide_hi = set_one meet the order
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"decide_lo": [15, 30], "decide_hi": [36, 60]}))
    res = CliRunner().invoke(cli_main, MAIN_128 + ["--config", str(conf)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["agreement"]


ECLIPSE = {"n": 31, "t": 1, "adversary": "eclipse"}
CRASH = {"n": 31, "t": 1, "adversary": "crash"}


@pytest.mark.parametrize("bad_cell, message", [
    ({"n": "abc", "t": 1}, "cell keys must be integers: n"),
    ({"n": 31, "t": 1, "seeds": "x"}, "\"seeds\" must be a count or a list of integers"),
    (5, "a cell is an object"),
    ({"n": 31, "t": 1, "inputs": ["x"]}, "ConfigError: inputs must be"),
    ({"n": 31, "t": 1, "inputs": [0.7] * 31}, "ConfigError: inputs must be"),
    (dict(ECLIPSE, adversary_opts=5), "ConfigError: adversary options must be an object"),
    (dict(ECLIPSE, adversary_opts={"rotation": "x"}),
     "ConfigError: adversary option rotation must be an integer"),
    (dict(ECLIPSE, adversary_opts={"rotation": 2.9}),
     "ConfigError: adversary option rotation must be an integer"),
    (dict(ECLIPSE, adversary_opts={"targets": ["3"]}),
     "ConfigError: eclipse targets must be a list of integer pids"),
    (dict(CRASH, adversary_opts={"schedule": [1]}), "ConfigError: a crash schedule is an object"),
    (dict(CRASH, adversary_opts={"schedule": {"x": [1]}}),
     "ConfigError: crash schedule rounds must be integers"),
    (dict(ECLIPSE, adversary_opts={"rotaton": 3}),
     "ConfigError: adversary eclipse takes no option rotaton"),
    (dict(CRASH, adversary_opts={"rotation": 2}),
     "ConfigError: adversary crash takes no option rotation"),
    (dict(CRASH, adversary=["crash"]), "ConfigError: unknown adversary ['crash']"),
    ({"n": 31, "t": 1, "seeds": -1}, "\"seeds\" must be a count or a list of integers"),
    ({"n": 31, "t": 1, "seeds": []}, "\"seeds\" must be a count or a list of integers"),
    ({"n": 31, "t": 1, "record_level": 5}, "record_level must be 0, 1 or 2"),
    ({"n": 31, "t": 1, "record_level": -1}, "record_level must be 0, 1 or 2"),
    ({"n": 31, "t": 1, "x": 3}, "ConfigError: x sets the trade-off's super-processes"),
    ({"n": 31, "t": 1, "protocol": "main", "x": 0}, "ConfigError: x sets the trade-off's"),
    (dict(CRASH, adversary_opts={"schedule": {"2": [3], "02": [5]}}),
     "ConfigError: crash schedule names a round twice: 2, 02"),
])
def test_run_sweep_bad_value_type_is_that_cells_error(tmp_path, bad_cell, message):
    plan = {"cells": [bad_cell, {"n": 31, "t": 1, "seeds": 1}]}
    records = run_sweep(plan)
    assert len(records) == 2
    assert records[0]["cell"] == 0 and records[0]["error"].startswith(message)
    assert records[1]["cell"] == 1 and "error" not in records[1]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(plan))
    res = CliRunner().invoke(cli_main, ["sweep", str(path)])
    assert res.exit_code == 2, res.output
    assert len(res.stdout.splitlines()) == 2
    assert res.stderr.strip() == "1 cells errored"


def test_x_1_with_main_is_accepted():
    # x=1 is the default, and a plan may spell it out for every main cell
    [rec] = run_sweep({"cells": [{"n": 31, "t": 1, "protocol": "main", "x": 1}]})
    assert "error" not in rec and rec["x"] is None
