import json

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
    m = Metrics(T=1, comm_bits=0, sent_msgs=0, omitted_msgs=0, delivered_msgs=0,
                R_accesses=0, R_bits=0, per_round_rand={}, operative_final=0,
                operative_min=0, fallback_triggered=False)
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
])
def test_cli_bad_adversary_options_exit_2(extra):
    res = CliRunner().invoke(cli_main, ["run", "-n", "64", "-t", "2"] + extra)
    assert_config_exit(res)


@pytest.mark.parametrize("text", ["1: 70\n", "1: 0\n", "one: 2\n"])
def test_cli_bad_crash_schedule_exit_2(tmp_path, text):
    sched = tmp_path / "sched.txt"
    sched.write_text(text)
    res = CliRunner().invoke(cli_main, ["run", "-n", "64", "-t", "2",
                                        "--adversary", "crash",
                                        "--schedule", str(sched)])
    assert_config_exit(res)


def test_cli_coin_game_over_budget_exit_2():
    assert_config_exit(CliRunner().invoke(cli_main, ["coin-game", "--k", "30"]))


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
