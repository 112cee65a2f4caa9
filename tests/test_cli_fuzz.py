"""Property test of the `omsim run` input surface: any argument vector ends
in exit 0, 2 (configuration error) or 3 (invariant violation), with a
one-line message and never an uncaught exception."""

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from omsim.cli import main as cli_main

JUNK_PIDS = st.sampled_from(["x", "1,,2", "0", "-1", "70", ""])


@st.composite
def run_argv(draw):
    """Mostly well-formed runs, each option bad about one time in eight."""
    def bad():
        return draw(st.integers(0, 7)) == 0

    n = draw(st.integers(min_value=1, max_value=64))
    t = draw(st.integers(min_value=0, max_value=n // 31 + (2 if bad() else 0)))
    argv = ["run", "-n", str(n), "-t", str(t),
            "--seed", str(draw(st.integers(min_value=0, max_value=5)))]
    if draw(st.booleans()):
        x = draw(st.integers(-1, n + 1) if bad() else st.integers(1, min(n, 8)))
        argv += ["--protocol", "tradeoff", "--x", str(x)]
    elif draw(st.booleans()):
        # x means something only for the trade-off; main takes x=1 alone
        argv += ["--x=%d" % draw(st.integers(-1, 3) if bad() else st.just(1))]
    adversary = draw(st.sampled_from(["none", "crash", "eclipse", "coin-biaser"]))
    argv += ["--adversary", adversary]
    if adversary == "eclipse" and t and draw(st.booleans()):
        pids = st.lists(st.integers(1, n), min_size=1, max_size=t, unique=True)
        argv += ["--targets", draw(JUNK_PIDS) if bad()
                 else ",".join(map(str, draw(pids)))]
    if draw(st.booleans()):
        argv += ["--rotation", str(draw(st.integers(-1, 4) if bad() else st.integers(1, 4)))]
    if draw(st.booleans()):
        argv += ["--direction", str(draw(st.integers(-1, 2) if bad() else st.integers(0, 1)))]
    if draw(st.booleans()):
        if bad():
            inputs = draw(st.sampled_from(["2", "0a"]) | st.text("01", min_size=n + 1))
        else:
            inputs = draw(st.sampled_from(["ones", "zeros", "alternating"])
                          | st.text("01", min_size=n, max_size=n))
        argv += ["--inputs", inputs]
    argv += ["--preset", draw(st.sampled_from(["scaled", "acceptance", "default"]))]
    argv += ["--format", draw(st.sampled_from(["jsonl", "csv"]))]
    return argv


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(run_argv())
def test_cli_run_any_argv_exits_cleanly(argv):
    res = CliRunner().invoke(cli_main, argv)
    assert res.exit_code in (0, 2, 3), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), argv
    assert "Traceback" not in res.output
    if res.exit_code:
        assert len(res.stderr.strip().splitlines()) == 1, (argv, res.stderr)
    if any(a.startswith("--x=") and a != "--x=1" for a in argv):
        assert res.exit_code == 2, argv
