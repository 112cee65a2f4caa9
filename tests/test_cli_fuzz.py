"""Property test of the `omsim run` input surface: any argument vector ends
in exit 0, 2 (configuration error) or 3 (invariant violation), with a
one-line message and never an uncaught exception."""

import json

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from omsim.cli import main as cli_main

# --adversary-opts values that no adversary takes: not JSON, not an object,
# a value of the wrong type, a repeated or unknown key, an empty pid list
JUNK_OPTS = (
    "", "x", "{", "[1]", "5", "null x", '{"targets": "1,2"}', '{"targets": [1, "x"]}',
    '{"rotation": "2"}', '{"direction": 1.5}', '{"direction": true}',
    '{"rotation": 2, "rotation": 3}', '{"rotaton": 3}', '{"targets": []}',
    '{"schedule": {}}', '{"schedule": {"1": []}}', '{"schedule": {"\u00b2": [1]}}',
    '{"schedule": [[1, 2]]}',
)


@st.composite
def adversary_opts(draw, adversary, n, t):
    """A well-formed options object for adversary, each key optional; the
    pids lie in 1..n but may pass the budget t."""
    pids = st.lists(st.integers(1, n), min_size=1, max_size=max(1, t), unique=True)
    keys = {"crash": {"schedule": st.dictionaries(st.integers(1, 40).map(str), pids,
                                                  min_size=1, max_size=2)},
            "eclipse": {"targets": pids, "rotation": st.integers(1, 4)},
            "coin-biaser": {"direction": st.integers(0, 1)}}.get(adversary, {})
    return {key: draw(value) for key, value in keys.items() if draw(st.booleans())}


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
    if draw(st.booleans()):
        argv += ["--adversary-opts", draw(st.sampled_from(JUNK_OPTS)) if bad()
                 else json.dumps(draw(adversary_opts(adversary, n, t)))]
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
    if "--adversary-opts" in argv and argv[argv.index("--adversary-opts") + 1] in JUNK_OPTS:
        assert res.exit_code == 2, argv
