import pytest

from omsim.engine import (
    SystemConfig, Message, AdversaryStrategy, AdversaryAction,
    apply_adversary_action, run_execution,
    ConfigError, AdversaryViolation, LivenessFailure,
    count_bits, group_index_bits, chain_bits, log2_ceil, isqrt_ceil,
)


class Echo:
    """Toy protocol: broadcast the input bit, decide the minimum bit seen.
    One communication round, decisions in round 2."""

    rounds = 2

    def __init__(self, config):
        self.config = config

    def meta(self):
        return {}

    def max_rounds(self):
        return 5

    def run(self, ctx):
        n = ctx.n
        others = [q for q in range(1, n + 1) if q != ctx.pid]
        ctx.broadcast(others, ("bit", ctx.input), 1)
        inbox = yield
        seen = {ctx.input} | {bit for _, (_, bit) in inbox}
        ctx.decide(min(seen))


class Coin(Echo):
    """Draws one random bit before deciding, to exercise the ledger."""

    def run(self, ctx):
        b = ctx.rand_bit()
        ctx.broadcast([q for q in range(1, ctx.n + 1) if q != ctx.pid], ("bit", b), 1)
        inbox = yield
        ctx.decide(0)


def test_config_bounds():
    with pytest.raises(ConfigError):
        SystemConfig(n=0, t=0, seed=1)
    with pytest.raises(ConfigError):
        SystemConfig(n=4, t=4, seed=1)
    with pytest.raises(ConfigError):
        SystemConfig(n=4, t=0, seed=1, inputs=(0, 1))
    with pytest.raises(ConfigError):
        SystemConfig(n=2, t=0, seed=1, inputs=(0, 2))


def test_encoding_table():
    assert count_bits(1) == 1
    assert count_bits(4) == 3      # counts 0..4 need 3 bits
    assert count_bits(7) == 3
    assert count_bits(8) == 4
    assert group_index_bits(16) == 3   # indices 1..4
    assert chain_bits(3, 7) == 9
    assert log2_ceil(1) == 1
    assert log2_ceil(8) == 3
    assert log2_ceil(9) == 4
    assert isqrt_ceil(16) == 4
    assert isqrt_ceil(17) == 5


def test_no_fault_run_decides_and_counts():
    cfg = SystemConfig(n=4, t=0, seed=7, inputs=(0, 1, 1, 1))
    dec, trace, m = run_execution(cfg, Echo)
    assert all(v == 0 for v, _ in dec.values())
    assert m.T == 2
    assert m.comm_bits == 12
    assert m.omitted_msgs == 0
    assert m.R_accesses == 0


def test_determinism_same_seed_same_trace():
    cfg = SystemConfig(n=5, t=0, seed=11, inputs=(1, 0, 1, 0, 1))
    out1 = run_execution(cfg, Coin, record_level=1)
    out2 = run_execution(cfg, Coin, record_level=1)
    assert out1[0] == out2[0]
    t1, t2 = out1[1], out2[1]
    assert [r.messages for r in t1.rounds] == [r.messages for r in t2.rounds]
    assert out1[2].R_bits == out2[2].R_bits == 5


def test_different_seed_changes_coin_messages():
    base = SystemConfig(n=8, t=0, seed=1, inputs=(0,) * 8)
    seen = set()
    for s in range(6):
        cfg = SystemConfig(n=8, t=0, seed=s, inputs=(0,) * 8)
        _, trace, _ = run_execution(cfg, Coin, record_level=1)
        seen.add(tuple(m.payload for m in trace.rounds[0].messages))
    assert len(seen) > 1


def test_ledger_counts_accesses_and_bits():
    cfg = SystemConfig(n=3, t=0, seed=3, inputs=(0, 0, 0))
    _, trace, m = run_execution(cfg, Coin)
    assert m.R_accesses == 3
    assert m.R_bits == 3
    assert m.per_round_rand == {1: 3}


def test_apply_action_empty_is_identity():
    pending = [Message(1, 2, "x", 1), Message(2, 1, "y", 1)]
    delivered, omitted, corr = apply_adversary_action(AdversaryAction(), pending, {}, 0)
    assert delivered == pending and omitted == []


def test_apply_action_rejects_illegal_omission():
    pending = [Message(1, 2, "x", 1)]
    act = AdversaryAction(omit=frozenset({0}))
    with pytest.raises(AdversaryViolation):
        apply_adversary_action(act, pending, {}, 1)


def test_apply_action_rejects_budget_overflow():
    act = AdversaryAction(corrupt=frozenset({1, 2}))
    with pytest.raises(AdversaryViolation):
        apply_adversary_action(act, [], {}, 1)


def test_apply_action_crash_pattern():
    pending = [Message(1, 2, "x", 1), Message(1, 3, "x", 1), Message(2, 3, "y", 1)]
    act = AdversaryAction(corrupt=frozenset({1}), omit=frozenset({0, 1}))
    delivered, omitted, corr = apply_adversary_action(act, pending, {}, 1)
    assert [m.receiver for m in delivered] == [3]
    assert len(omitted) == 2 and corr == {1}


class OmitAllFromOne(AdversaryStrategy):
    """General-path strategy: corrupts process 1 and drops its messages."""
    name = "test-hook"
    needs_messages = True

    def decide(self, obs):
        omit = frozenset(i for i, m in enumerate(obs.pending) if m.sender == 1)
        if obs.phase == "send":
            return AdversaryAction(corrupt=frozenset({1}), omit=omit)
        return AdversaryAction(omit=omit)


def test_general_hook_path_silences_sender():
    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    dec, trace, m = run_execution(cfg, Echo, OmitAllFromOne(), record_level=1)
    # nobody saw process 1's zero, so survivors decide 1
    assert dec[2][0] == dec[3][0] == dec[4][0] == 1
    assert m.omitted_msgs == 3
    assert trace.corrupted == {1: 1}
    assert trace.verify(cfg.t)


def test_hook_strategy_budget_enforced():
    class Greedy(OmitAllFromOne):
        def decide(self, obs):
            return AdversaryAction(corrupt=frozenset({1, 2}))

    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    with pytest.raises(AdversaryViolation):
        run_execution(cfg, Echo, Greedy())


def test_silenced_must_be_corrupted():
    class Bad(AdversaryStrategy):
        def silenced(self):
            return frozenset({2})

    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    with pytest.raises(AdversaryViolation):
        run_execution(cfg, Echo, Bad())


def test_liveness_failure_on_undecided():
    class Stuck(Echo):
        def run(self, ctx):
            ctx.broadcast([2], ("bit", 0), 1) if ctx.pid == 1 else None
            yield
            if ctx.pid != 1:
                ctx.decide(0)
            # process 1 never decides

    cfg = SystemConfig(n=3, t=0, seed=5, inputs=(0, 0, 0))
    with pytest.raises(LivenessFailure):
        run_execution(cfg, Stuck)


def test_metrics_revalidate_and_trace_verify():
    cfg = SystemConfig(n=4, t=1, seed=9, inputs=(0, 1, 0, 1))
    dec, trace, m = run_execution(cfg, Echo, OmitAllFromOne(), record_level=1)
    assert m.revalidate(trace)
    assert trace.verify(cfg.t)
    # the recount reads the recorded messages, so a tampered tally fails it
    trace.rounds[0].bits += 1
    with pytest.raises(AssertionError):
        m.revalidate(trace)
