import pytest

from omsim.engine import AdversaryStrategy, ConfigError, SystemConfig, run_execution
from omsim.params import scaled
from omsim.tradeoff import TradeoffConsensus, split_super_processes


def run_tradeoff(n, t, x, inputs, seed=1, adversary=None, constants=None, **kw):
    cfg = SystemConfig(n=n, t=t, seed=seed, inputs=tuple(inputs),
                       params=constants or scaled())
    return run_execution(cfg, lambda c: TradeoffConsensus(c, x=x), adversary, **kw)


def test_partition_shapes():
    assert split_super_processes(10, 3) == [(1, 2, 3, 4), (5, 6, 7), (8, 9, 10)]
    assert split_super_processes(8, 1) == [tuple(range(1, 9))]
    assert split_super_processes(4, 4) == [(1,), (2,), (3,), (4,)]


def test_bounds_enforced():
    cfg = SystemConfig(n=60, t=1, seed=1, inputs=(0,) * 60, params=scaled())
    with pytest.raises(ConfigError):
        TradeoffConsensus(cfg, x=1)
    cfg = SystemConfig(n=61, t=1, seed=1, inputs=(0,) * 61, params=scaled())
    with pytest.raises(ConfigError):
        TradeoffConsensus(cfg, x=0)
    with pytest.raises(ConfigError):
        TradeoffConsensus(cfg, x=62)
    no_gap = scaled().with_(set_one=(15, 30), set_zero=(15, 30))
    cfg = SystemConfig(n=61, t=1, seed=1, inputs=(0,) * 61, params=no_gap)
    with pytest.raises(ConfigError):
        TradeoffConsensus(cfg, x=1)


def test_unanimous_inputs_no_faults():
    for bit in (0, 1):
        for x in (1, 4):
            dec, trace, m = run_tradeoff(64, 1, x, (bit,) * 64, seed=3)
            assert {v for v, _ in dec.values()} == {bit}
            assert len(dec) == 64
            assert not m.fallback_triggered


def test_closed_form_round_count():
    cfg = SystemConfig(n=64, t=1, seed=3, inputs=(1,) * 64, params=scaled())
    proto = TradeoffConsensus(cfg, x=4)
    dec, _, m = run_execution(cfg, proto)
    assert m.T == proto.closed_form_T
    meta = proto.meta()
    assert sum(meta["phase_budgets"]) + 3 == meta["closed_form_T"]
    assert meta["super_sizes"] == [16, 16, 16, 16]


def test_mixed_inputs_agree_across_seeds_and_x():
    inputs = tuple(1 if i % 2 else 0 for i in range(64))
    for x in (1, 4, 16):
        for seed in range(4):
            dec, _, _ = run_tradeoff(64, 1, x, inputs, seed=seed)
            assert len({v for v, _ in dec.values()}) == 1


def test_phase_one_value_propagates_when_fault_free():
    # t=0: phase 1's super-process reaches a value and floods it; everyone
    # must decide that same value (whatever it is), unanimously
    inputs = tuple(1 if i % 3 == 0 else 0 for i in range(64))
    dec, _, m = run_tradeoff(64, 0, 4, inputs, seed=9)
    assert len({v for v, _ in dec.values()}) == 1
    assert m.operative_final == 64


class SilenceSet(AdversaryStrategy):
    name = "silence"

    def __init__(self, pids):
        self.pids = frozenset(pids)

    def corruptions(self, obs):
        return self.pids

    def silenced(self):
        return self.pids


def test_silencing_preserves_agreement_and_validity():
    n = 64
    for seed in range(4):
        dec, trace, m = run_tradeoff(n, 1, 4, (1,) * n, seed=seed,
                                     adversary=SilenceSet({5}))
        honest = {p: v for p, (v, _) in dec.items() if p != 5}
        assert len(honest) == n - 1
        assert set(honest.values()) == {1}
        assert trace.verify(1)


def test_rounds_grow_and_randomness_shrinks_with_x():
    inputs = tuple(1 if i % 2 else 0 for i in range(128))
    rounds, rand = [], []
    for x in (1, 4, 16):
        ts, rs = [], []
        for seed in range(3):
            _, _, m = run_tradeoff(128, 2, x, inputs, seed=seed)
            ts.append(m.T)
            rs.append(m.R_bits)
        ts.sort()
        rs.sort()
        rounds.append(ts[1])
        rand.append(rs[1])
    assert rounds[0] < rounds[1] < rounds[2]
    assert rand[0] >= rand[1] >= rand[2]


def test_randomness_confined_to_inner_runs():
    cfg = SystemConfig(n=64, t=1, seed=2,
                       inputs=tuple(1 if i % 2 else 0 for i in range(64)),
                       params=scaled())
    proto = TradeoffConsensus(cfg, x=4)
    dec, trace, m = run_execution(cfg, proto)
    meta = proto.meta()
    inner_windows = []
    for start, budget, inner in zip(meta["phase_starts"], meta["phase_budgets"],
                                    proto.inner):
        inner_windows.append((start, start + budget - meta["flooding_rounds"]))
    for rnd in m.per_round_rand:
        assert any(lo <= rnd <= hi for lo, hi in inner_windows), rnd
