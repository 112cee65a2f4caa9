import pytest

from omsim.consensus import DegenerateInput, MainConsensus, decide_candidate
from omsim.engine import AdversaryStrategy, ConfigError, SystemConfig, run_execution
from omsim.params import Constants, scaled


def never():
    raise AssertionError("draw must not be consulted")


def run_main(n, t, inputs, seed=1, adversary=None, constants=None, **kw):
    cfg = SystemConfig(n=n, t=t, seed=seed, inputs=tuple(inputs),
                       params=constants or scaled())
    return run_execution(cfg, MainConsensus, adversary, **kw)


# --- vote update ---------------------------------------------------------

def test_decide_candidate_table():
    c = Constants()
    assert decide_candidate(25, 5, c, never) == (1, False)
    assert decide_candidate(3, 28, c, never) == (0, True)
    assert decide_candidate(29, 1, c, never) == (1, True)
    assert decide_candidate(1, 29, c, never) == (0, True)


def test_decide_candidate_middle_band_draws():
    c = Constants()
    assert decide_candidate(16, 14, c, lambda: 1) == (1, False)
    assert decide_candidate(16, 14, c, lambda: 0) == (0, False)
    # both boundaries are exclusive, so exact fractions still draw
    assert decide_candidate(18, 12, c, lambda: 0) == (0, False)
    assert decide_candidate(15, 15, c, lambda: 1) == (1, False)


def test_decide_candidate_degenerate():
    with pytest.raises(DegenerateInput):
        decide_candidate(0, 0, Constants(), never)


def test_fault_bound_enforced():
    cfg = SystemConfig(n=30, t=1, seed=1, inputs=(0,) * 30, params=scaled())
    with pytest.raises(ConfigError):
        MainConsensus(cfg)
    # a voting gap that does not cover 3t/n
    no_gap = scaled().with_(set_one=(15, 30), set_zero=(15, 30))
    cfg = SystemConfig(n=64, t=2, seed=1, inputs=(0,) * 64, params=no_gap)
    with pytest.raises(ConfigError):
        MainConsensus(cfg)


# --- fault-free executions -----------------------------------------------

def test_unanimous_inputs_decide_that_value_on_schedule():
    for bit in (0, 1):
        dec, trace, m = run_main(30, 0, (bit,) * 30, seed=4)
        values = {v for v, _ in dec.values()}
        assert values == {bit}
        proto = MainConsensus(SystemConfig(n=30, t=0, seed=4,
                                           inputs=(bit,) * 30, params=scaled()))
        assert m.T == proto.closed_form_T
        assert len(dec) == 30
        assert not m.fallback_triggered


def test_mixed_inputs_agree_across_seeds():
    inputs = tuple(1 if i % 2 else 0 for i in range(32))
    for seed in range(8):
        dec, _, _ = run_main(32, 1, inputs, seed=seed)
        assert len({v for v, _ in dec.values()}) == 1


class SilenceSet(AdversaryStrategy):
    name = "silence"

    def __init__(self, pids):
        self.pids = frozenset(pids)

    def corruptions(self, obs):
        return self.pids


def test_agreement_and_validity_under_silencing():
    n = 64
    for seed in range(5):
        dec, trace, m = run_main(n, 2, (1,) * n, seed=seed,
                                 adversary=SilenceSet({3, 17}))
        honest = {p: v for p, (v, _) in dec.items() if p not in (3, 17)}
        assert len(honest) == n - 2
        assert set(honest.values()) == {1}
        assert trace.verify(2)


def test_fallback_path_reaches_agreement():
    # thresholds that can never be crossed force every operative process
    # into the deterministic fallback
    c = scaled().with_(decide_hi=(31, 30), decide_lo=(-1, 30))
    inputs = tuple(1 if i % 2 else 0 for i in range(32))
    dec, trace, m = run_main(32, 1, inputs, seed=2, constants=c)
    assert m.fallback_triggered
    assert len({v for v, _ in dec.values()}) == 1
    proto = MainConsensus(SystemConfig(n=32, t=1, seed=2, inputs=inputs, params=c))
    assert m.T == proto.closed_form_T + 2  # t + 1 flooding rounds on top


def test_meta_and_metrics_shapes():
    dec, trace, m = run_main(30, 0, (1,) * 30, seed=1)
    proto = MainConsensus(SystemConfig(n=30, t=0, seed=1,
                                       inputs=(1,) * 30, params=scaled()))
    inst = proto.inst
    assert inst.epochs >= 1
    assert proto.epoch_boundaries[-1] == inst.epochs * inst.epoch_rounds
    assert len(m.per_epoch) == inst.epochs
    assert m.revalidate(trace)


def test_determinism_full_protocol():
    inputs = tuple(1 if i % 3 else 0 for i in range(33))
    a = run_main(33, 1, inputs, seed=7, record_level=1)
    b = run_main(33, 1, inputs, seed=7, record_level=1)
    assert a[0] == b[0]
    assert [r.messages for r in a[1].rounds] == [r.messages for r in b[1].rounds]
