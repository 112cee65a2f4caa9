import pytest

from omsim.adversaries import (
    CoinBiaser, CrashAsOmission, Eclipse, ScheduleExceedsBudget, load_schedule,
)
from omsim.consensus import MainConsensus
from omsim.engine import AdversaryStrategy, SystemConfig, run_execution
from omsim.groups import Instance
from omsim.params import scaled

from test_engine import run_reference
from test_groups import OneEpoch


def run_main(n, t, inputs, seed=1, adversary=None, **kw):
    cfg = SystemConfig(n=n, t=t, seed=seed, inputs=tuple(inputs), params=scaled())
    return run_execution(cfg, MainConsensus, adversary, **kw)


def test_schedule_parsing():
    sched = load_schedule("# header\n1: 3 4\n5: 9\n")
    assert sched == {1: frozenset({3, 4}), 5: frozenset({9})}


def test_none_matches_closed_form():
    dec, trace, m = run_main(32, 1, (1,) * 32, adversary=AdversaryStrategy())
    assert trace.corrupted == {}
    proto = MainConsensus(SystemConfig(n=32, t=1, seed=1,
                                       inputs=(1,) * 32, params=scaled()))
    assert m.T == proto.closed_form_T


def test_crash_budget_checked():
    cfg = SystemConfig(n=32, t=1, seed=1, inputs=(1,) * 32, params=scaled())
    with pytest.raises(ScheduleExceedsBudget):
        run_execution(cfg, MainConsensus, CrashAsOmission({1: {1, 2}}))


def test_crash_empty_schedule_is_none():
    inputs = tuple(1 if i % 2 else 0 for i in range(32))
    a = run_main(32, 1, inputs, seed=3, adversary=AdversaryStrategy(), record_level=1)
    b = run_main(32, 1, inputs, seed=3, adversary=CrashAsOmission({}),
                 record_level=1)
    assert a[0] == b[0]
    assert [r.messages for r in a[1].rounds] == [r.messages for r in b[1].rounds]


def test_crash_operative_floor():
    n, t = 64, 2
    dec, trace, m = run_main(n, t, (1,) * n, seed=5,
                             adversary=CrashAsOmission({1: {1, 2}}))
    for entry in m.per_epoch:
        assert entry["operative"] >= n - 3 * t
    honest = {p: v for p, (v, _) in dec.items() if p not in (1, 2)}
    assert set(honest.values()) == {1}
    assert trace.verify(t)


def test_crash_whole_group_leaves_other_counts_intact():
    # one epoch: crashing all of the first group removes exactly its
    # members from everybody else's final counts
    n, crashed = 25, {1, 2, 3, 4, 5}
    inputs = tuple(1 for _ in range(n))
    cfg = SystemConfig(n=n, t=5, seed=2, inputs=inputs, params=scaled())
    inst = Instance(range(1, n + 1), 5, 2, scaled())
    dec, _, _ = run_execution(cfg, OneEpoch(inst),
                              CrashAsOmission({1: crashed}))
    for pid in range(6, n + 1):
        ones, zeros = dec[pid][0]
        assert ones == n - len(crashed) and zeros == 0


def test_eclipse_agreement_and_floor():
    n, t = 64, 2
    for seed in range(4):
        dec, trace, m = run_main(n, t, (0,) * n, seed=seed,
                                 adversary=Eclipse({7}, rotation=2))
        honest = {p: v for p, (v, _) in dec.items() if p != 7}
        assert set(honest.values()) == {0}
        assert m.operative_min >= n - 3 * t
        assert trace.verify(t)


def test_eclipse_rotation_one_equals_crash():
    inputs = tuple(1 if i % 2 else 0 for i in range(32))
    a = run_main(32, 1, inputs, seed=4,
                 adversary=Eclipse({3}, rotation=1), record_level=1)
    b = run_main(32, 1, inputs, seed=4,
                 adversary=CrashAsOmission({1: {3}}), record_level=1)
    # crash also blocks incoming, eclipse only outgoing: the honest
    # decisions agree even though traces may differ
    assert {p: v for p, (v, _) in a[0].items() if p != 3} \
        == {p: v for p, (v, _) in b[0].items() if p != 3}
    # and no message from 3 is ever delivered in either run
    for _, trace, _ in (a, b):
        for rec in trace.rounds:
            delivered = [m for m in rec.messages if m.sender == 3
                         and m not in (rec.omitted_messages or [])]
            assert not delivered or all(
                m in rec.omitted_messages for m in rec.messages if m.sender == 3)


def test_coin_biaser_zero_budget_is_none():
    inputs = tuple(1 if i % 2 else 0 for i in range(32))
    a = run_main(32, 0, inputs, seed=6, adversary=CoinBiaser(1),
                 record_level=1)
    b = run_main(32, 0, inputs, seed=6, adversary=AdversaryStrategy(), record_level=1)
    assert a[0] == b[0]
    assert [r.messages for r in a[1].rounds] == [r.messages for r in b[1].rounds]


def test_coin_biaser_validity_pressure():
    # unanimous zeros: no draws ever happen, direction-1 bias cannot move it
    dec, _, m = run_main(64, 2, (0,) * 64, seed=1,
                         adversary=CoinBiaser(1))
    assert {v for v, _ in dec.values()} == {0}


def test_coin_biaser_mixed_inputs_still_decide():
    inputs = tuple(1 if i % 2 else 0 for i in range(64))
    for seed in range(4):
        dec, trace, _ = run_main(64, 2, inputs, seed=seed,
                                 adversary=CoinBiaser(0))
        honest = {v for p, (v, _) in dec.items() if p not in trace.corrupted}
        assert len(honest) == 1
        assert trace.verify(2)


class GeneralCrash(AdversaryStrategy):
    """Per-link replica of CrashAsOmission: drops every link of a crashed
    process through the link filter, with nothing silenced."""
    name = "crash-general"

    def __init__(self, schedule):
        self.schedule = schedule
        self.crashed = set()
        self._round = 0

    def corruptions(self, obs):
        self._round += 1
        due = self.schedule.get(self._round, frozenset())
        self.crashed |= due
        return due

    def link_filter(self, rnd, sender, receiver, payload):
        return sender not in self.crashed and receiver not in self.crashed


def run_all_three(shipped, general):
    """The engine under a shipped strategy and under its per-link replica,
    and the reference delivery step under the replica: three whole
    record_level=1 traces that must agree."""
    inputs = tuple(1 if i % 3 else 0 for i in range(32))
    runs = [run_main(32, 1, inputs, seed=8, adversary=shipped, record_level=1),
            run_main(32, 1, inputs, seed=8, adversary=general(), record_level=1)]
    cfg = SystemConfig(n=32, t=1, seed=8, inputs=inputs, params=scaled())
    runs.append(run_reference(cfg, MainConsensus, general(), record_level=1))
    for dec, trace, m in runs[1:]:
        assert dec == runs[0][0]
        assert (m.comm_bits, m.omitted_msgs) == (runs[0][2].comm_bits, runs[0][2].omitted_msgs)
        assert [repr(r) for r in trace.rounds] == [repr(r) for r in runs[0][1].rounds]
    return runs[0]


def test_fast_and_general_crash_paths_agree():
    sched = {2: frozenset({5})}
    _, trace, m = run_all_three(CrashAsOmission(sched), lambda: GeneralCrash(dict(sched)))
    assert m.omitted_msgs > 0 and trace.corrupted == {5: 2}


class GeneralEclipse(AdversaryStrategy):
    """Per-link replica of Eclipse: corrupts the targets in round 1 (naming
    them again later corrupts no one new) and drops a target's message to q
    in round r iff (q + r) % rotation == 0."""
    name = "eclipse-general"

    def __init__(self, targets, rotation):
        self.targets = frozenset(targets)
        self.rotation = rotation

    def corruptions(self, obs):
        return self.targets

    def link_filter(self, rnd, sender, receiver, payload):
        return not (sender in self.targets and (receiver + rnd) % self.rotation == 0)


@pytest.mark.parametrize("rotation", [2, 3])
def test_fast_and_general_eclipse_paths_agree(rotation):
    _, _, m = run_all_three(Eclipse({5}, rotation), lambda: GeneralEclipse({5}, rotation))
    assert m.omitted_msgs > 0
