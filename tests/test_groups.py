import pytest

from omsim.engine import AdversaryStrategy, SystemConfig, run_execution
from omsim.groups import (
    Instance, ProtoState, build_tree, make_groups,
    group_bits_aggregation, group_bits_spreading,
)
from omsim.params import scaled


class OneEpoch:
    """Driver: aggregate once, spread once, decide the final pair."""

    def __init__(self, inst):
        self.inst = inst

    def meta(self):
        return {}

    def max_rounds(self):
        return self.inst.epoch_rounds + 3

    def run(self, ctx):
        st = ctx.state
        gpair = yield from group_bits_aggregation(self.inst, ctx, st)
        pair = yield from group_bits_spreading(self.inst, ctx, st, gpair)
        if pair is None:
            ctx.decide(("none",))
        else:
            ctx.decide((self.inst.val(pair[0]), self.inst.val(pair[1])))


def run_one_epoch(n, t, inputs, seed=1, adversary=None, provenance=False,
                  record_level=0, constants=None):
    constants = constants or scaled()
    cfg = SystemConfig(n=n, t=t, seed=seed, inputs=tuple(inputs), params=constants)
    inst = Instance(range(1, n + 1), t, seed, constants, provenance=provenance)
    return inst, run_execution(cfg, OneEpoch(inst), adversary, record_level=record_level)


# --- partition and trees -------------------------------------------------

def test_make_groups_balanced_blocks():
    groups = make_groups(tuple(range(1, 11)))
    assert [len(g) for g in groups] == [3, 3, 2, 2]
    assert tuple(p for g in groups for p in g) == tuple(range(1, 11))


def test_make_groups_small():
    assert make_groups((7,)) == [(7,)]
    assert make_groups((1, 2)) == [(1,), (2,)]


def test_build_tree_five():
    layers = build_tree((1, 2, 3, 4, 5))
    assert layers == [
        [(1,), (2,), (3,), (4,), (5,)],
        [(1, 2), (3, 4), (5,)],
        [(1, 2, 3, 4), (5,)],
        [(1, 2, 3, 4, 5)],
    ]


def test_instance_schedule():
    inst = Instance(range(1, 101), 3, 1, scaled())
    # 10 groups of 10, tree depth 4, log2(100) = 7
    assert inst.m == 10
    assert inst.stages == 4
    assert inst.spreading_rounds == 7
    assert inst.epoch_rounds == 3 * 4 + 7
    assert inst.epochs == 3  # ceil(3 * 7 / 10)


# --- fault-free aggregation + spreading ----------------------------------

def test_counts_exact_no_faults():
    inst, (dec, trace, m) = run_one_epoch(5, 0, (1, 1, 0, 1, 0))
    assert all(v == (3, 2) for v, _ in dec.values())
    # unequal tree depths stay in lockstep: everyone decides the same round
    assert len({r for _, r in dec.values()}) == 1
    assert m.T == inst.epoch_rounds + 1


def test_counts_exact_larger():
    inputs = tuple(1 if i % 3 == 0 else 0 for i in range(1, 26))
    inst, (dec, _, _) = run_one_epoch(25, 0, inputs, seed=3)
    assert all(v == (8, 17) for v, _ in dec.values())


def test_provenance_tracks_contributors():
    inst, (dec, _, _) = run_one_epoch(5, 0, (1, 1, 0, 1, 0), provenance=True)
    for pid in range(1, 6):
        ones, zeros = dec[pid][0]
        assert ones == 3 and zeros == 2
    # and in provenance mode the sets themselves are exposed pre-val; rerun
    # the spreading result through a fresh instance to check membership
    cfg_inputs = (1, 1, 0, 1, 0)
    inst2 = Instance(range(1, 6), 0, 1, scaled(), provenance=True)
    contributors_one = frozenset(p for p in range(1, 6) if cfg_inputs[p - 1] == 1)
    assert inst2.unit(1) | inst2.unit(4) == frozenset({1, 4})
    assert len(contributors_one) == 3


class SilenceSet(AdversaryStrategy):
    """Corrupts a fixed set in round 1 and silences it for good."""

    name = "silence"

    def __init__(self, pids):
        self.pids = frozenset(pids)

    def corruptions(self, obs):
        return self.pids

    def silenced(self):
        return self.pids


def test_silenced_source_goes_inoperative_and_count_drops():
    inputs = tuple(1 if i % 2 == 1 else 0 for i in range(1, 26))
    inst, (dec, trace, m) = run_one_epoch(25, 1, inputs, seed=2,
                                          adversary=SilenceSet({2}), record_level=2)
    # pid 2's zero never leaves it: group (1..5) aggregates without it
    assert dec[1][0] == (13, 11)
    for pid in range(3, 26):
        assert dec[pid][0] == (13, 11)
    assert dec[2][0] == ("none",)
    assert m.operative_final == 24
    # the per-round count is read off the same states the snapshot shows
    last = trace.rounds[-1].states
    assert last[2] == {"b": 0, "operative": False, "decided": False, "epoch": 0}
    assert sum(s["operative"] for s in last.values()) == 24
    assert trace.verify(1)


def test_silencing_two_of_five_kills_the_group():
    # a 5-member group tolerates one silent member but not two: every
    # source then misses the self-inclusive majority of confirmations
    inputs = (1,) * 25
    inst, (dec, _, m) = run_one_epoch(25, 2, inputs, seed=2,
                                      adversary=SilenceSet({2, 3}))
    for pid in (1, 4, 5):
        assert dec[pid][0] == ("none",)
    for pid in range(6, 26):
        assert dec[pid][0] == (20, 0)
    assert m.operative_final == 20


# --- spreading traffic ---------------------------------------------------

def test_spreading_sends_each_entry_once_per_direction():
    inst, (dec, trace, _) = run_one_epoch(25, 0, (1,) * 25, seed=5, record_level=1)
    carried = {}
    for rec in trace.rounds:
        for msg in rec.messages or ():
            if msg.payload[0] != "sp":
                continue
            for entry in msg.payload[1]:
                key = (msg.sender, msg.receiver, entry[0])
                assert key not in carried, "entry repeated on a directed edge"
                carried[key] = True
    assert carried  # the gossip actually happened


def test_empty_gossip_messages_cost_nothing():
    inst, (dec, trace, m) = run_one_epoch(9, 0, (1,) * 9, seed=5, record_level=1)
    for rec in trace.rounds:
        for msg in rec.messages or ():
            if msg.payload[0] == "sp" and not msg.payload[1]:
                assert msg.bits == 0
