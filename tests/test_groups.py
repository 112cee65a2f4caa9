from bisect import bisect_left

import pytest

from omsim import groups
from omsim.adversaries import Eclipse
from omsim.consensus import MainConsensus
from omsim.engine import AdversaryStrategy, ProtoState, SystemConfig, run_execution
from omsim.groups import (
    Instance, build_tree, delivery_rule, make_groups, relay_tables,
    group_bits_aggregation, group_bits_spreading,
)
from omsim.harness import make_adversary, make_protocol, resolve_inputs
from omsim.params import acceptance, scaled


class OneEpoch:
    """Driver: aggregate once, spread once, decide the final pair."""

    epoch_boundaries = ()

    def __init__(self, inst):
        self.inst = inst
        self.closed_form_T = inst.epoch_rounds

    def run(self, ctx):
        st = ctx.state
        gpair = yield from group_bits_aggregation(self.inst, ctx, st)
        pair = yield from group_bits_spreading(self.inst, ctx, st, gpair)
        if pair is None:
            ctx.decide(("none",))
        else:
            ctx.decide(pair)


def run_one_epoch(n, t, inputs, seed=1, adversary=None, record_level=0,
                  constants=None):
    constants = constants or scaled()
    cfg = SystemConfig(n=n, t=t, seed=seed, inputs=tuple(inputs), params=constants)
    inst = Instance(range(1, n + 1), t, seed, constants)
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


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 31, 32, 33, 100])
def test_relay_tables_one_role_per_stage(k):
    group = tuple(range(10, 10 + k))     # pids need not start at 1
    layers = build_tree(group)
    roles, peers = relay_tables([group], [layers])
    assert len(roles) == len(layers) and roles[0] == {}
    for p in group:
        assert peers[p] == tuple(q for q in group if q != p)
    for s in range(1, len(layers)):
        table, prev = roles[s], layers[s - 1]
        assert sorted(table) == list(group)          # exactly one role each
        bags = sorted({bag for bag, _ in table.values()})
        assert bags == sorted(layers[s])
        assert sorted(p for bag in bags for p in bag) == list(group)
        for bi, bag in enumerate(layers[s]):
            children = prev[2 * bi:2 * bi + 2]        # build_tree's left, right
            assert sum(children, ()) == bag
            for side, child in zip("LR", children):
                assert {table[p] for p in child} == {(bag, side)}
                # one tuple object per (bag, side): the relay's merge key
                assert len({id(table[p]) for p in child}) == 1


def test_instance_tables_follow_each_groups_depth():
    inst = Instance(range(1, 11), 0, 1, scaled())    # groups 3, 3, 2, 2
    assert inst.stages == 2 and len(inst.roles) == 3
    for p in inst.members:
        depth = len(inst.trees[inst.group_of[p]]) - 1
        assert [p in inst.roles[s] for s in (1, 2)] == [True, depth >= 2]
        assert inst.others(p) == tuple(q for q in inst.members if q != p)
    odd = Instance((4, 9, 11), 0, 1, scaled())
    assert odd.others(9) == (4, 11) and odd.others(4) == (9, 11)


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


def test_gossip_entries_are_shared_tuples():
    inputs = tuple(1 if i % 3 == 0 else 0 for i in range(1, 26))
    inst, (dec, trace, _) = run_one_epoch(25, 0, inputs, seed=3, record_level=1)
    by_group = {}
    for rec in trace.rounds:
        for msg in rec.messages:
            if msg.payload[0] == "sp":
                for entry in msg.payload[1]:
                    by_group.setdefault(entry[0], []).append(entry)
    assert sorted(by_group) == list(range(inst.m))
    for i, carried in by_group.items():
        group = inst.groups[i]
        ones = sum(inputs[p - 1] for p in group)
        assert all(e == (i, ones, len(group) - ones) for e in carried)
        # built once per member of group i, then only passed on
        assert len({id(e) for e in carried}) <= len(group)
    assert all(v == (8, 17) for v, _ in dec.values())


# --- the shared receive step ---------------------------------------------

def test_delivery_rule_reads_one_kind_and_disregards_the_silent():
    st = ProtoState(0)
    st.disregarded = {9}
    inbox = [(2, ("sp", "b2")), (3, ("fl", "x")), (5, ("sp", ())), (7, ("sp", "b7")),
             (9, ("sp", "b9"))]
    active, bodies = delivery_rule(st, [2, 3, 5, 7], inbox, "sp", 4, 1)
    # 3 sent only another kind: silent here; 9 stays disregarded
    assert active == [2, 5, 7]
    assert st.disregarded == {3, 9}
    assert list(bodies.items()) == [(2, "b2"), (5, ()), (7, "b7")]
    assert not st.operative          # heard 3 of 4 with divisor 1


def test_delivery_rule_threshold_over_divisor():
    inbox = [(1, ("fl", None)), (4, ("fl", 1))]
    for threshold, operative in ((4, True), (5, False)):
        st = ProtoState(0)
        active, bodies = delivery_rule(st, [1, 4, 6], inbox, "fl", threshold, 2)
        assert active == [1, 4] and st.disregarded == {6}
        assert bodies == {1: None, 4: 1}
        assert st.operative is operative   # heard 2: 2 * 2 < threshold?
    st = ProtoState(0)
    active, bodies = delivery_rule(st, [1, 4], inbox, "fl", 4, 2)
    assert active == [1, 4] and not st.disregarded and st.operative


class SilenceSet(AdversaryStrategy):
    """Corrupts a fixed set in round 1 and silences it for good."""

    name = "silence"

    def __init__(self, pids):
        self.pids = frozenset(pids)

    def corruptions(self, obs):
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

def gossip_edge_violations(trace, epoch_boundaries):
    """Breaches of the gossip's per-edge rule in a record_level=1 trace.
    Within one epoch, p->q carries group index i at most once, and never in
    a round after one in which a q->p message carrying i reached p."""
    carried = set()   # (epoch, sender, receiver, i)
    reached = {}      # (epoch, sender, receiver, i) -> round it was delivered
    violations = []
    for rec in trace.rounds:
        epoch = bisect_left(epoch_boundaries, rec.index)
        omitted = {(m.sender, m.receiver) for m in rec.omitted_messages}
        sp = [m for m in rec.messages if m.payload[0] == "sp"]
        for m in sp:
            for i, _, _ in m.payload[1]:
                key = (epoch, m.sender, m.receiver, i)
                if key in carried:
                    violations.append(("again", rec.index) + key)
                if reached.get((epoch, m.receiver, m.sender, i), rec.index) < rec.index:
                    violations.append(("back", rec.index) + key)
                carried.add(key)
        for m in sp:
            if (m.sender, m.receiver) not in omitted:
                for i, _, _ in m.payload[1]:
                    reached.setdefault((epoch, m.sender, m.receiver, i), rec.index)
    return violations, len(carried)


def test_spreading_sends_each_entry_once_per_direction():
    inst, (dec, trace, _) = run_one_epoch(25, 0, (1,) * 25, seed=5, record_level=1)
    violations, carried = gossip_edge_violations(trace, ())
    assert not violations, violations[:5]
    assert carried  # the gossip actually happened


# rotation 3 leaves the targets operative through the gossip, so some of
# their `sp` messages are lost and the "never back" rule meets omissions
@pytest.mark.parametrize("adversary, opts", [
    ("none", None), ("eclipse", {"targets": [7, 40], "rotation": 3})])
@pytest.mark.parametrize("seed", [0, 1])
def test_gossip_never_sends_an_edge_what_it_carried(adversary, opts, seed):
    n, t = 64, 2
    cfg = SystemConfig(n=n, t=t, seed=seed, inputs=resolve_inputs(None, n),
                       params=acceptance())
    protocol = make_protocol(cfg)
    _, trace, _ = run_execution(cfg, protocol, make_adversary(adversary, n, t, opts),
                                record_level=1)
    violations, carried = gossip_edge_violations(trace, protocol.epoch_boundaries)
    assert not violations, violations[:5]
    assert carried > n       # the gossip ran
    lost = sum(o.payload[0] == "sp" for r in trace.rounds for o in r.omitted_messages)
    assert (lost > 0) == (adversary == "eclipse")


def test_empty_gossip_messages_cost_nothing():
    inst, (dec, trace, m) = run_one_epoch(9, 0, (1,) * 9, seed=5, record_level=1)
    for rec in trace.rounds:
        for msg in rec.messages or ():
            if msg.payload[0] == "sp" and not msg.payload[1]:
                assert msg.bits == 0


# --- the relay against a per-member reference ----------------------------

def reference_relay(inst, ctx, st, stage, counts_in):
    """The relay as each member computed it on its own, before members
    that know of the same sources shared one merge: the oracle for
    `group_relay`'s outbox entries, their order and its result."""
    pid = ctx.pid
    peers = inst.peers[pid]
    W = len(peers) + 1
    roles = inst.roles[stage]
    my_bag = roles[pid][0]
    pair_bits = 2 * inst.cb
    sourcing = st.operative and counts_in is not None

    if sourcing:
        own = ("rc",) + counts_in
        ctx.broadcast(peers, own, 1 + pair_bits)
    inbox = yield

    # role -> (sender, payload) of its lowest sender, own role first
    merged = {roles[pid]: (pid, own)} if sourcing else {}
    heard = []
    for item in inbox:
        s, payload = item
        if payload[0] == "rc":
            heard.append(s)
            role = roles[s]
            first = merged.get(role)
            if first is None or s < first[0]:
                merged[role] = item

    ctx.broadcast(heard, ("rk",), 1)
    inbox = yield
    if sourcing:
        confirmations = 1 + [payload for _, payload in inbox].count(("rk",))
        if 2 * confirmations < W + 2:
            st.operative = False
            sourcing = False

    by_bag = {}
    for (bag, _), (_, payload) in merged.items():
        by_bag.setdefault(bag, []).append(payload[1:])
    for bag, entries in by_bag.items():
        entries = by_bag[bag] = tuple(sorted(entries))
        if bag is my_bag:
            i = bag.index(pid)
            bag = bag[:i] + bag[i + 1:]
        ctx.broadcast(bag, ("rm", entries), len(entries) * (1 + pair_bits))
    inbox = yield
    if not sourcing:
        return None

    candidates = [(s, payload[1]) for s, payload in inbox if payload[0] == "rm"]
    candidates.append((pid, by_bag[my_bag]))
    candidates.sort()
    result = {}
    for _, entries in candidates:
        for side, ones, zeros in entries:
            result.setdefault(side, (ones, zeros))
    if 2 * len(candidates) < W + 2:
        st.operative = False
        return None
    return result


class Tap:
    """Stands in for a Context: keeps each outbox entry the engine would
    queue, and passes it on to the real context when there is one."""

    def __init__(self, pid, ctx=None):
        self.pid = pid
        self.ctx = ctx
        self.entries = []

    @property
    def round(self):
        return self.ctx.round

    def broadcast(self, receivers, payload, bits):
        if receivers:
            self.entries.append((tuple(receivers), payload, bits))
        if self.ctx is not None:
            self.ctx.broadcast(receivers, payload, bits)


def relay_against_reference(monkeypatch):
    """Route every relay call through a check against `reference_relay`
    run on the same inboxes; returns the calls seen, one
    (round, pid, stage, counts_in, known sources, result) each."""
    real_relay = groups.group_relay
    calls = []

    def checked(inst, ctx, st, stage, counts_in):
        ref_st = ProtoState(st.b)
        ref_st.operative = st.operative
        sourced = st.operative and counts_in is not None
        tap, ref_tap = Tap(ctx.pid, ctx), Tap(ctx.pid)
        gens = (real_relay(inst, tap, st, stage, counts_in),
                reference_relay(inst, ref_tap, ref_st, stage, counts_in))
        rnd, inbox, known = ctx.round, None, None
        while True:
            stops = []
            for gen in gens:
                try:
                    gen.send(inbox)
                    stops.append(None)
                except StopIteration as stop:
                    stops.append(stop)
            assert tap.entries == ref_tap.entries, (ctx.round, ctx.pid)
            tap.entries, ref_tap.entries = [], []
            if stops != [None, None]:
                assert None not in stops
                result = stops[0].value
                assert result == stops[1].value
                assert st.operative == ref_st.operative
                calls.append((rnd, ctx.pid, stage, counts_in, known, result))
                return result
            inbox = yield
            if known is None:
                known = frozenset([s for s, pl in inbox if pl[0] == "rc"]
                                  + ([ctx.pid] if sourced else []))

    monkeypatch.setattr(groups, "group_relay", checked)
    return calls


def run_main_checked(monkeypatch, n, t, inputs, adversary=None):
    calls = relay_against_reference(monkeypatch)
    cfg = SystemConfig(n=n, t=t, seed=1, inputs=tuple(inputs), params=scaled())
    proto = MainConsensus(cfg)
    dec, _, _ = run_execution(cfg, proto, adversary)
    return proto.inst, calls, dec


def test_relay_matches_reference_without_faults(monkeypatch):
    inputs = tuple(1 if i % 3 else 0 for i in range(64))
    inst, calls, dec = run_main_checked(monkeypatch, 64, 0, inputs)
    # every member runs each stage of its own tree once per epoch
    assert len(calls) == inst.epochs * sum(
        len(g) * (len(tree) - 1) for g, tree in zip(inst.groups, inst.trees))
    assert any(result is not None for *_, result in calls)
    assert len({v for v, _ in dec.values()}) == 1


def test_relay_matches_reference_when_peers_know_different_sources(monkeypatch):
    inputs = tuple(i % 2 for i in range(64))
    inst, calls, dec = run_main_checked(monkeypatch, 64, 2, inputs,
                                        adversary=SilenceSet({2}))
    # in one round, members of one group merge different source sets
    seen = {}
    for rnd, pid, stage, _, known, _ in calls:
        seen.setdefault((rnd, inst.group_of[pid]), set()).add(known)
    assert any(len(sets) > 1 for sets in seen.values())
    honest = {v for p, (v, _) in dec.items() if p != 2}
    assert len(honest) == 1


def test_relay_matches_reference_across_eclipsed_epochs(monkeypatch):
    inputs = tuple(i % 2 for i in range(64))
    inst, calls, dec = run_main_checked(monkeypatch, 64, 2, inputs,
                                        adversary=Eclipse({5}, rotation=2))
    assert inst.epochs >= 2
    # the same member's counts for the same stage moved between epochs, so
    # a merge kept from an earlier round would have shown
    per_slot = {}
    for rnd, pid, stage, counts_in, _, _ in calls:
        if counts_in is not None:
            per_slot.setdefault((pid, stage), set()).add(counts_in)
    assert any(len(seen) > 1 for seen in per_slot.values())
    honest = {v for p, (v, _) in dec.items() if p != 5}
    assert len(honest) == 1
