import gc
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import omsim
from omsim.adversaries import Eclipse
from omsim.engine import (
    Engine, SystemConfig, Message, AdversaryStrategy, run_execution,
    ConfigError, AdversaryViolation, LivenessFailure,
    count_bits, group_index_bits, chain_bits, log2_ceil, isqrt_ceil,
)
from omsim.harness import make_adversary, make_protocol, resolve_inputs
from omsim.metrics import Metrics
from omsim.params import acceptance


class Echo:
    """Toy protocol: broadcast the input bit, decide the minimum bit seen.
    One communication round, decisions in round 2."""

    closed_form_T = 2
    epoch_boundaries = ()

    def __init__(self, config):
        self.config = config

    def run(self, ctx):
        n = ctx.n
        others = [q for q in range(1, n + 1) if q != ctx.pid]
        ctx.broadcast(others, ("bit", ctx.input), 1)
        inbox = yield
        seen = {ctx.input} | {bit for _, (_, bit) in inbox}
        ctx.decide(min(seen))


class Coin(Echo):
    """Draws one random bit before deciding, to exercise R's accounting."""

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
    assert [r.rand_accesses for r in trace.rounds] == [3, 0]


class ReferenceEngine(Engine):
    """The engine with an independent delivery step, written the plain way:
    one Message per receiver, the adversary's predicate on each (a link
    with a corrupted endpoint only if the strategy's link filter keeps it,
    asked link by link even where the class keeps the default), and the
    list of kept ones, appended to the inboxes of the receivers still
    running."""

    def _deliver_fast(self, outbox, inbox, gens, rec):
        corrupted, rnd, strategy = self.trace.corrupted, self.round, self.adversary

        def keeps(m):
            if m.sender in corrupted or m.receiver in corrupted:
                return strategy.link_filter(rnd, m.sender, m.receiver, m.payload)
            return True

        pending = [Message(sender, q, payload, b)
                   for sender, receivers, payload, b in outbox for q in receivers]
        verdicts = [keeps(m) for m in pending]
        omitted = [m for m, keep in zip(pending, verdicts) if not keep]
        rec.sent, rec.bits, rec.omitted = (len(pending), sum(m.bits for m in pending),
                                           len(omitted))
        if self.record_level >= 1:
            rec.messages, rec.omitted_messages = pending, omitted
        for m, keep in zip(pending, verdicts):
            if keep and gens[m.receiver] is not None:
                inbox[m.receiver].append((m.sender, m.payload))


def run_reference(config, protocol, adversary, record_level=1):
    """run_execution with the reference delivery step."""
    protocol = protocol(config) if callable(protocol) else protocol
    eng = ReferenceEngine(config, protocol, adversary, record_level=record_level)
    decisions, trace = eng.run()
    return decisions, trace, Metrics.from_engine(eng)


class OmitAllFromOne(AdversaryStrategy):
    """Corrupts process 1 and drops every message it sends."""
    name = "test-hook"

    def corruptions(self, obs):
        return (1,)

    def link_filter(self, rnd, sender, receiver, payload):
        return sender != 1


def test_general_hook_path_silences_sender():
    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    dec, trace, m = run_execution(cfg, Echo, OmitAllFromOne(), record_level=1)
    # nobody saw process 1's zero, so survivors decide 1
    assert dec[2][0] == dec[3][0] == dec[4][0] == 1
    assert m.omitted_msgs == 3
    assert trace.corrupted == {1: 1}
    assert trace.verify(cfg.t)
    reference = run_reference(cfg, Echo, OmitAllFromOne())
    assert [repr(r) for r in trace.rounds] == [repr(r) for r in reference[1].rounds]


class CorruptSilenceOne(AdversaryStrategy):
    """Corrupts process 1 and keeps the default filter, which cuts it off."""

    def corruptions(self, obs):
        return (1,)


class CorruptSilenceOneByFilter(CorruptSilenceOne):
    """The same, through an overriding filter that drops every link."""

    def link_filter(self, rnd, sender, receiver, payload):
        return False


class CorruptSilenceOneDecidingNothing(CorruptSilenceOne):
    """Corrupts process 1, with a link filter that keeps every link."""

    def link_filter(self, rnd, sender, receiver, payload):
        return True


def test_decide_strategy_keeps_its_silenced_set():
    # the default filter, applied as one set, equals an override that drops
    # every link and the reference asking about each link
    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    runs = [run_execution(cfg, Echo, CorruptSilenceOne(), record_level=1),
            run_execution(cfg, Echo, CorruptSilenceOneByFilter(), record_level=1),
            run_reference(cfg, Echo, CorruptSilenceOne())]
    for dec, trace, m in runs:
        assert [repr(r) for r in trace.rounds] == [repr(r) for r in runs[0][1].rounds]
        assert dec == runs[0][0] and m.omitted_msgs == 6
    assert runs[0][0][2][0] == runs[0][0][3][0] == runs[0][0][4][0] == 1
    # an override that keeps every link cuts nothing off
    dec, trace, m = run_execution(cfg, Echo, CorruptSilenceOneDecidingNothing(),
                                  record_level=1)
    assert trace.corrupted == {1: 1} and m.omitted_msgs == 0
    assert not any(r.omitted_messages for r in trace.rounds)
    assert dec[2][0] == dec[3][0] == dec[4][0] == 0


def test_hook_strategy_budget_enforced():
    class Greedy(OmitAllFromOne):
        def corruptions(self, obs):
            return (1, 2)

    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    with pytest.raises(AdversaryViolation):
        run_execution(cfg, Echo, Greedy())
    assert gc.isenabled()   # the run paused the collector and gave it back


class FilterAll(AdversaryStrategy):
    """Corrupts process 1 and keeps its messages to the receivers `keep`
    accepts."""

    def __init__(self, keep):
        self.keep = keep

    def corruptions(self, obs):
        return (1,)

    def link_filter(self, rnd, sender, receiver, payload):
        return sender != 1 or self.keep(receiver)


def test_send_filter_drops_are_omissions():
    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    dec, trace, m = run_execution(cfg, Echo, FilterAll(lambda q: q != 2), record_level=1)
    assert m.sent_msgs == 12 and m.omitted_msgs == 1
    assert [(o.sender, o.receiver) for o in trace.rounds[0].omitted_messages] == [(1, 2)]
    assert dec[2][0] == 1 and dec[3][0] == dec[4][0] == 0
    assert m.revalidate(trace) and trace.verify(cfg.t)


class Broadcaster(Echo):
    """Every process sends ("x", pid) to every other process in each of
    four rounds, as one broadcast entry per round."""

    closed_form_T = 5

    def sends(self, ctx, others):
        ctx.broadcast(others, ("x", ctx.pid), 1)

    def run(self, ctx):
        others = [q for q in range(1, ctx.n + 1) if q != ctx.pid]
        for _ in range(4):
            self.sends(ctx, others)
            yield
        ctx.decide(0)


class Unicaster(Broadcaster):
    """The same messages, as one one-receiver entry per receiver, in
    descending receiver order."""

    def sends(self, ctx, others):
        for q in reversed(others):
            ctx.broadcast((q,), ("x", ctx.pid), 1)


@pytest.mark.parametrize("rotation", [2, 3])
def test_eclipse_omits_the_same_links_however_sends_are_grouped(rotation):
    cfg = SystemConfig(n=7, t=2, seed=5, inputs=(0,) * 7)

    def links(protocol):
        _, trace, m = run_execution(cfg, protocol, Eclipse({2, 5}, rotation),
                                    record_level=1)
        assert m.revalidate(trace) and trace.verify(cfg.t)
        omitted = {(r.index, o.sender, o.receiver)
                   for r in trace.rounds for o in r.omitted_messages}
        sent = {(r.index, o.sender, o.receiver)
                for r in trace.rounds for o in r.messages}
        return sent - omitted, omitted

    delivered, omitted = links(Broadcaster)
    assert (delivered, omitted) == links(Unicaster)
    assert omitted == {(r, s, q) for r in range(1, 5) for s in (2, 5)
                       for q in range(1, 8) if q != s and (q + r) % rotation == 0}


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
    assert gc.isenabled()   # the run paused the collector and gave it back


def test_round_budget_is_closed_form_plus_t_plus_8():
    class Endless(Echo):
        closed_form_T = 3

        def run(self, ctx):
            while True:
                yield

    cfg = SystemConfig(n=3, t=1, seed=5, inputs=(0, 0, 0))
    eng = Engine(cfg, Endless(cfg), None)
    with pytest.raises(LivenessFailure, match="round budget 12 exceeded"):
        eng.run()
    assert eng.round == 3 + 1 + 8 + 1
    assert len(eng.trace.rounds) == 12


def test_metrics_revalidate_and_trace_verify():
    cfg = SystemConfig(n=4, t=1, seed=9, inputs=(0, 1, 0, 1))
    dec, trace, m = run_execution(cfg, Echo, OmitAllFromOne(), record_level=1)
    assert m.revalidate(trace)
    assert trace.verify(cfg.t)
    # the recount reads the recorded messages, so a tampered tally fails it
    trace.rounds[0].bits += 1
    with pytest.raises(AssertionError):
        m.revalidate(trace)
    # and the recorded draws, so a tampered randomness count fails it too
    cfg = SystemConfig(n=4, t=0, seed=9, inputs=(0, 1, 0, 1))
    _, trace, m = run_execution(cfg, Coin, record_level=1)
    assert trace.rounds[0].draws.keys() == {1, 2, 3, 4}
    assert m.revalidate(trace)
    trace.rounds[0].rand_accesses -= 1
    with pytest.raises(AssertionError):
        m.revalidate(trace)


# `python -O` strips assert statements; the record checks must still raise
TAMPERED = """
from omsim.engine import SystemConfig, run_execution
from omsim.harness import make_protocol
from omsim.params import acceptance
assert False, "asserts are not stripped"
cfg = SystemConfig(n=31, t=1, seed=3, inputs=(0, 1) * 15 + (0,), params=acceptance())
_, trace, m = run_execution(cfg, make_protocol(cfg), record_level=1)
trace.rounds[{index}].{field} += {delta}
{check}
"""


@pytest.mark.parametrize("index, field, delta, check", [
    (0, "bits", 1, "m.revalidate(trace)"),
    (-1, "operative", 1, "trace.verify(cfg.t)"),
])
def test_record_checks_raise_under_python_O(index, field, delta, check):
    script = TAMPERED.format(index=index, field=field, delta=delta, check=check)
    env = dict(os.environ, PYTHONPATH=str(Path(omsim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1].startswith("AssertionError: round ")


class SeesCollector(Echo):
    """Echo that notes, in its first local phase, whether the cyclic
    collector runs."""

    def __init__(self, config):
        super().__init__(config)
        self.seen = []

    def run(self, ctx):
        self.seen.append(gc.isenabled())
        yield from super().run(ctx)


def test_run_pauses_the_collector_and_restores_its_state():
    cfg = SystemConfig(n=4, t=0, seed=5, inputs=(0, 1, 1, 1))
    assert gc.isenabled()
    protocol = SeesCollector(cfg)
    run_execution(cfg, protocol)
    assert protocol.seen == [False] * 4 and gc.isenabled()
    # a run started with the collector off leaves it off
    gc.disable()
    try:
        protocol = SeesCollector(cfg)
        run_execution(cfg, protocol)
        assert protocol.seen == [False] * 4 and not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("adversary", ["none", "coin-biaser"])
def test_messages_to_finished_processes_still_count(adversary):
    # main at n=64 falls back: in its last round every process broadcasts
    # the fallback's value and finishes, so no running process is left to
    # deliver to; the counts must still hold every `fd` message
    n, t = 64, 2
    cfg = SystemConfig(n=n, t=t, seed=0, inputs=resolve_inputs(None, n),
                       params=acceptance())
    runs = [run_execution(cfg, make_protocol(cfg), make_adversary(adversary, n, t),
                          record_level=level) for level in (0, 1)]
    (_, plain, _), (dec, trace, m) = runs
    assert len(dec) == n and {r for _, r in dec.values()} == {m.T}
    last = trace.rounds[-1]
    assert {msg.payload[0] for msg in last.messages} == {"fd"}
    assert last.sent == len(last.messages) == n * (n - 1) == last.bits
    assert last.omitted == len(last.omitted_messages)
    if adversary != "none":
        assert last.omitted > 0         # silenced endpoints, counted too
    assert m.revalidate(trace)
    assert [(r.sent, r.bits, r.omitted) for r in plain.rounds] == \
        [(r.sent, r.bits, r.omitted) for r in trace.rounds]


class AllToAll:
    """Every process sends ("a", pid, r) to ctx.others in each of three
    rounds, odd pids a second entry in round 2; process 3 also sends one
    message to process 1 in round `unicast`, and process `early` finishes
    after round 1. Each inbox a process gets is kept in `inboxes`."""

    closed_form_T = 4
    epoch_boundaries = ()

    def __init__(self, config, unicast=None, early=None):
        self.unicast, self.early = unicast, early
        self.inboxes = {}

    def run(self, ctx):
        for r in range(1, 4):
            ctx.broadcast(ctx.others, ("a", ctx.pid, r), 1)
            if r == 2 and ctx.pid % 2:
                ctx.broadcast(ctx.others, ("b", ctx.pid), 2)
            if r == self.unicast and ctx.pid == 3:
                ctx.broadcast((1,), ("u", r), 1)
            self.inboxes[r, ctx.pid] = yield
            if ctx.pid == self.early:
                break
        ctx.decide(0)


class SilenceTwoAndFive(AdversaryStrategy):
    """Corrupts 2 and 5 and keeps the default filter."""

    def corruptions(self, obs):
        return (2, 5)


def appended_inboxes(trace, running):
    """Each running receiver's inbox rebuilt from the trace by appends: the
    round's delivered messages in send order, less one of each omitted."""
    boxes = {}
    for rec in trace.rounds:
        dropped = Counter(rec.omitted_messages)
        for m in rec.messages:
            if dropped[m]:
                dropped[m] -= 1
            elif (rec.index, m.receiver) in running:
                boxes.setdefault((rec.index, m.receiver), []).append((m.sender, m.payload))
    return {key: boxes.get(key, []) for key in running}


@pytest.mark.parametrize("adversary, options", [
    (AdversaryStrategy, {}),
    (SilenceTwoAndFive, {}),
    (lambda: FilterAll(lambda q: q != 2), {}),   # one dropped link: appends
    (AdversaryStrategy, {"unicast": 2}),         # a one-receiver entry: appends
    (AdversaryStrategy, {"early": 4}),
    (OmitAllFromOne, {}),                        # filter omissions: appends
    (CorruptSilenceOneDecidingNothing, {}),
])
def test_board_inboxes_equal_appended_inboxes(adversary, options):
    cfg = SystemConfig(n=7, t=2, seed=5, inputs=(0,) * 7)
    runs = []
    for level in (0, 1):
        protocol = AllToAll(cfg, **options)
        _, trace, _ = run_execution(cfg, protocol, adversary(), record_level=level)
        runs.append(protocol.inboxes)
    assert runs[0] == runs[1]
    inboxes = runs[1]
    assert len(inboxes) == (19 if options.get("early") else 21)
    assert inboxes == appended_inboxes(trace, set(inboxes))
    assert all(s != q for (_, q), box in inboxes.items() for s, _ in box)


@pytest.mark.parametrize("protocol, x", [("main", 1), ("tradeoff", 4)])
def test_all_to_all_kinds_go_to_ctx_others(monkeypatch, protocol, x):
    # the inner runs' dissemination goes to their own block's members, so
    # only the trade-off's rounds after its phases must use ctx.others
    seen = set()
    deliver = Engine._deliver_fast

    def checked(self, outbox, *args):
        for sender, receivers, payload, _ in outbox:
            if payload[0] in ("sv", "fb", "fd") or (
                    payload[0] == "dv" and self.round > after_phases):
                assert receivers is self.others[sender], (self.round, payload)
                seen.add(payload[0])
        return deliver(self, outbox, *args)

    monkeypatch.setattr(Engine, "_deliver_fast", checked)
    n = 64 if protocol == "main" else 128
    for inputs in ("alternating", "ones"):
        cfg = SystemConfig(n=n, t=2, seed=0, inputs=resolve_inputs(inputs, n),
                           params=acceptance())
        proto = make_protocol(cfg, protocol, x)
        after_phases = sum(getattr(proto, "phase_budgets", ()))
        run_execution(cfg, proto)
    assert seen == ({"dv", "fb", "fd"} if protocol == "main" else {"dv", "sv", "fb", "fd"})


def test_corrupting_a_pid_outside_1_to_n_is_a_violation():
    class OutOfRange(AdversaryStrategy):
        def corruptions(self, obs):
            return (9,)

    with pytest.raises(AdversaryViolation, match="outside 1..7"):
        run_execution(SystemConfig(n=7, t=2, seed=5, inputs=(0,) * 7), Echo, OutOfRange())


class DropOneIncoming(AdversaryStrategy):
    """Corrupts 2 and 5 and drops one link into a corrupted receiver: 4's
    message to 2 in round 2."""

    def corruptions(self, obs):
        return (2, 5)

    def link_filter(self, rnd, sender, receiver, payload):
        return (rnd, sender, receiver) != (2, 4, 2)


class DropKind(DropOneIncoming):
    """Corrupts 2 and 5 and drops every "b" message on their links, in both
    directions."""

    def link_filter(self, rnd, sender, receiver, payload):
        return payload[0] != "b"


class CutOffLookalike(DropOneIncoming):
    """Corrupts 2 and 5, drops every link into them and their links to 1
    and 3: each entry to ctx.others loses as many receivers as cutting off
    2 and 5 would, but not the same ones."""

    def link_filter(self, rnd, sender, receiver, payload):
        return sender in (2, 5) and receiver not in (1, 3)


class Recording(AdversaryStrategy):
    """Corrupts 2 in round 1 and 5 in round 2, drops a fixed third of the
    links it is asked about and notes every question."""

    def start(self, config, protocol):
        self.asked = []

    def corruptions(self, obs):
        return {1: (2,), 2: (5,)}.get(obs.round, ())

    def link_filter(self, rnd, sender, receiver, payload):
        self.asked.append((rnd, sender, receiver, payload))
        return (sender + receiver + rnd) % 3 != 0


def omitted_links(trace):
    return {(r.index, o.sender, o.receiver, o.payload[0])
            for r in trace.rounds for o in r.omitted_messages}


@pytest.mark.parametrize("adversary, omitted", [
    (DropOneIncoming, {(2, 4, 2, "a")}),
    (DropKind, {(2, s, q, "b") for s in (1, 3, 5, 7) for q in range(1, 8)
                if s != q and {s, q} & {2, 5}}),
    (Recording, None),
    (OmitAllFromOne, {(r, 1, q, "a") for r in (1, 2, 3) for q in range(2, 8)}
     | {(2, 1, q, "b") for q in range(2, 8)}),
    (lambda: Eclipse({2, 5}, 3), None),
    (SilenceTwoAndFive, None),
    (CutOffLookalike, {(r, s, q, kind) for r, kind, senders in
                       ((1, "a", range(1, 8)), (2, "a", range(1, 8)),
                        (3, "a", range(1, 8)), (2, "b", (1, 3, 5, 7)))
                       for s in senders for q in ((1, 3) if s in (2, 5) else (2, 5))
                       if s != q}),
])
def test_link_filter_matches_reference(adversary, omitted):
    cfg = SystemConfig(n=7, t=2, seed=5, inputs=(0,) * 7)
    runs = []
    for run in (run_execution, run_reference):
        protocol = AllToAll(cfg, unicast=2)
        _, trace, m = run(cfg, protocol, adversary(), record_level=1)
        assert m.revalidate(trace) and trace.verify(cfg.t)
        runs.append(([repr(r) for r in trace.rounds], protocol.inboxes))
    assert runs[0] == runs[1]
    if omitted is not None:
        assert omitted_links(trace) == omitted


def test_link_filter_is_asked_about_faulty_links_only():
    cfg = SystemConfig(n=7, t=2, seed=5, inputs=(0,) * 7)
    engine, reference = Recording(), Recording()
    run_execution(cfg, AllToAll(cfg, unicast=2), engine)
    run_reference(cfg, AllToAll(cfg, unicast=2), reference)
    # the same questions in the same order: incoming links too, honest never
    assert engine.asked == reference.asked
    asked = {(rnd, s, q) for rnd, s, q, _ in engine.asked}
    faulty = {1: {2}, 2: {2, 5}, 3: {2, 5}}
    assert asked == {(rnd, s, q) for rnd in (1, 2, 3) for s in range(1, 8)
                     for q in range(1, 8) if s != q and faulty[rnd] & {s, q}}
    # and each question carries its message's payload, of either kind
    assert all(p in (("a", s, rnd), ("b", s)) for rnd, s, _, p in engine.asked)
    assert {p[0] for _, _, _, p in engine.asked} == {"a", "b"}
