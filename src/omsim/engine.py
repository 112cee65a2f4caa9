"""Lockstep synchronous message-passing engine with omission adversaries.

Rounds have two phases: a local-computation phase (processes update state,
draw random bits and queue outgoing messages) and a communication phase
(queued messages are delivered, minus whatever a legal adversary omits).
The adversary acts after local computation, with full information about
states and the random bits drawn so far; bits not yet drawn are never
materialized early.

A protocol has `run(ctx)`, the generator each process runs: each `yield`
ends the local phase for that round and resumes with the list of delivered
(sender, payload) pairs from the communication phase of the same round. It
also has `closed_form_T`, which sets the round budget closed_form_T + t + 8,
and `epoch_boundaries`, the tuple of rounds that end an epoch.

Communication bits count every message the sender emits, delivered or not;
omission destroys messages in transit. Headers are free, payloads are
priced by the canonical encoding table (see `count_bits` and friends).
"""

import gc
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class ConfigError(Exception):
    pass


class AdversaryViolation(Exception):
    pass


class LivenessFailure(Exception):
    pass


class BudgetExceeded(Exception):
    pass


def check_trials(trials):
    """A sampled estimate needs at least one trial."""
    if trials < 1:
        raise ConfigError("need trials >= 1, got %d" % trials)


def check_seed(seed):
    """numpy's generators take only non-negative seeds."""
    if seed < 0:
        raise ConfigError("need seed >= 0, got %d" % seed)


# ---------------------------------------------------------------------------
# Canonical payload encoding table.  All sizes in bits.
# ---------------------------------------------------------------------------

def count_bits(n):
    """Bits to encode a count in [0, n]."""
    return max(1, (n).bit_length())


def group_index_bits(n):
    """Bits to encode a group index in [1, ceil(sqrt(n))]."""
    m = isqrt_ceil(n)
    return max(1, m.bit_length())


def chain_bits(k, n):
    """Bits for a chain of k process ids."""
    return k * count_bits(n)


def isqrt_ceil(n):
    import math
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def log2_ceil(n):
    """The project-wide reading of log n: ceil(log2 n), at least 1."""
    return max(1, (n - 1).bit_length())


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    n: int
    t: int
    seed: int
    inputs: tuple = ()
    params: object = None  # a Constants instance; protocols read coefficients

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be positive")
        if not (0 <= self.t < self.n):
            raise ConfigError("need 0 <= t < n, got t=%d n=%d" % (self.t, self.n))
        if self.inputs and len(self.inputs) != self.n:
            raise ConfigError("inputs must have length n")
        if any(b not in (0, 1) for b in self.inputs):
            raise ConfigError("inputs must be bits")


# ---------------------------------------------------------------------------
# Messages and adversary interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Message:
    sender: int
    receiver: int
    payload: object
    bits: int


@dataclass
class AdversaryObservation:
    """Full-information view of a round, handed to `corruptions`.

    Exposes everything that exists at call time: states and this round's
    drawn bits.  Randomness not yet drawn does not exist anywhere in the
    engine, so it cannot leak here.  The view shares the engine's own
    objects rather than copying them, so strategies must only read them;
    the trade-off inner runs' states are not shown.
    """
    round: int
    n: int
    t: int
    states: list            # the live ProtoStates, pid p at index p - 1
    drawn_bits: dict        # pid -> list of values drawn this round
    corrupted: frozenset    # every pid corrupted before this round's step
    epoch_boundaries: tuple  # the protocol's epoch-ending rounds


class AdversaryStrategy:
    """Base strategy: corrupts nothing, and drops every link of a process
    it corrupts.

    Each round, after the local phase, the engine takes `corruptions(obs)`
    from a view of the round, then asks `link_filter(rnd, sender,
    receiver, payload)` whether to keep each message with a corrupted
    endpoint, in either direction, one link at a time in receiver order,
    so how a protocol groups its sends into entries does not matter. It is
    never asked about a link between two honest processes, so it cannot
    omit one. A class that keeps this default filter is never asked: the
    engine drops every link of the corrupted set at once.
    """

    name = "none"

    def start(self, config, protocol):
        pass

    def corruptions(self, obs):
        return ()

    def link_filter(self, rnd, sender, receiver, payload):
        return False


def adversary_view(engine):
    """The round as the adversary sees it, built in constant time: it shares
    the engine's states list, draws dict and corrupted set, not copies."""
    return AdversaryObservation(
        round=engine.round,
        n=engine.config.n,
        t=engine.config.t,
        states=engine.states,
        drawn_bits=engine.drawn_this_round,
        corrupted=engine.faulty,
        epoch_boundaries=engine.protocol.epoch_boundaries,
    )


# ---------------------------------------------------------------------------
# Trace and results
# ---------------------------------------------------------------------------

@dataclass
class RoundRecord:
    index: int
    sent: int = 0
    bits: int = 0
    omitted: int = 0
    rand_accesses: int = 0         # calls to the random source, one bit each
    operative: int = 0
    corrupted_new: tuple = ()
    messages: list = None          # record_level >= 1
    omitted_messages: list = None  # record_level >= 1
    draws: dict = None             # record_level >= 1: pid -> bits drawn
    states: dict = None            # record_level >= 2: pid -> ProtoState fields


class ExecutionTrace:
    def __init__(self):
        self.rounds = []
        self.corrupted = {}   # pid -> round of corruption
        self.decisions = {}   # pid -> (value, round)

    def verify(self, t):
        """Replay-style checks of the model constraints; raises AssertionError."""
        seen_corrupted = set()
        prev_ops = float("inf")
        for rec in self.rounds:
            seen_corrupted.update(rec.corrupted_new)
            if rec.omitted_messages is not None and any(
                    m.sender not in seen_corrupted and m.receiver not in seen_corrupted
                    for m in rec.omitted_messages):
                raise AssertionError("round %d: omitted an honest link" % rec.index)
            if rec.operative > prev_ops:
                raise AssertionError("round %d: operative count regrew" % rec.index)
            prev_ops = rec.operative
        if max(len(self.corrupted), len(seen_corrupted)) > t:
            raise AssertionError("corrupted set exceeds t")
        return True


# ---------------------------------------------------------------------------
# Per-process context
# ---------------------------------------------------------------------------

class ProtoState:
    """Per-process protocol memory that must survive across epochs.  The
    engine counts a round's operative processes from `operative`."""
    __slots__ = ("b", "operative", "decided", "disregarded", "epoch")

    def __init__(self, b):
        self.b = b
        self.operative = True
        self.decided = False
        self.disregarded = set()   # overlay neighbors excluded forever
        self.epoch = 0


class Context:
    __slots__ = ("pid", "n", "input", "state", "_engine", "_rng")

    def __init__(self, engine, pid, input_bit):
        self.pid = pid
        self.n = engine.config.n
        self.input = input_bit
        self.state = ProtoState(input_bit)
        self._engine = engine
        # one private stream per process; bits materialize only on access
        self._rng = random.Random("%d:%d" % (engine.config.seed, pid))

    @property
    def others(self):
        """Every process but pid, ascending, as one tuple per run; the engine
        delivers a round in which each entry goes to its sender's `others`
        from one board."""
        engine, pid = self._engine, self.pid
        mine = engine.others[pid]
        if mine is None:
            mine = engine.others[pid] = engine.pids[:pid - 1] + engine.pids[pid:]
        return mine

    @property
    def round(self):
        """The engine round whose local phase is running."""
        return self._engine.round

    def broadcast(self, receivers, payload, bits):
        if receivers:
            self._engine.outbox.append((self.pid, tuple(receivers), payload, bits))

    def rand_bit(self):
        v = self._rng.getrandbits(1)
        self._engine.drawn_this_round.setdefault(self.pid, []).append(v)
        return v

    def decide(self, value):
        decisions = self._engine.trace.decisions
        if self.pid not in decisions:
            decisions[self.pid] = (value, self._engine.round)


# ---------------------------------------------------------------------------
# The engine proper
# ---------------------------------------------------------------------------

class Engine:
    def __init__(self, config, protocol, adversary, record_level=0):
        self.config = config
        self.protocol = protocol
        self.adversary = adversary if adversary is not None else AdversaryStrategy()
        self.record_level = record_level
        self.round = 0
        self.outbox = []
        self.drawn_this_round = {}
        self.trace = ExecutionTrace()
        # the corrupted pids, rebuilt in a round that corrupts anyone; the
        # adversary's view and the default filter share it
        self.faulty = frozenset()

    def run(self):
        # refcounting frees all a run drops (see _rounds), so the cyclic
        # collector would only rescan live messages: pause it for the run
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._rounds()
        finally:
            if enabled:
                gc.enable()

    def _rounds(self):
        cfg = self.config
        n, t = cfg.n, cfg.t
        strategy = self.adversary
        strategy.start(cfg, self.protocol)
        # the link filter is asked only where the class overrides it; the
        # default drops every link of a corrupted process, as one set
        self.link_filter = (strategy.link_filter
                            if type(strategy).link_filter is not AdversaryStrategy.link_filter
                            else None)
        # each process's `others` slices one tuple of pids, so all share its
        # ints; built on first use (Context.others), as not every run reads it
        pids = self.pids = tuple(range(1, n + 1))
        self.others = [None] * (n + 1)
        # contexts point at the engine, so only the run holds them: a finished
        # engine is freed at once, not at the next cyclic collection
        ctxs = [Context(self, p, cfg.inputs[p - 1] if cfg.inputs else 0)
                for p in pids]
        states = self.states = [c.state for c in ctxs]
        # the one record of liveness: a finished process's generator is None
        gens = [None] + [self.protocol.run(c) for c in ctxs]
        inbox = [None] * (n + 1)  # sending None into a new generator starts it
        max_rounds = self.protocol.closed_form_T + t + 8
        corrupted = self.trace.corrupted

        # the run ends when every never-corrupted process has finished
        # (corrupted ones may legitimately starve)
        while any(g is not None and p not in corrupted for p, g in enumerate(gens)):
            self.round += 1
            if self.round > max_rounds:
                raise LivenessFailure("round budget %d exceeded" % max_rounds)
            rnd = self.round
            self.drawn_this_round = {}
            self.outbox = []
            outbox = self.outbox

            # --- local computation phase ---------------------------------
            for p in range(1, n + 1):
                gen = gens[p]
                if gen is None:
                    continue
                box = inbox[p]
                inbox[p] = []
                try:
                    gen.send(box)
                except StopIteration:
                    gens[p] = None

            # --- adversary: corruption step ------------------------------
            rec = RoundRecord(index=rnd)
            self._absorb_corruptions(strategy.corruptions(adversary_view(self)), rec)

            # --- communication phase -------------------------------------
            self._deliver_fast(outbox, inbox, gens, rec)

            draws = self.drawn_this_round
            rec.rand_accesses = sum(map(len, draws.values()))
            if self.record_level >= 1:
                rec.draws = draws
            rec.operative = sum(1 for s in states if s.operative)
            if self.record_level >= 2:
                rec.states = {p: {"b": s.b, "operative": s.operative,
                                  "decided": s.decided, "epoch": s.epoch}
                              for p, s in enumerate(states, start=1)}
            self.trace.rounds.append(rec)

        # liveness: every never-corrupted process must have decided
        decisions = self.trace.decisions
        for p in range(1, n + 1):
            if p not in corrupted and p not in decisions:
                raise LivenessFailure("non-faulty process %d ended undecided" % p)
        return dict(sorted(decisions.items())), self.trace

    # the one delivery step: for each entry, in one pass, find the receivers
    # the adversary keeps, count every message, record the omitted ones in
    # receiver order and fill the inboxes with the kept ones; gens[q] is None
    # once q has finished
    def _deliver_fast(self, outbox, inbox, gens, rec):
        faulty, link_filter, rnd = self.faulty, self.link_filter, self.round
        # the default filter cuts off every corrupted process; an overriding
        # one is asked about each link with a corrupted endpoint instead
        cut_off = faulty if link_filter is None else ()
        full = self.record_level >= 1
        if full:
            rec.messages = []
            rec.omitted_messages = []
        sent = bits = omitted = 0
        # once every process has finished nothing is delivered, only counted
        live = any(g is not None for g in gens)
        others, quiet = self.others, len(cut_off)
        # While every entry that delivers anything goes to all its sender's
        # others but those cut off (kept receivers are a subset of those, so
        # the lengths tell), the round is one board of (pair, kept) in outbox
        # order, which is sender order as the local phase runs processes in
        # pid order. Otherwise appends fill the inboxes, pre-bound per
        # process; a finished process's slot keeps nothing.
        board, appends = [], None
        for sender, receivers, payload, b in outbox:
            k = len(receivers)
            sent += k
            bits += b * k
            if full:
                rec.messages.extend(Message(sender, q, payload, b) for q in receivers)
            ks = receivers
            if faulty:
                if sender in faulty:
                    ks = (() if link_filter is None else
                          [q for q in ks if link_filter(rnd, sender, q, payload)])
                elif not faulty.isdisjoint(ks):
                    if link_filter is None:
                        ks = [q for q in ks if q not in faulty]
                    else:
                        # an honest sender's links into corrupted receivers; a
                        # set finds them in C, as most entries reach none
                        asked = sorted(faulty.intersection(ks), key=ks.index)
                        dropped = [q for q in asked
                                   if not link_filter(rnd, sender, q, payload)]
                        if dropped:
                            ks = [q for q in ks if q not in dropped]
                if len(ks) != k:
                    omitted += k - len(ks)
                    if full:
                        keep = set(ks)
                        rec.omitted_messages.extend(Message(sender, q, payload, b)
                                                    for q in receivers if q not in keep)
            if not (live and ks):
                continue
            pair = (sender, payload)
            if appends is None:
                if receivers is others[sender] and len(ks) == k - quiet:
                    board.append((pair, ks))
                    continue
                appends = [id if g is None else box.append for g, box in zip(gens, inbox)]
                for bpair, bks in board:
                    for q in bks:
                        appends[q](bpair)
            for q in ks:
                appends[q](pair)
        rec.sent, rec.bits, rec.omitted = sent, bits, omitted
        if appends is None and board:
            # each live receiver not cut off gets the board minus its own slice
            pairs = [pair for pair, _ in board]
            senders = [s for s, _ in pairs]
            for q, g in enumerate(gens):
                if g is not None and q not in cut_off:
                    box = inbox[q] = pairs.copy()
                    del box[bisect_left(senders, q):bisect_right(senders, q)]

    # exists only for perfbench/tracing.py, which wraps a method of each
    # name; the engine calls _deliver_fast alone, so a round is tallied
    # once. It goes when the tracer wraps functions where they are defined
    # (ROADMAP item 4).
    _deliver_general = _deliver_fast

    def _absorb_corruptions(self, corrupt, rec):
        corrupted = self.trace.corrupted
        newly = [p for p in corrupt if p not in corrupted]
        if not newly:
            return
        if not all(1 <= p <= self.config.n for p in newly):
            raise AdversaryViolation("corrupted pids outside 1..%d: %s"
                                     % (self.config.n, sorted(newly)))
        if len(corrupted) + len(newly) > self.config.t:
            raise AdversaryViolation(
                "corruption budget exceeded at round %d" % self.round)
        for p in newly:
            corrupted[p] = self.round
        self.faulty = frozenset(corrupted)
        rec.corrupted_new = tuple(newly)


def run_execution(config, protocol_factory, adversary=None, record_level=0):
    """Run one execution to completion.

    protocol_factory: either a Protocol instance or a callable taking the
    config and returning one. Returns (decisions, trace, metrics) where
    decisions maps pid -> (value, round) for every process that decided.
    """
    from .metrics import Metrics
    protocol = protocol_factory(config) if callable(protocol_factory) else protocol_factory
    eng = Engine(config, protocol, adversary, record_level=record_level)
    decisions, trace = eng.run()
    metrics = Metrics.from_engine(eng)
    return decisions, trace, metrics
