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
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter


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
class AdversaryAction:
    corrupt: frozenset = frozenset()
    omit: frozenset = frozenset()  # indices into the observed pending list


@dataclass
class AdversaryObservation:
    """Full-information snapshot handed to adversary hooks.

    Exposes everything that exists at call time: states, this round's drawn
    bits, pending message contents.  Randomness not yet drawn does not exist
    anywhere in the engine, so it cannot leak here.  `states` holds the live
    ProtoStates (read only); the trade-off inner runs' own are not shown.
    """
    round: int
    phase: str                # "send" or "deliver"
    n: int = 0
    t: int = 0
    states: dict = field(default_factory=dict)      # pid -> live ProtoState
    drawn_bits: dict = field(default_factory=dict)  # pid -> list of values drawn this round
    pending: tuple = ()                             # Message tuple (general path)
    corrupted: frozenset = frozenset()
    epoch_boundaries: tuple = ()                    # the protocol's epoch-ending rounds


class AdversaryStrategy:
    """Base strategy: corrupts nothing, omits nothing.

    The hooks compose. Each round the engine takes the corruptions, then
    omits every message to or from a process in `silenced(corrupted)`,
    which is handed the engine's corrupted set. `send_filter(rnd, sender,
    receiver)` then keeps or drops each remaining message of a corrupted
    sender, one link at a time, so how a protocol groups its sends into
    entries does not matter. If the class overrides decide(), its "send"
    and "deliver" hooks then see each message those kept, and may corrupt
    and omit more: the only way to drop one message to a corrupted
    receiver. decide() and send_filter() are called only where the class
    overrides them; every hook's legality is enforced.
    """

    name = "none"
    needs_observation = False  # True -> full states/bits view for corruptions()

    def start(self, config, protocol):
        pass

    def corruptions(self, obs):
        return ()

    def silenced(self, corrupted):
        return frozenset()

    def send_filter(self, rnd, sender, receiver):
        return True

    def decide(self, obs):
        return AdversaryAction()


def adversary_view(engine, phase, pending=()):
    """Project the engine state into an observation. Pure: calling twice in
    the same phase yields equal observations."""
    return AdversaryObservation(
        round=engine.round,
        phase=phase,
        n=engine.config.n,
        t=engine.config.t,
        states=dict(enumerate(engine.states, start=1)),
        drawn_bits={p: list(v) for p, v in engine.drawn_this_round.items()},
        pending=tuple(pending),
        corrupted=frozenset(engine.trace.corrupted),
        epoch_boundaries=engine.protocol.epoch_boundaries,
    )


def apply_adversary_action(action, pending, corrupted, t):
    """Validate an action and split pending into delivered / omitted.

    Raises AdversaryViolation instead of clamping: exceeding the corruption
    budget or omitting a message between two never-corrupted processes is a
    strategy bug, not something to paper over.
    """
    new_corrupted = set(corrupted) | set(action.corrupt)
    if len(new_corrupted) > t:
        raise AdversaryViolation(
            "corruption budget exceeded: %d > t=%d" % (len(new_corrupted), t))
    omit = set(action.omit)
    for i in omit:
        if i < 0 or i >= len(pending):
            raise AdversaryViolation("omit index %d out of range" % i)
        m = pending[i]
        if m.sender not in new_corrupted and m.receiver not in new_corrupted:
            raise AdversaryViolation(
                "omitted message %d..%d touches no corrupted endpoint" % (m.sender, m.receiver))
    delivered = [m for i, m in enumerate(pending) if i not in omit]
    omitted = [pending[i] for i in sorted(omit)]
    return delivered, omitted, new_corrupted


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
        self.notes = {}

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

    def note(self, key, value):
        self._engine.trace.notes[key] = value


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
        # the interface a strategy uses is the one its class overrides; look
        # the methods up now, as a wrapper may have replaced the base's
        cls = type(strategy)
        general = cls.decide is not AdversaryStrategy.decide
        send_filter = (strategy.send_filter
                       if cls.send_filter is not AdversaryStrategy.send_filter else None)
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
        silenced = frozenset()

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
            obs = adversary_view(self, "send") if strategy.needs_observation else None
            self._absorb_corruptions(strategy.corruptions(obs), rec)
            sil = strategy.silenced(corrupted.keys())
            if sil != silenced:
                if not sil <= corrupted.keys():
                    raise AdversaryViolation("silenced set contains non-corrupted process")
                silenced = sil

            # --- communication phase -------------------------------------
            if general:
                self._deliver_general(outbox, inbox, gens, rec, silenced, send_filter)
            else:
                self._deliver_fast(outbox, inbox, gens, rec, silenced, send_filter)

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

    # Both delivery methods end in _transmit and differ only in where each
    # entry's kept receivers come from: the batch hooks, and for the general
    # one then decide()'s two hooks over one Message per receiver kept so
    # far. Neither calls the other, so a wrapper around each sees a round once.
    def _deliver_fast(self, outbox, inbox, gens, rec, silenced, send_filter):
        self._transmit(outbox, self._batch_kept(outbox, silenced, send_filter),
                       inbox, gens, rec, silenced)

    def _deliver_general(self, outbox, inbox, gens, rec, silenced, send_filter):
        kept = list(self._batch_kept(outbox, silenced, send_filter))
        for phase in ("send", "deliver"):
            pending = [Message(sender, q, payload, b)
                       for (sender, _, payload, b), ks in zip(outbox, kept) for q in ks]
            action = self.adversary.decide(adversary_view(self, phase, pending))
            # raises on an illegal action; the omit indices are positions in
            # pending, which lists the kept receivers entry by entry
            apply_adversary_action(action, pending, self.trace.corrupted, self.config.t)
            self._absorb_corruptions(action.corrupt, rec)
            pos = count()
            kept = [[q for q in ks if next(pos) not in action.omit] for ks in kept]
        self._transmit(outbox, kept, inbox, gens, rec, silenced)

    def _batch_kept(self, outbox, silenced, send_filter):
        """Each entry's receivers that the batch hooks keep: none of a
        silenced sender's, those of a corrupted sender's that the send
        filter keeps link by link, and never a silenced receiver."""
        if not silenced and send_filter is None:
            return map(itemgetter(1), outbox)
        corrupted = self.trace.corrupted
        rnd = self.round
        out = []
        for sender, receivers, _, _ in outbox:
            kept = () if sender in silenced else receivers
            if kept and send_filter is not None and sender in corrupted:
                kept = [q for q in receivers if send_filter(rnd, sender, q)]
            if silenced and not silenced.isdisjoint(kept):
                kept = [q for q in kept if q not in silenced]
            out.append(kept)
        return out

    # the one delivery accounting step: count every entry's messages, record
    # the omitted ones in receiver order, and fill the inboxes with the kept
    # ones; gens[q] is None once q has finished
    def _transmit(self, outbox, kept, inbox, gens, rec, silenced):
        full = self.record_level >= 1
        if full:
            rec.messages = []
            rec.omitted_messages = []
        sent = bits = omitted = 0
        # once every process has finished nothing is delivered, only counted
        live = any(g is not None for g in gens)
        others, quiet = self.others, len(silenced)
        # While every entry that delivers anything goes to all its sender's
        # others but the silenced (kept receivers are a subset of those, so
        # the lengths tell), the round is one board of (pair, kept) in outbox
        # order, which is sender order as the local phase runs processes in
        # pid order. Otherwise appends fill the inboxes, pre-bound per
        # process; a finished process's slot keeps nothing.
        board, appends = [], None
        for (sender, receivers, payload, b), ks in zip(outbox, kept):
            k = len(receivers)
            sent += k
            bits += b * k
            if full:
                rec.messages.extend(Message(sender, q, payload, b) for q in receivers)
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
            # each live, unsilenced receiver gets the board minus its own slice
            pairs = [pair for pair, _ in board]
            senders = [s for s, _ in pairs]
            for q, g in enumerate(gens):
                if g is not None and q not in silenced:
                    box = inbox[q] = pairs.copy()
                    del box[bisect_left(senders, q):bisect_right(senders, q)]

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
        rec.corrupted_new = tuple(rec.corrupted_new) + tuple(newly)


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
