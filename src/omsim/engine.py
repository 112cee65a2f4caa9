"""Lockstep synchronous message-passing engine with omission adversaries.

Rounds have two phases: a local-computation phase (processes update state,
draw random bits and queue outgoing messages) and a communication phase
(queued messages are delivered, minus whatever a legal adversary omits).
The adversary gets two hooks per round, one right after local computation
and one mid-delivery, both with full information about states and the
random bits drawn so far; bits not yet drawn are never materialized early.

Protocols are generators driven by the engine: each `yield` ends the local
phase for that round and resumes with the list of delivered (sender,
payload) pairs from the communication phase of the same round.

Communication bits count every message the sender emits, delivered or not;
omission destroys messages in transit. Headers are free, payloads are
priced by the canonical encoding table (see `count_bits` and friends).
"""

import random
from dataclasses import dataclass, field


class ConfigError(Exception):
    pass


class AdversaryViolation(Exception):
    pass


class LivenessFailure(Exception):
    pass


class BudgetExceeded(Exception):
    pass


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


class RandomnessLedger:
    """Tracks random-source usage both as accesses and as bits."""

    def __init__(self):
        self.total_accesses = 0
        self.total_bits = 0
        self.per_round = {}  # round -> accesses that round

    def record(self, rnd, bits):
        self.total_accesses += 1
        self.total_bits += bits
        self.per_round[rnd] = self.per_round.get(rnd, 0) + 1


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
    meta: dict = field(default_factory=dict)        # protocol schedule info


class AdversaryStrategy:
    """Base strategy: corrupts nothing, omits nothing.

    Two ways to act. The structured interface (corruptions / silenced /
    send_filter) lets the engine deliver in batches; the general interface
    (needs_messages = True, decide()) sees every pending message and returns
    an AdversaryAction per hook. The engine enforces legality on both.
    """

    name = "none"
    needs_messages = False
    needs_observation = False  # True -> full states/bits view for corruptions()
    has_send_filter = False

    def start(self, config, protocol):
        pass

    def corruptions(self, obs):
        return ()

    def silenced(self):
        return frozenset()

    def send_filter(self, rnd, sender, receivers):
        return receivers

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
        states={p: engine.ctxs[p].state for p in range(1, engine.config.n + 1)},
        drawn_bits={p: list(v) for p, v in engine.drawn_this_round.items()},
        pending=tuple(pending),
        corrupted=frozenset(engine.corrupted),
        meta=engine.protocol_meta,
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
    delivered: int = 0
    rand_accesses: int = 0
    operative: int = 0
    corrupted_new: tuple = ()
    messages: list = None          # record_level >= 1
    omitted_messages: list = None  # record_level >= 1
    states: dict = None            # record_level >= 2: pid -> ProtoState fields


class ExecutionTrace:
    def __init__(self):
        self.rounds = []
        self.corrupted = {}   # pid -> round of corruption
        self.decisions = {}   # pid -> (value, round)
        self.notes = {}

    def verify(self, t):
        """Replay-style checks of the model constraints on a full trace."""
        assert len(self.corrupted) <= t, "corrupted set exceeds t"
        prev_ops = None
        seen_corrupted = set()
        for rec in self.rounds:
            for p in rec.corrupted_new:
                seen_corrupted.add(p)
            assert len(seen_corrupted) <= t
            if rec.omitted_messages is not None:
                for m in rec.omitted_messages:
                    assert m.sender in seen_corrupted or m.receiver in seen_corrupted, \
                        "omission touches no corrupted endpoint"
            if prev_ops is not None:
                assert rec.operative <= prev_ops, "operative count regrew"
            prev_ops = rec.operative
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
    __slots__ = ("pid", "n", "input", "state", "_engine", "_rng", "decided")

    def __init__(self, engine, pid, input_bit):
        self.pid = pid
        self.n = engine.config.n
        self.input = input_bit
        self.state = ProtoState(input_bit)
        self.decided = None
        self._engine = engine
        # one private stream per process; bits materialize only on access
        self._rng = random.Random("%d:%d" % (engine.config.seed, pid))

    def send(self, receiver, payload, bits):
        if receiver == self.pid:
            raise ConfigError("self-send")
        self._engine.outbox.append((self.pid, (receiver,), payload, bits))

    def broadcast(self, receivers, payload, bits):
        if receivers:
            self._engine.outbox.append((self.pid, tuple(receivers), payload, bits))

    def rand_bit(self):
        eng = self._engine
        v = self._rng.getrandbits(1)
        eng.ledger.record(eng.round, 1)
        eng.drawn_this_round.setdefault(self.pid, []).append(v)
        return v

    def decide(self, value):
        if self.decided is None:
            self.decided = value
            self._engine.trace.decisions[self.pid] = (value, self._engine.round)

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
        self.ledger = RandomnessLedger()
        self.trace = ExecutionTrace()
        self.corrupted = self.trace.corrupted
        self.protocol_meta = dict(getattr(protocol, "meta", lambda: {})())
        self.ctxs = [None] + [Context(self, p, config.inputs[p - 1] if config.inputs else 0)
                              for p in range(1, config.n + 1)]

    def run(self):
        cfg = self.config
        n, t = cfg.n, cfg.t
        strategy = self.adversary
        strategy.start(cfg, self.protocol)
        gens = [None] + [self.protocol.run(self.ctxs[p]) for p in range(1, n + 1)]
        alive = self.alive = [False] + [True] * n
        inbox = [None] + [[] for _ in range(n)]
        states = [self.ctxs[p].state for p in range(1, n + 1)]
        max_rounds = getattr(self.protocol, "max_rounds", lambda: 10000)()
        silenced = frozenset()
        # processes that are both unfinished and never-corrupted; the run
        # ends when none remain (corrupted ones may legitimately starve)
        self.live_uncorrupted = n

        while self.live_uncorrupted > 0:
            self.round += 1
            if self.round > max_rounds:
                raise LivenessFailure("round budget %d exceeded" % max_rounds)
            rnd = self.round
            self.drawn_this_round = {}
            self.outbox = []
            outbox = self.outbox

            # --- local computation phase ---------------------------------
            for p in range(1, n + 1):
                if not alive[p]:
                    continue
                box = inbox[p]
                inbox[p] = []
                try:
                    if rnd == 1:
                        next(gens[p])
                    else:
                        gens[p].send(box)
                except StopIteration:
                    alive[p] = False
                    gens[p] = None
                    if p not in self.corrupted:
                        self.live_uncorrupted -= 1

            # --- adversary: corruption step ------------------------------
            rec = RoundRecord(index=rnd)
            obs = adversary_view(self, "send") if strategy.needs_observation else None
            self._absorb_corruptions(strategy.corruptions(obs), rec)
            sil = strategy.silenced()
            if sil != silenced:
                if not sil <= self.corrupted.keys():
                    raise AdversaryViolation("silenced set contains non-corrupted process")
                silenced = sil

            # --- communication phase -------------------------------------
            if strategy.needs_messages:
                self._deliver_general(outbox, inbox, alive, rec, t)
            else:
                self._deliver_fast(outbox, inbox, alive, rec, silenced, strategy)

            rec.rand_accesses = self.ledger.per_round.get(rnd, 0)
            rec.operative = sum(1 for s in states if s.operative)
            if self.record_level >= 2:
                rec.states = {p: {"b": s.b, "operative": s.operative,
                                  "decided": s.decided, "epoch": s.epoch}
                              for p, s in enumerate(states, start=1)}
            self.trace.rounds.append(rec)

        # liveness: every never-corrupted process must have decided
        for p in range(1, n + 1):
            if p not in self.corrupted and self.ctxs[p].decided is None:
                raise LivenessFailure("non-faulty process %d ended undecided" % p)
        decisions = {p: self.trace.decisions.get(p) for p in range(1, n + 1)
                     if self.trace.decisions.get(p) is not None}
        return decisions, self.trace

    # batch path: standing silenced set plus optional per-batch send filter
    def _deliver_fast(self, outbox, inbox, alive, rec, silenced, strategy):
        use_filter = strategy.has_send_filter
        corrupted = self.corrupted
        rnd = self.round
        full = self.record_level >= 1
        if full:
            rec.messages = []
            rec.omitted_messages = []
        sent = bits = omitted = delivered = 0
        # pre-bound appends; None marks a finished process (drop silently)
        appends = [None] * len(inbox)
        all_alive = True
        for q in range(1, len(inbox)):
            if alive[q]:
                appends[q] = inbox[q].append
            else:
                all_alive = False
        for sender, receivers, payload, b in outbox:
            k = len(receivers)
            sent += k
            bits += b * k
            if full:
                rec.messages.extend(Message(sender, q, payload, b) for q in receivers)
            if sender in silenced:
                omitted += k
                if full:
                    rec.omitted_messages.extend(Message(sender, q, payload, b) for q in receivers)
                continue
            if use_filter and sender in corrupted:
                kept = strategy.send_filter(rnd, sender, receivers)
                if full:
                    dropped = set(receivers) - set(kept)
                    rec.omitted_messages.extend(Message(sender, q, payload, b) for q in sorted(dropped))
                omitted += k - len(kept)
                receivers = kept
            pair = (sender, payload)
            if silenced:
                for q in receivers:
                    if q in silenced:
                        omitted += 1
                        if full:
                            rec.omitted_messages.append(Message(sender, q, payload, b))
                    else:
                        delivered += 1
                        a = appends[q]
                        if a is not None:
                            a(pair)
            else:
                delivered += len(receivers)
                if all_alive:
                    for q in receivers:
                        appends[q](pair)
                else:
                    for q in receivers:
                        a = appends[q]
                        if a is not None:
                            a(pair)
        rec.sent, rec.bits, rec.omitted, rec.delivered = sent, bits, omitted, delivered

    # general path: per-message pending list, two observation hooks
    def _deliver_general(self, outbox, inbox, alive, rec, t):
        strategy = self.adversary
        pending = []
        for sender, receivers, payload, b in outbox:
            for q in receivers:
                pending.append(Message(sender, q, payload, b))
        rec.sent = len(pending)
        rec.bits = sum(m.bits for m in pending)
        delivered, omitted_all = pending, []
        for phase in ("send", "deliver"):
            action = strategy.decide(adversary_view(self, phase, delivered))
            delivered, omitted, _ = apply_adversary_action(action, delivered, self.corrupted, t)
            self._absorb_corruptions(action.corrupt, rec)
            omitted_all.extend(omitted)
        for m in delivered:
            if alive[m.receiver]:
                inbox[m.receiver].append((m.sender, m.payload))
        rec.omitted = len(omitted_all)
        rec.delivered = len(delivered)
        if self.record_level >= 1:
            rec.messages = pending
            rec.omitted_messages = omitted_all

    def _absorb_corruptions(self, corrupt, rec):
        newly = [p for p in corrupt if p not in self.corrupted]
        if not newly:
            return
        if len(self.corrupted) + len(newly) > self.config.t:
            raise AdversaryViolation(
                "corruption budget exceeded at round %d" % self.round)
        for p in newly:
            self.corrupted[p] = self.round
            if self.alive[p]:
                self.live_uncorrupted -= 1
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
