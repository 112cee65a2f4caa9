"""Deterministic consensus by chain-certified flooding.

Omission-faulty processes never lie, so a chain of r distinct relayer ids
attached to a value plays the role a signature chain plays in the classic
authenticated broadcast: if any relayer in the chain is non-faulty, every
non-faulty process already accepted the value when that relayer broadcast
it.  Accepting a value at the end of round r therefore requires a chain of
at least r distinct ids.  After t + 1 rounds all non-faulty participants
hold the same accepted set and decide its minimum.

The state machine is a plain class so that the exhaustive small-n adversary
search can drive it directly, without the engine; the engine-facing
generator wraps the same object.
"""

from .engine import ConfigError, chain_bits


class ChainFlooder:
    """Per-process fallback state: accepted values and pending relays."""

    def __init__(self, pid, value, t):
        if value not in (0, 1):
            raise ConfigError("fallback input must be a bit")
        self.pid = pid
        self.t = t
        self.accepted = {value}
        self.pending = [(value, (pid,))]

    def take_pending(self):
        out = self.pending
        self.pending = []
        return out

    def receive(self, round_index, messages):
        """messages: iterable of (value, chain) delivered at the end of the
        given round (1-based). Invalid or stale chains are dropped."""
        for value, chain in messages:
            if value in self.accepted:
                continue
            if len(chain) < round_index or len(set(chain)) != len(chain):
                continue
            self.accepted.add(value)
            if self.pid not in chain:
                self.pending.append((value, chain + (self.pid,)))

    def decision(self):
        return min(self.accepted)


def rounds_needed(t):
    return t + 1


def run_fallback(ctx, value, t, targets):
    """Engine generator: t + 1 rounds of chain flooding over `targets`
    (the process cannot know who else participates, so it broadcasts to
    everybody and non-participants simply ignore the traffic).
    Returns the decided bit."""
    proc = ChainFlooder(ctx.pid, value, t)
    for r in range(1, rounds_needed(t) + 1):
        for v, chain in proc.take_pending():
            ctx.broadcast(targets, ("fb", v, chain), 1 + chain_bits(len(chain), ctx.n))
        inbox = yield
        # a value already accepted stays so, and receive() would drop it
        accepted = proc.accepted
        proc.receive(r, [(m[1], m[2]) for _, m in inbox
                         if m[0] == "fb" and m[1] not in accepted])
    return proc.decision()


def reference_run(inputs, t, omissions=None):
    """Oracle: simulate the flooding directly on a dict pid -> input, with
    `omissions` a set of (round, sender, receiver, value) quadruples to
    drop. Returns dict pid -> decision."""
    omissions = omissions or set()
    pids = sorted(inputs)
    procs = {p: ChainFlooder(p, inputs[p], t) for p in pids}
    for r in range(1, rounds_needed(t) + 1):
        outgoing = {p: procs[p].take_pending() for p in pids}
        for q in pids:
            box = []
            for p in pids:
                if p == q:
                    continue
                for v, chain in outgoing[p]:
                    if (r, p, q, v) not in omissions:
                        box.append((v, chain))
            procs[q].receive(r, box)
    return {p: procs[p].decision() for p in pids}
