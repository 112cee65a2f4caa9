import copy
import itertools

import pytest

from omsim.engine import SystemConfig, run_execution
from omsim.fallback import ChainFlooder, reference_run, rounds_needed, run_fallback


class FallbackOnly:
    """Driver: run the chain flooding directly on the raw inputs."""

    epoch_boundaries = ()

    def __init__(self, config):
        self.config = config
        self.closed_form_T = rounds_needed(config.t)

    def run(self, ctx):
        targets = [q for q in range(1, ctx.n + 1) if q != ctx.pid]
        v = yield from run_fallback(ctx, ctx.input, self.config.t, targets)
        ctx.decide(v)


def test_rounds_needed():
    assert rounds_needed(0) == 1
    assert rounds_needed(3) == 4


def test_chain_rules():
    p = ChainFlooder(5, 0, 2)
    # stale chain: length 1 at end of round 2
    p.receive(2, [(1, (3,))])
    assert p.accepted == {0}
    # duplicate ids never certify
    p.receive(2, [(1, (3, 3))])
    assert p.accepted == {0}
    # chain already carrying own id: accepted but not relayed again
    p.receive(2, [(1, (4, 5))])
    assert p.accepted == {0, 1}
    assert all(v != 1 for v, _ in p.pending)


def test_reference_no_faults_decides_min():
    dec = reference_run({1: 1, 2: 0, 3: 1, 4: 1}, t=1)
    assert dec == {1: 0, 2: 0, 3: 0, 4: 0}


def test_engine_matches_reference():
    for inputs in itertools.product((0, 1), repeat=4):
        cfg = SystemConfig(n=4, t=1, seed=9, inputs=inputs)
        dec, _, m = run_execution(cfg, FallbackOnly)
        ref = reference_run({p: inputs[p - 1] for p in range(1, 5)}, t=1)
        assert {p: v for p, (v, _) in dec.items()} == ref
        assert m.T == 3  # t + 1 flooding rounds, decision in the next


# --- exhaustive adversary search at n=4, t=1 -----------------------------
#
# One faulty process f; the adversary may drop any message touching f in
# any round.  DFS over in-flight messages, branching only when delivery
# would change the receiver's state (ineffective messages are delivered
# unconditionally, which loses nothing).

def search(inputs, t, faulty):
    pids = sorted(inputs)
    worst = []

    def advance(procs, r):
        if r > t + 1:
            honest = [procs[p].decision() for p in pids if p != faulty]
            worst.append(honest)
            return
        flights = []
        for p in pids:
            for v, chain in procs[p].take_pending():
                for q in pids:
                    if q != p:
                        flights.append((p, q, v, chain))
        deliver(procs, r, flights, 0)

    def deliver(procs, r, flights, i):
        if i == len(flights):
            advance(procs, r + 1)
            return
        p, q, v, chain = flights[i]
        effective = (v not in procs[q].accepted
                     and len(chain) >= r and len(set(chain)) == len(chain))
        if not effective or (p != faulty and q != faulty):
            procs[q].receive(r, [(v, chain)])
            deliver(procs, r, flights, i + 1)
            return
        # branch: deliver vs omit
        snap = copy.deepcopy(procs)
        procs[q].receive(r, [(v, chain)])
        deliver(procs, r, flights, i + 1)
        deliver(snap, r, flights, i + 1)

    advance({p: ChainFlooder(p, inputs[p], t) for p in pids}, 1)
    return worst


def test_exhaustive_agreement_and_validity():
    for inputs in itertools.product((0, 1), repeat=4):
        indexed = {p: inputs[p - 1] for p in range(1, 5)}
        for faulty in range(1, 5):
            for honest in search(indexed, 1, faulty):
                assert len(set(honest)) == 1, (inputs, faulty, honest)
                if len(set(inputs)) == 1:
                    assert honest[0] == inputs[0]


def test_omission_cannot_forge_a_value():
    # all-ones run with arbitrary drops never yields 0 anywhere
    dec = reference_run({1: 1, 2: 1, 3: 1}, t=1,
                        omissions={(1, 1, 2, 1), (1, 1, 3, 1), (2, 2, 3, 1)})
    assert set(dec.values()) == {1}
