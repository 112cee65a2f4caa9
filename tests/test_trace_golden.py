"""Golden traces: pinned sha256 of whole record_level=2 traces.

A JSONL record keeps totals, not the order in which a process queued its
messages.  That order still matters: every receiver reads its inbox in
arrival order.  These pins cover each round's messages in order, the
omitted ones, the draws and the state snapshots, so a change to the order
of sends shows here even where no record moves.  The trade-off eclipse
cell pins the per-link send filter on the relay and the flooding, in a run
that also holds the safety exchange, the fallback and its announcement.

A trace that legitimately changes needs its hash re-pinned here, with the
reason said in the change that does it.
"""

import hashlib

import pytest

from omsim.engine import SystemConfig, run_execution
from omsim.harness import make_adversary, make_protocol, resolve_inputs
from omsim.params import acceptance


def trace_hash(protocol, n, t, x, adversary, seed):
    config = SystemConfig(n=n, t=t, seed=seed, inputs=resolve_inputs(None, n),
                          params=acceptance())
    decisions, trace, metrics = run_execution(
        config, make_protocol(config, protocol, x),
        make_adversary(adversary, n, t), record_level=2)
    metrics.revalidate(trace)
    h = hashlib.sha256()
    for rec in trace.rounds:
        h.update(repr(rec).encode())
    h.update(repr((decisions, trace.corrupted, trace.notes, metrics)).encode())
    return h.hexdigest()


GOLDEN = {
    ("main", 64, 2, 1, "none"):
        "69f5ac0cf31d6a9ce1a321d1980ee8abe374ceab64da84922760dd7ed95fc440",
    ("main", 64, 2, 1, "crash"):
        "1232b0b74b2dc487b14579c75592c4ae702aede7b54b69aa2e02d5a1b6962ad6",
    ("main", 64, 2, 1, "eclipse"):
        "55278c9661bfbd182eb4cf69bcbbf398300022f2d2419d1a825dcf19bceffad6",
    ("main", 64, 2, 1, "coin-biaser"):
        "dfb390dc9ba8f3020252570cd1f336649f6e74b9e5787f7e6e64dbf14b234225",
    ("tradeoff", 64, 1, 4, "none"):
        "0aa13ae12326ab4003b3649e80eed242694cb80a2b849d56121fffb9721e1161",
    ("tradeoff", 64, 1, 4, "eclipse"):
        "b764003d6e40032eeba92a3219fbaa7c02d765e6e0ae44f38f6cc38577feb63a",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_trace_matches_golden_hash(cell):
    assert trace_hash(*cell, seed=0) == GOLDEN[cell]
