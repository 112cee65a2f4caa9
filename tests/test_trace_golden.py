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


# The 24 record_level=2 traces of the engine's byte-identity gate (main at
# n=64 t=2 and n=256 t=8, tradeoff x=4 at n=128 t=2, the four grid
# adversaries, seeds 0-1), less the four main n=64 seed-0 cells pinned above.
GOLDEN_SEEDED = {
    ("main", 64, 2, 1, "none", 1):
        "ee72050470b64b3bdb6a94c8df8913e02ec711826f88cf6d43b50121760352f5",
    ("main", 64, 2, 1, "crash", 1):
        "0870b2278bbb15998bad0a3f016ae0482715d9d87453644d9fdc792e27b6d182",
    ("main", 64, 2, 1, "eclipse", 1):
        "13f334772a6123058985aaa306cfacad5d6ef19a229fd6fe9c61c4f8b85b50ba",
    ("main", 64, 2, 1, "coin-biaser", 1):
        "53d2250785420bd32f691234ec4f310af0d332d2c9f8e417edb98b88cf806e7f",
    ("main", 256, 8, 1, "none", 0):
        "cc1abe4cd0435abbec3c0e461e1c4a8ef968c33906c882cc0a5a14cac58b4d78",
    ("main", 256, 8, 1, "none", 1):
        "c65ba5fe1857ab7f3f25160992cd4d325ff76eebb994555cad2ca11651e666b3",
    ("main", 256, 8, 1, "crash", 0):
        "9ff2ec94f0b2ae3de732f11ec4155752f329502c7c5259b83096bade1c475b54",
    ("main", 256, 8, 1, "crash", 1):
        "277a740c9bb04b35cfc20c4d38046d2f89fa28ad9fa70c096cfc0261b2d22975",
    ("main", 256, 8, 1, "eclipse", 0):
        "962f72f91b6092dbef6813985e3d02fee99526ae0172b2ab5f3b6bdf65c3831a",
    ("main", 256, 8, 1, "eclipse", 1):
        "944ca177b8c0909699e0c19bc069cd4664cb98c4a27a645722845fdd5af4a767",
    ("main", 256, 8, 1, "coin-biaser", 0):
        "c1e0bf7a7a136c959856e36ff6c3bb3c1327edbf751f0c8f640e3764d0c1645f",
    ("main", 256, 8, 1, "coin-biaser", 1):
        "8d052ff00f5434588123030e0d399ca842186a41733839b3cabce964ad57a6ac",
    ("tradeoff", 128, 2, 4, "none", 0):
        "fa6076637353c8c64b760f0ab1ccb12bdbd3c76aa14606eb31245427a6d7c19f",
    ("tradeoff", 128, 2, 4, "none", 1):
        "109476b730bf18b0d227b1e6e83767bb040037ad32c268da62fbe7bf314f6942",
    ("tradeoff", 128, 2, 4, "crash", 0):
        "ee491dff76028a5d645afbc63dd178cc5a6e70f1e1a389a026400965582c6d03",
    ("tradeoff", 128, 2, 4, "crash", 1):
        "09d34cd8ca401b3132c1383033c7ae2b1116b089f4ff21947e0e06af4018b4ac",
    ("tradeoff", 128, 2, 4, "eclipse", 0):
        "bfb860e4f5563809aac1a5ce9d6f1e6bf0e63ec3ff2db2a60993b4b619caefe7",
    ("tradeoff", 128, 2, 4, "eclipse", 1):
        "00ae723933da1942b98df4045cbf6351540c3b78ab22b5d7e0c8a19dda4d5734",
    ("tradeoff", 128, 2, 4, "coin-biaser", 0):
        "13f39bb844e64c5993e2d8191ca2cb77f64a1664c2c8d50b120a36377453f4d6",
    ("tradeoff", 128, 2, 4, "coin-biaser", 1):
        "075443e73a4ef850bb07c3f7cde291b5f46cf219ba1b5eeadbb01e655346c1fd",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN_SEEDED))
def test_seeded_trace_matches_golden_hash(cell):
    assert trace_hash(*cell) == GOLDEN_SEEDED[cell]
