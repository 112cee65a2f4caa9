"""Golden replay: pinned sha256 of each JSONL line of a fixed sweep.

Criterion 12 replays the current code against itself, so it cannot catch a
refactor that changes what a record says.  This plan pins the records
themselves.  Its cells cover the in-epoch decision with coin draws, the
fallback, unanimity, the three adversaries, a liveness-failure error
record, both trade-off shapes, and the only cells known where non-faulty
processes decide by waiting for a fallback announcement (`fd`).

A record that legitimately changes (a new field, a fixed bug) needs its
hash re-pinned here, with the reason said in the change that does it.
"""

import hashlib

from omsim.harness import run_sweep, to_jsonl

A = "acceptance"
NO_GOSSIP_FLOOR = {"inoperative_divisor": 1}

PLAN = {"cells": [
    {"protocol": "main", "n": 128, "t": 4, "preset": "scaled", "seeds": [0, 1]},
    {"protocol": "main", "n": 64, "t": 2, "preset": "scaled", "inputs": "ones",
     "seeds": [4]},
    {"protocol": "main", "n": 64, "t": 2, "preset": A, "adversary": "crash",
     "seeds": [0]},
    {"protocol": "main", "n": 64, "t": 2, "preset": A, "adversary": "eclipse",
     "seeds": [0]},
    {"protocol": "main", "n": 64, "t": 2, "preset": A, "adversary": "coin-biaser",
     "seeds": [0]},
    {"protocol": "main", "n": 64, "t": 2, "preset": A, "adversary": "crash",
     "constants": NO_GOSSIP_FLOOR, "seeds": [0]},
    {"protocol": "tradeoff", "x": 4, "n": 128, "t": 2, "preset": "scaled",
     "seeds": [0]},
    {"protocol": "tradeoff", "x": 4, "n": 64, "t": 1, "preset": A,
     "adversary": "crash", "inputs": "ones", "seeds": [0]},
    {"protocol": "tradeoff", "x": 1, "n": 128, "t": 2, "preset": A,
     "adversary": "eclipse", "constants": NO_GOSSIP_FLOOR, "seeds": [0]},
    {"protocol": "tradeoff", "x": 1, "n": 128, "t": 2, "preset": A,
     "adversary": "eclipse", "inputs": "ones", "constants": NO_GOSSIP_FLOOR,
     "seeds": [0]},
    {"protocol": "tradeoff", "x": 1, "n": 128, "t": 2, "preset": A,
     "adversary": "crash", "constants": NO_GOSSIP_FLOOR, "seeds": [1]},
]}

GOLDEN = [
    "5c5f9d8fb954fda9b8f4da417ab743d387cb4fca197512d1d0fd116abd82a67b",
    "bb9ada66e287b674aac0d534663ad3f52f4b5ad048b0915d1b3a86f4aac5d87f",
    "e80714c145883a2a437ac97151ba2e4975fc2c4a154e5f695d2b9acc781c0c6c",
    "ef31ac5bfc750b2c0fa631ececa87e67224f466c552a338b5fa144ca2720027d",
    "ba0d0c8d30f81854427814fb22cb7109a0946b4d54b8d71c7c489bc712711d02",
    "848e8aec78f0c592c3256c6bb713cde5599bac1ebacd0d351f224997eedf515c",
    "b900379723b8ec0615a457d5ce89b32b8c27e67c34a424dd5f88e20da7bed01c",
    "79f4f9569b606bc2bc53e2a320d77972b2a438f1977b8dc304f0f4a899a60382",
    "549cbcfbcc2224ff9e84614fb8e874795cb882ec5b1caf7c2e6681bfb17160a0",
    "18137cdd06145082a9978b3d38f1ae80ef05c3348e6b3cbc38254314a7856b22",
    "ef98e40b9b1f918838c3ccacb7069097d3eb026c1a636c13274f99a21edf4c78",
    "fefb2ee84c1431420069fc0df9e4a03f9da9cafd5dd1acce338e2cb83456d919",
]


def test_replay_matches_golden_hashes():
    lines = to_jsonl(run_sweep(PLAN)).splitlines(keepends=True)
    got = [hashlib.sha256(line.encode()).hexdigest() for line in lines]
    assert len(got) == len(GOLDEN)
    for i, (g, want) in enumerate(zip(got, GOLDEN)):
        assert g == want, "record %d (%s) changed" % (i, lines[i][:120])
