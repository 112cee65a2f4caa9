"""Golden replay: pinned sha256 of each JSONL line of a fixed sweep.

Criterion 12 replays the current code against itself, so it cannot catch a
refactor that changes what a record says.  This plan pins the records
themselves.  Its cells cover the in-epoch decision with coin draws, the
fallback, unanimity, the three adversaries, a liveness-failure error
record, both trade-off shapes, and the only cells known where non-faulty
processes decide by waiting for a fallback announcement (`fd`).  The last
two cells run 4-stage group trees (n=256) in which relay sources go
inoperative mid-run, crashed from round 1 or eclipsed in turn.

A record that legitimately changes (a new field, a fixed bug) needs its
hash re-pinned here, with the reason said in the change that does it.

`GOLDEN` pins the records from before the unused constants `coin_coeff`
and `coin_log_base` were deleted: each line must hash to its old pin once
the two keys are put back.  `CURRENT` pins the lines as emitted now.
The eclipse records 9, 10 and 14 are the exception: both of their pins
hold the records of the per-link send filter, `GOLDEN`'s with the two keys
put back.
"""

import hashlib
import json

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
    {"protocol": "main", "n": 256, "t": 8, "preset": A, "adversary": "crash",
     "seeds": [0, 1]},
    {"protocol": "main", "n": 256, "t": 8, "preset": A, "adversary": "eclipse",
     "seeds": [2]},
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
    "1083e1e71e7e25b3ea4f183c3aa3d57106a6b9c588cf998a406c7e22c3ed6d35",
    "367e880bcde70165d2e5b779c88059b543daca4dde0a0dc2815a8db52213e35f",
    "fefb2ee84c1431420069fc0df9e4a03f9da9cafd5dd1acce338e2cb83456d919",
    "e8913c2a48cc928555e4936e63595303a553331b2a0a48aafb6427380b1a9ae8",
    "d0c63ba48d0b9ee3a5d752a93d27a7d7dc357a92b231efb535cafd9aac78c46c",
    "862a69dd8ffff2c4de1da9848be02fb6524e1ad3be7d11b34ccd0aee485da0af",
]


CURRENT = [
    "883d3e92d4ea2397b0de02b1ea087434eccb79bf0ebe556b6162e3d5b9bfabdb",
    "80ebd07f647c176ae7a03072675afa8572874f72b6d74df393eefb4f68bf50d9",
    "bd3871f6f8bd5818531636f0a99ceb67b157329ea69556167c079ef83d2094c4",
    "23db109c7e1c84121b64d3db18501af6517a461142afe6c82635d31a647516d4",
    "90b56c312256c40f88def05c6045ad1ee2cab7a4354cd6f57af93b4f66fa3fcd",
    "9b1da9ebfc76fd96c38b6e7058b4d12d273c680d16e19a0af1194cd1c79fe57d",
    "b900379723b8ec0615a457d5ce89b32b8c27e67c34a424dd5f88e20da7bed01c",
    "e9405d5b42097ed44f842231fa06065f0b82b34d09dde1026829dd4df07a691c",
    "1d78f71f6b3bae051fb284cbddb88c2610ca8f8c33e820a4c9d303ca73281281",
    "f71801a35c195839a09db335f937bcc84e11f3f3a3135f5ad0bc3de67b8dc8c9",
    "d670038a54ea9942fbaa7645624c5d25dc0773caf9b5c8c29dff8584350f6ee7",
    "fd5b0f322eaedb5a85673e22db0519c9457968a420c42a0f28c4eac4576afc79",
    "848d1c37103d9becbe90d76d37ecfc34db63c6e53a747b13a547da515989bf9b",
    "48637173b76d685edda3e6fb747267ae4b726904e7449873133352c1daef307a",
    "ae9fe1259f253b16eb570184c94f4ae9272f9429b8cc49623773b35160dca341",
]

DELETED_CONSTANTS = {"coin_coeff": 8.0, "coin_log_base": 2.718281828459045}


def sha(line):
    return hashlib.sha256(line.encode()).hexdigest()


def with_deleted_constants(line):
    rec = json.loads(line)
    if "constants" in rec:   # the liveness-error record carries none
        rec["constants"].update(DELETED_CONSTANTS)
    return json.dumps(rec, sort_keys=True) + "\n"


def test_replay_matches_golden_hashes():
    lines = to_jsonl(run_sweep(PLAN)).splitlines(keepends=True)
    assert len(lines) == len(GOLDEN) == len(CURRENT)
    for i, line in enumerate(lines):
        assert sha(with_deleted_constants(line)) == GOLDEN[i], \
            "record %d (%s) changed" % (i, line[:120])
        assert sha(line) == CURRENT[i], "record %d (%s) changed" % (i, line[:120])
