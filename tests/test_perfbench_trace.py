"""The traced benchmark mode patches names in the program (see
perfbench/tracing.py).  A change that drops or moves one of them breaks
`perfbench/run.py --trace 1`; this test makes that fail here too."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402

from omsim import harness  # noqa: E402
from omsim.engine import SystemConfig, run_execution  # noqa: E402

from test_engine import Echo, OmitAllFromOne  # noqa: E402

PLAN = {"cells": [
    {"n": 64, "t": 2, "protocol": "main", "adversary": "crash",
     "preset": "acceptance", "seeds": [0]},
    {"n": 64, "t": 1, "protocol": "tradeoff", "x": 4, "adversary": "eclipse",
     "preset": "acceptance", "seeds": [0]},
]}


def test_traced_records_equal_untraced_and_tallies_match():
    plain = harness.to_jsonl(harness.run_sweep(PLAN))
    tracer = tracing.Tracer()
    originals = tracing.install(tracer)
    try:
        traced = harness.to_jsonl(harness.run_sweep(PLAN))
    finally:
        tracing.uninstall(originals)
    assert traced == plain
    records = [json.loads(line) for line in plain.splitlines()]
    assert len(records) == 2 and all("error" not in r for r in records)
    assert sum(tracer.msgs.values()) == sum(r["metrics"]["sent_msgs"] for r in records)
    assert sum(tracer.bits.values()) == sum(r["metrics"]["comm_bits"] for r in records)
    assert tracer.calls["engine.run"] == 2


def test_filtered_round_is_tallied_once():
    # the tracer wraps both delivery names and tallies the outbox in each
    # wrapper; the engine calls one, so a round with link-filter drops is
    # counted once
    cfg = SystemConfig(n=4, t=1, seed=5, inputs=(0, 1, 1, 1))
    tracer = tracing.Tracer()
    originals = tracing.install(tracer)
    try:
        _, trace, m = run_execution(cfg, Echo, OmitAllFromOne())
    finally:
        tracing.uninstall(originals)
    assert m.sent_msgs == 12 and m.omitted_msgs == 3
    assert sum(tracer.msgs.values()) == m.sent_msgs
    assert tracer.calls["engine.deliver"] == len(trace.rounds)
