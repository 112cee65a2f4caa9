"""Traced mode: per-layer time and counts, measured from outside the program.

`install` replaces each layer's public functions where the calling module
looks them up (a module global or a class attribute) with timing wrappers,
and `uninstall` puts the originals back.  Nothing under `src/` changes.

Every timed region sits on one stack, so a region's self time is its
duration minus the time of the regions nested in it (aggregation minus
relay, engine run minus delivery, and so on).  Generator layers (the
protocols are engine-driven generators) are timed per resume: the wrapper
drives the inner generator and times each `send` into it.

The per-kind message and bit tally is read from the outbox at the engine's
two delivery methods, inside a region of its own (`trace.tally`) so that
its cost is kept out of every layer's time.

Call regions are also kept as spans (id, parent id, layer, start, end) in
memory; `write_spans` dumps them when the run ends.
"""

import json
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []                  # [layer, child seconds, span id]
        self.spans = []
        self.counts = Counter()          # event counters
        self.calls = Counter()           # layer -> timed regions
        self.msgs = Counter()            # payload kind -> messages
        self.bits = Counter()            # payload kind -> bits
        self.reset_layers()

    def reset_layers(self):
        self.incl = defaultdict(float)   # layer -> inclusive seconds
        self.self_ = defaultdict(float)  # layer -> self seconds
        self.child = defaultdict(float)  # (parent layer, child layer) -> seconds

    def enter(self, layer, span=False):
        self.stack.append([layer, 0.0, len(self.spans) if span else None])
        if span:
            self.spans.append(None)      # filled in by leave()
        return clock()

    def leave(self, t0):
        t1 = clock()
        dt = t1 - t0
        layer, children, span_id = self.stack.pop()
        self.incl[layer] += dt
        self.self_[layer] += dt - children
        self.calls[layer] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
            self.child[(parent[0], layer)] += dt
        if span_id is not None:
            self.spans[span_id] = (span_id, parent[2] if parent else None,
                                   layer, t0, t1)

    def call(self, layer, fn):
        def wrapped(*args, **kwargs):
            t0 = self.enter(layer, span=True)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(t0)
        wrapped.__wrapped__ = fn
        return wrapped

    def gen(self, layer, fn):
        def wrapped(*args, **kwargs):
            return self.drive(layer, fn(*args, **kwargs))
        wrapped.__wrapped__ = fn
        return wrapped

    def drive(self, layer, gen):
        send = gen.send
        value = None
        try:
            while True:
                t0 = self.enter(layer)
                try:
                    out = send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.leave(t0)
                value = yield out
        finally:
            gen.close()

    def counted(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def delivery(self, fn):
        """Wrap an Engine delivery method: tally the outbox, then deliver."""
        msgs, bits, counts = self.msgs, self.bits, self.counts

        def wrapped(engine, outbox, *args):
            t0 = self.enter("trace.tally")
            try:
                for _sender, receivers, payload, b in outbox:
                    k = len(receivers)
                    kind = payload[0]
                    msgs[kind] += k
                    bits[kind] += b * k
                    if kind == "sp":
                        if payload[1]:
                            counts["groups.sp_entries"] += len(payload[1]) * k
                        else:
                            counts["groups.sp_empty"] += k
            finally:
                self.leave(t0)
            t0 = self.enter("engine.deliver", span=True)
            try:
                return fn(engine, outbox, *args)
            finally:
                self.leave(t0)
        wrapped.__wrapped__ = fn
        return wrapped

    def snapshot(self):
        """Layer times and counts since the last snapshot, then start afresh."""
        snap = {"incl": dict(self.incl), "self": dict(self.self_),
                "child": dict(self.child), "calls": dict(self.calls),
                "counts": dict(self.counts)}
        self.reset_layers()
        self.calls.clear()
        self.counts.clear()
        return snap

    def write_spans(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "columns": ["id", "parent", "layer", "start_s", "end_s"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def install(tracer):
    """Patch every layer's entry points; returns the list of originals,
    which `uninstall` restores."""
    from omsim import (adversaries, coingame, consensus, engine, fallback,
                       graphs, groups, harness, metrics, tradeoff)
    t = tracer
    patches = [
        (engine.Engine, "run", t.call("engine.run", engine.Engine.run)),
        (engine.Engine, "_deliver_fast", t.delivery(engine.Engine._deliver_fast)),
        (engine.Engine, "_deliver_general", t.delivery(engine.Engine._deliver_general)),
        (engine, "adversary_view", t.call("adversaries.view", engine.adversary_view)),
        (consensus.MainConsensus, "run",
         t.gen("consensus.closing", consensus.MainConsensus.run)),
        (tradeoff.TradeoffConsensus, "run",
         t.gen("tradeoff.run", tradeoff.TradeoffConsensus.run)),
        (groups, "group_relay", t.gen("groups.relay", groups.group_relay)),
        (consensus, "group_bits_aggregation",
         t.gen("groups.aggregate", consensus.group_bits_aggregation)),
        (consensus, "group_bits_spreading",
         t.gen("groups.spread", consensus.group_bits_spreading)),
        (consensus, "decide_candidate",
         t.counted("consensus.votes", consensus.decide_candidate)),
        (groups.Instance, "__init__", t.call("groups.instance", groups.Instance.__init__)),
        (graphs, "check_expansion", t.call("graphs.expansion", graphs.check_expansion)),
        (graphs, "check_edge_sparsity",
         t.call("graphs.sparsity", graphs.check_edge_sparsity)),
        (graphs, "check_dense_neighborhood_growth",
         t.call("graphs.growth", graphs.check_dense_neighborhood_growth)),
        (graphs, "certify", t.call("graphs.certify", graphs.certify)),
        (coingame, "bias_probability",
         t.call("coingame.bias", coingame.bias_probability)),
        (metrics.Metrics, "revalidate",
         t.call("harness.validate", metrics.Metrics.revalidate)),
        (engine.ExecutionTrace, "verify",
         t.call("harness.validate", engine.ExecutionTrace.verify)),
        (harness, "check_lower_bound_product",
         t.call("harness.validate", harness.check_lower_bound_product)),
        (harness, "to_jsonl", t.call("harness.emit", harness.to_jsonl)),
        (harness, "run_record", t.call("harness.record", harness.run_record)),
        (harness, "run_sweep", t.call("harness.sweep", harness.run_sweep)),
    ]
    # one wrapper per function object, shared by every module that imported it
    core = t.gen("consensus.core", consensus.main_core)
    flood = t.gen("fallback.run", fallback.run_fallback)
    gen = t.call("graphs.generate", graphs.generate)
    for mod in (consensus, tradeoff):
        patches.append((mod, "main_core", core))
        patches.append((mod, "run_fallback", flood))
    for mod in (graphs, groups, tradeoff):
        patches.append((mod, "generate", gen))
    hook_names = ("start", "corruptions", "silenced", "send_filter", "decide")
    for cls in (engine.AdversaryStrategy, adversaries.CrashAsOmission,
                adversaries.Eclipse, adversaries.CoinBiaser):
        for name in hook_names:
            if name in vars(cls):
                patches.append((cls, name, t.call("adversaries.hook", vars(cls)[name])))

    originals = []
    for owner, name, wrapper in patches:
        originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)
    return originals


def uninstall(originals):
    for owner, name, fn in reversed(originals):
        setattr(owner, name, fn)
