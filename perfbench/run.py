"""Layered host-time benchmark for omsim.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one child each
    python3 perfbench/run.py --workload grid --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test          # show that every check can fail

One workload run repeats whole passes over the workload's items while the
next pass still fits in --seconds (at least one pass), checks every item's
output, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  --trace 0 reports the end-to-end
metrics; --trace 1 runs one untraced pass, then traced passes, and reports
the per-layer metrics (spans go to .perfbench_out/).  Exit status is 0
when every check passed, 1 when one failed, 2 on a usage error or when the
program's source is missing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("main-1024", "tradeoff-1024", "grid", "certify")
SETUP_PROBES = 3

END_TO_END = {"wall_s": "s", "item_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KINDS = ("rc", "rk", "rm", "sp", "dv", "fl", "sv", "fb", "fd")

# per-layer times: (metric, layer, which time); "incl" is the layer's whole
# time, "self" leaves out the timed layers nested in it
LAYER_TIMES = (
    ("engine.deliver_s", "engine.deliver", "self"),
    ("groups.relay_s", "groups.relay", "incl"),
    ("groups.spread_s", "groups.spread", "incl"),
    ("groups.aggregate_s", "groups.aggregate", "self"),
    ("groups.instance_s", "groups.instance", "self"),
    ("consensus.core_s", "consensus.core", "self"),
    ("consensus.closing_s", "consensus.closing", "self"),
    ("tradeoff.self_s", "tradeoff.run", "self"),
    ("fallback.self_s", "fallback.run", "self"),
    ("adversaries.hook_s", "adversaries.hook", "incl"),
    ("adversaries.view_s", "adversaries.view", "incl"),
    ("graphs.generate_s", "graphs.generate", "incl"),
    ("graphs.sparsity_s", "graphs.sparsity", "incl"),
    ("graphs.expansion_s", "graphs.expansion", "incl"),
    ("graphs.growth_s", "graphs.growth", "incl"),
    ("coingame.bias_s", "coingame.bias", "self"),
    ("harness.validate_s", "harness.validate", "incl"),
    ("harness.emit_s", "harness.emit", "incl"),
)
# engine.local_s: the engine's round time outside delivery, adversary hooks
# and the tally, i.e. stepping the process generators
NOT_LOCAL = ("engine.deliver", "adversaries.hook", "adversaries.view", "trace.tally")
RECORD_COUNTS = (("engine.rounds", "T"), ("engine.msgs", "sent_msgs"),
                 ("engine.bits", "comm_bits"), ("engine.omitted", "omitted_msgs"),
                 ("consensus.coin_draws", "R_accesses"))
EVENT_COUNTS = ("groups.sp_entries", "groups.sp_empty", "consensus.votes",
                "coingame.f_evals")

PER_LAYER = dict(
    [("engine.local_s", "s")] + [(name, "s") for name, _, _ in LAYER_TIMES]
    + [("trace.overhead_s", "s"), ("engine.deliver_msgs_per_s", "1/s")]
    + [(name, "bit" if name == "engine.bits" else "count") for name, _ in RECORD_COUNTS]
    + [(name, "count") for name in EVENT_COUNTS]
    + [("consensus.decided_epoch", "count"), ("consensus.decided_fallback", "count"),
       ("consensus.decided_waited", "count"), ("graphs.growth_calls", "count"),
       ("harness.record_bytes", "byte")]
    + [("msgs." + k, "count") for k in KINDS] + [("bits." + k, "bit") for k in KINDS])


def load_program():
    if not os.path.isfile(os.path.join(SRC, "omsim", "__init__.py")):
        print("perfbench: no omsim source under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def setup_seconds(workload, seed):
    """Median of fresh-process set-ups: import omsim, then build every
    item's protocol instance or overlay graph."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             check=True, capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


class Pass:
    """One pass over the items: per-item seconds, emitted records, tallies
    and problems, plus the tracer's layer snapshot in traced passes."""

    def __init__(self):
        self.item_s = []
        self.lines = []          # emitted JSONL per item, None for others
        self.tallies = []        # per-item (msgs, bits) by kind, when traced
        self.problems = []
        self.failed = 0
        self.wall_s = 0.0        # item time only; checks are left out
        self.layers = None


def run_pass(items, workloads, tracer=None):
    p = Pass()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.msgs.clear()
            tracer.bits.clear()
        t0 = time.process_time()
        out = error = None
        try:
            out = workloads.run(item, tracer)
        except Exception as e:   # a raising item is a failed operation
            error = e
        p.item_s.append(time.process_time() - t0)
        tally = (dict(tracer.msgs), dict(tracer.bits)) if tracer is not None else None
        p.tallies.append(tally)
        p.lines.append(out if isinstance(out, str) else None)
        try:
            problems = (["raised %r" % error] if error is not None
                        else workloads.check(item, out, tally))
        except Exception as e:   # so is output the checks cannot read
            problems = ["check raised %r" % e]
        if problems:
            p.failed += 1
            p.problems.extend("item %d: %s" % (i, s) for s in problems)
    p.wall_s = sum(p.item_s)
    if tracer is not None:
        p.layers = tracer.snapshot()
    return p


def run_passes(items, workloads, seconds, tracer=None):
    """Whole passes while the next one fits in `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(items, workloads, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def replay_problems(passes):
    """Every pass must emit byte-identical records."""
    ref = passes[0].lines
    return ["item %d: record differs between passes" % i
            for p in passes[1:] for i, (a, b) in enumerate(zip(ref, p.lines))
            if a is not None and b is not None and a != b]


def layer_metrics(passes, untraced_wall):
    """Per-layer metrics of the traced passes: times are medians over the
    passes; counts are per pass, as every pass repeats the same items."""
    def med(fn):
        return statistics.median(fn(p.layers) for p in passes)

    m = {"engine.local_s": med(lambda L: L["incl"].get("engine.run", 0.0) - sum(
        L["child"].get(("engine.run", c), 0.0) for c in NOT_LOCAL))}
    for name, layer, which in LAYER_TIMES:
        m[name] = med(lambda L: L[which].get(layer, 0.0))
    m["trace.overhead_s"] = statistics.median(p.wall_s for p in passes) - untraced_wall

    one = passes[0]
    for name in PER_LAYER:
        if PER_LAYER[name] != "s":
            m[name] = 0
    for msgs, bits in filter(None, one.tallies):
        for kind in KINDS:
            m["msgs." + kind] += msgs.get(kind, 0)
            m["bits." + kind] += bits.get(kind, 0)
    for line in filter(None, one.lines):
        rec = json.loads(line)
        for name, key in RECORD_COUNTS:
            m[name] += rec["metrics"][key]
        m["harness.record_bytes"] += len(line.encode())
        for name, n in zip(("epoch", "fallback", "waited"), checks.decided_split(rec)):
            m["consensus.decided_" + name] += n
    for name in EVENT_COUNTS:
        m[name] = one.layers["counts"].get(name, 0)
    m["graphs.growth_calls"] = one.layers["calls"].get("graphs.growth", 0)
    deliver = m["engine.deliver_s"]
    m["engine.deliver_msgs_per_s"] = m["engine.msgs"] / deliver if deliver else 0.0
    return m


def run_workload(args):
    load_program()
    import tracing
    import workloads
    items = workloads.items(args.workload, args.seed)
    if args.trace:
        untraced = run_pass(items, workloads)
        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
        try:
            passes = run_passes(items, workloads, args.seconds - untraced.wall_s,
                                tracer)
        finally:
            tracing.uninstall(originals)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(
            os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed)),
            {"workload": args.workload, "seed": args.seed, "traced_passes": len(passes)})
        metrics, units = layer_metrics(passes, untraced.wall_s), PER_LAYER
        passes = [untraced] + passes
    else:
        passes = run_passes(items, workloads, args.seconds)
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "item_s": statistics.geometric_mean(s for p in passes for s in p.item_s),
            "setup_s": setup_seconds(args.workload, args.seed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    replay = replay_problems(passes)
    problems = [s for p in passes for s in p.problems] + replay
    failed = sum(p.failed for p in passes) + len(replay)
    for line in problems[:20]:
        print("check failed: %s" % line, file=sys.stderr)
    result = {"correct": failed == 0,
              "attempted": sum(len(p.item_s) for p in passes), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in a child process of its own, one after another."""
    load_program()
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            print("%s: exit %d without a result" % (name, proc.returncode))
            status = 1
            continue
        res = json.loads(lines[-1])
        print("%s: attempted=%d failed=%d" % (name, res["attempted"], res["failed"]))
        for key, v in res["metrics"].items():
            print("  %-28s %.6g %s" % (key, v["value"], v["unit"]))
        status = max(status, proc.returncode)
    return status


def run_self_test():
    load_program()
    rows = checks.self_test()
    for check, label, ok in rows:
        print("%-9s %-44s %s" % (check, label, "ok" if ok else "WRONG"))
    wrong = sum(not ok for _, _, ok in rows)
    print("self-test: %d cases, %d wrong" % (len(rows), wrong))
    return 0 if wrong == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.self_test:
        return run_self_test()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
