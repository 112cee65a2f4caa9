"""The four workloads, as lists of items made from a workload seed.

An item is one run record (config to JSONL line, through
`harness.run_sweep` and `harness.to_jsonl`), one overlay graph's
certification, or one coin-game oracle call.  Every consensus item runs
under the frozen `acceptance()` preset.  The workload seed `w` offsets every
item's run seed and graph seed, so two workload seeds share no seed:

- consensus items use run seeds 3w, 3w + 1, 3w + 2 (the grid pairs them with
  alternating, ones and zeros inputs, as `seed % 3` does in the acceptance
  grid, so w = 0..33 walks the acceptance grid's seeds 0..99);
- certify uses graph seeds 2w and 2w + 1.

The coin-game oracles are exact and take no seed.
"""

from omsim import coingame, graphs, harness
from omsim.engine import SystemConfig
from omsim.params import acceptance

import checks

INPUT_CYCLE = ("alternating", "ones", "zeros")
SEEDS_PER_CELL = len(INPUT_CYCLE)
GRID_NS = (30, 64, 128, 256)
ADVERSARIES = ("none", "crash", "eclipse", "coin-biaser")

# criterion 7's growth experiment, and the CLI's default overlay density,
# at which the certifiers return FAIL verdicts whose witnesses get checked
GRAPH_N = 200
GROWTH_COEFF = 18.0
SPARSE_COEFF = 3.0
CERTIFY_TRIALS = 400
GROWTH_GAMMAS = range(5)
GRAPHS_PER_PASS = 2

# (outcome function, players, hiding budget); both target bits of each.
# 32 is the criterion-8 budget hiding_budget(11, 0.25), above k; 3 makes
# the majority sum a proper part of the binomial mass.
ORACLES = (("majority", 11, 32), ("majority", 10, 3), ("parity", 11, 32))


def record_item(seed, n, t, protocol="main", x=1, adversary="none",
                inputs="alternating"):
    cell = {"n": n, "t": t, "protocol": protocol, "x": x,
            "adversary": adversary, "inputs": inputs}
    return {"kind": "record", "seed": seed, "cell": cell}


def grid_cells():
    for n in GRID_NS:
        for adv in ADVERSARIES:
            yield {"n": n, "t": n // 31, "protocol": "main", "adversary": adv}
            for x in (1, 4, 16):
                yield {"n": n, "t": n // 61, "protocol": "tradeoff", "x": x,
                       "adversary": adv}


def items(workload, wseed):
    seeds = [SEEDS_PER_CELL * wseed + i for i in range(SEEDS_PER_CELL)]
    if workload == "main-1024":
        return [record_item(s, 1024, 33) for s in seeds]
    if workload == "tradeoff-1024":
        return [record_item(s, 1024, 16, protocol="tradeoff", x=4) for s in seeds]
    if workload == "grid":
        return [record_item(s, inputs=INPUT_CYCLE[s % SEEDS_PER_CELL], **cell)
                for cell in grid_cells() for s in seeds]
    if workload == "certify":
        out = []
        for i in range(GRAPHS_PER_PASS):
            gseed = GRAPHS_PER_PASS * wseed + i
            out.append({"kind": "graph", "seed": gseed, "coeff": GROWTH_COEFF,
                        "growth": True})
            out.append({"kind": "graph", "seed": gseed, "coeff": SPARSE_COEFF,
                        "growth": False})
        for fname, k, budget in ORACLES:
            for v in (0, 1):
                out.append({"kind": "oracle", "f": fname, "k": k,
                            "budget": budget, "v": v})
        return out
    raise ValueError("unknown workload %r" % workload)


def build(item):
    """Set-up of one item: its protocol instance and adversary, or its
    overlay graph, as built before the first round."""
    if item["kind"] == "record":
        c = item["cell"]
        config = SystemConfig(n=c["n"], t=c["t"], seed=item["seed"],
                              inputs=harness.resolve_inputs(c["inputs"], c["n"]),
                              params=acceptance())
        harness.make_protocol(config, c["protocol"], c["x"])
        harness.make_adversary(c["adversary"], c["n"], c["t"])
    elif item["kind"] == "graph":
        graphs.generate(graphs.GraphConfig.from_coeff(GRAPH_N, item["coeff"],
                                                      item["seed"]))


def run(item, tracer=None):
    """Run one item; returns its output (JSONL text, graph results or a
    probability).  Everything here is inside the item's timing."""
    kind = item["kind"]
    if kind == "record":
        cell = dict(item["cell"], seeds=[item["seed"]], preset="acceptance")
        return harness.to_jsonl(harness.run_sweep({"cells": [cell]}))
    if kind == "graph":
        cfg = graphs.GraphConfig.from_coeff(GRAPH_N, item["coeff"], item["seed"])
        g = graphs.generate(cfg)
        rep = graphs.certify(g, cfg.delta, mode="sampled",
                             trials=CERTIFY_TRIALS, seed=item["seed"])
        sizes = None
        if item["growth"]:
            dcore = cfg.delta // 3
            sizes = [[graphs.check_dense_neighborhood_growth(g, v, gamma, dcore)
                      for gamma in GROWTH_GAMMAS] for v in range(1, g.n + 1)]
        return cfg, g, rep, sizes
    f = coingame.BUILTIN_F[item["f"]]
    if tracer is not None:
        f = tracer.counted("coingame.f_evals", f)
    game = coingame.CoinGame(k=item["k"], f=f)
    return coingame.bias_probability(game, item["v"], item["budget"])


def check(item, output, tally=None):
    """Output checks of one item; returns the list of problems found."""
    kind = item["kind"]
    if kind == "record":
        return checks.check_record_lines(output, tally)
    if kind == "graph":
        cfg, g, rep, sizes = output
        return checks.check_certification(g, cfg.delta, rep, sizes)
    return checks.check_oracle(item["f"], item["k"], item["budget"], item["v"],
                               output)
