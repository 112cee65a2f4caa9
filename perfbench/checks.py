"""Output checks, each made apart from the program or from a property the
method must have, plus a self-test that feeds each check tampered outputs.

Consensus records are read back from their emitted JSONL line.  The
closed-form round count is recomputed here from the record's constants;
coin-game probabilities are compared with binomial sums in `Fraction`;
certifier witnesses and growth sizes are re-counted on the graph's edge
list with this module's own breadth-first search.
"""

import json
import math
from fractions import Fraction


# --- consensus records ---------------------------------------------------

def log2_ceil(n):
    return max(1, (n - 1).bit_length())


def ceil_ratio_sqrt(q, k):
    """Smallest integer e >= 0 with e * sqrt(k) >= q, for a Fraction q."""
    e = max(0, int(q / math.sqrt(k)) - 1)
    while e * e * k < q * q:
        e += 1
    return e


def scope_rounds(k, t, c):
    """(epochs, rounds per epoch) of one consensus scope of k processes:
    ceil(sqrt k) groups of near-equal size, a binary tree of depth
    ceil(log2 W) over the largest group W at 3 rounds per level, then
    ceil(spreading_coeff * log n) gossip rounds."""
    groups = math.isqrt(k - 1) + 1 if k > 1 else 1
    widest = -(-k // groups)
    L = log2_ceil(k)
    stages = (widest - 1).bit_length()
    spreading = max(1, math.ceil(c["spreading_coeff"] * L))
    epochs = max(1, ceil_ratio_sqrt(Fraction(c["epoch_coeff"]) * t * L, k))
    return epochs, 3 * stages + spreading


def closed_form_T(rec):
    c, n, t = rec["constants"], rec["n"], rec["t"]
    if rec["protocol"] == "main":
        epochs, per_epoch = scope_rounds(n, t, c)
        return epochs * per_epoch + 2   # + dissemination + decide
    flooding = max(1, math.ceil(c["flooding_coeff"] * log2_ceil(n)))
    base, extra = divmod(n, rec["x"])
    total = 0
    for i in range(rec["x"]):
        k = base + (1 if i < extra else 0)
        t_inner = max(0, min(t, k // c["main_fault_bound"] - 1))
        epochs, per_epoch = scope_rounds(k, t_inner, c)
        total += epochs * per_epoch + 1 + flooding
    return total + 3                    # + safety exchange + dissemination + decide


def decided_split(rec):
    """How each decision was reached, read off its round against the
    schedule: by the closed-form end (epoch loop, dissemination or safety
    exchange), at the end of the t + 1 fallback rounds, or later by waiting
    for a fallback announcement."""
    cf, t = rec["closed_form_T"], rec["t"]
    epoch = fallback = waited = 0
    for _value, rnd in rec["decisions"].values():
        if rnd <= cf:
            epoch += 1
        elif rnd <= cf + t + 1:
            fallback += 1
        else:
            waited += 1
    return epoch, fallback, waited


def check_record(rec, tally=None):
    """Problems with one run record; `tally` is (messages, bits) by payload
    kind as counted at delivery, when the run was traced."""
    problems = []
    n, t = rec["n"], rec["t"]
    m = rec["metrics"]
    honest = [str(p) for p in range(1, n + 1) if str(p) not in rec["corrupted"]]
    missing = [p for p in honest if p not in rec["decisions"]]
    if missing:
        problems.append("never-corrupted processes undecided: %s" % missing[:5])
    values = {rec["decisions"][p][0] for p in honest if p in rec["decisions"]}
    if len(values) > 1:
        problems.append("disagreement among never-corrupted processes")
    if not values <= {0, 1}:
        problems.append("decision outside {0, 1}: %s" % sorted(values))
    inputs = set(rec["inputs"])
    if len(inputs) == 1:
        bit = int(inputs.pop())
        if values and values != {bit}:
            problems.append("unanimous %d inputs decided %s" % (bit, sorted(values)))
        if m["R_accesses"] != 0:
            problems.append("unanimous inputs drew %d coins" % m["R_accesses"])
    cf = closed_form_T(rec)
    if rec["closed_form_T"] != cf:
        problems.append("closed_form_T %d, recomputed %d" % (rec["closed_form_T"], cf))
    if m["fallback_triggered"]:
        if not cf < m["T"] <= cf + t + 3:
            problems.append("fallback run with T=%d outside (%d, %d]"
                            % (m["T"], cf, cf + t + 3))
    elif m["T"] != cf:
        problems.append("T=%d without fallback, closed form %d" % (m["T"], cf))
    if tally is not None:
        msgs, bits = tally
        if sum(msgs.values()) != m["sent_msgs"]:
            problems.append("per-kind messages sum to %d, sent_msgs %d"
                            % (sum(msgs.values()), m["sent_msgs"]))
        if sum(bits.values()) != m["comm_bits"]:
            problems.append("per-kind bits sum to %d, comm_bits %d"
                            % (sum(bits.values()), m["comm_bits"]))
    return problems


def check_record_lines(text, tally=None):
    lines = text.splitlines()
    if len(lines) != 1:
        return ["expected one JSONL line, got %d" % len(lines)]
    rec = json.loads(lines[0])
    if "error" in rec:
        return ["error record: %s" % rec["error"]]
    return check_record(rec, tally)


# --- overlay certifiers ---------------------------------------------------

def adjacency(graph):
    """Neighbour bitmasks (bit q set for each edge v-q), from the edge list."""
    masks = [0] * (graph.n + 1)
    for a, b in graph.edges():
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def members(mask):
    return {q for q in range(mask.bit_length()) if mask >> q & 1}


def ball_sizes(masks, v, radius):
    """Sizes of the balls of radius 0..radius around v, by BFS."""
    ball = frontier = 1 << v
    sizes = [1]
    for _ in range(radius):
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~ball
        ball |= reach
        sizes.append(ball.bit_count())
    return sizes


def check_certification(graph, delta, rep, sizes):
    """FAIL witnesses must re-verify; growth sizes (for graphs certified
    edge-sparse) must be 0 or within [min(2^gamma, n/10), |gamma-ball|]."""
    problems = []
    adj = adjacency(graph)
    n = graph.n
    for ell, verdict in rep.expanding.items():
        if verdict.ok:
            continue
        A, far = verdict.witness
        if len(A) != ell or len(far) != ell or set(A) & set(far):
            problems.append("expansion witness has wrong shape")
        elif any(adj[a] >> q & 1 for a in A for q in far):
            problems.append("expansion witness sets are joined by an edge")
    sparse = True
    alpha = delta / 15   # certify's default, which the workload uses
    for (ell, _rounded_alpha), verdict in rep.edge_sparse.items():
        if verdict.ok:
            continue
        sparse = False
        X = set(verdict.witness)
        inside = sum(len(members(adj[v]) & X) for v in X) // 2
        if not 2 <= len(X) <= ell or inside <= alpha * len(X):
            problems.append("sparsity witness of %d vertices spans %d edges"
                            % (len(X), inside))
    if sizes is not None:
        for v in range(1, n + 1):
            balls = ball_sizes(adj, v, len(sizes[v - 1]) - 1)
            for gamma, size in enumerate(sizes[v - 1]):
                low = min(2 ** gamma, n // 10) if sparse else 1
                if size and not low <= size <= balls[gamma]:
                    problems.append("growth v=%d gamma=%d size %d outside [%d, %d]"
                                    % (v, gamma, size, low, balls[gamma]))
    return problems


# --- coin-game oracles -----------------------------------------------------

def hiding_cost(fname, k, j, v):
    """Fewest players to hide so that f reads v when j of k bits are one;
    None when no hiding set works."""
    if fname == "majority":   # ties go to 0; hide ones to force 0, zeros for 1
        if v == 0:
            return max(0, 2 * j - k)
        return max(0, k - 2 * j + 1) if j >= 1 else None
    if v == 0:                 # parity of the visible ones
        return j % 2
    return 0 if j % 2 else (1 if j >= 2 else None)


def bias_closed_form(fname, k, budget, v):
    total = sum(math.comb(k, j) for j in range(k + 1)
                if (c := hiding_cost(fname, k, j, v)) is not None and c <= budget)
    return Fraction(total, 2 ** k)


def check_oracle(fname, k, budget, v, probability):
    want = bias_closed_form(fname, k, budget, v)
    if probability != want:
        return ["%s k=%d budget=%d v=%d: %s, closed form %s"
                % (fname, k, budget, v, probability, want)]
    return []


# --- self-test --------------------------------------------------------------

def self_test():
    """Run each check on real outputs, then on tampered copies; returns the
    list of (check, case, passed) rows.  Every clean case must pass and
    every tampered case must fail."""
    import copy
    from omsim import coingame, graphs, harness
    from omsim.params import acceptance
    import tracing

    rows = []

    def case(check_name, label, problems, want_clean):
        rows.append((check_name, label, (not problems) == want_clean))

    tracer = tracing.Tracer()
    originals = tracing.install(tracer)
    try:
        recs = {}
        for proto, x, inputs, seed in (("main", 1, "alternating", 0),
                                       ("tradeoff", 4, "alternating", 0),
                                       ("main", 1, "ones", 1)):
            tracer.msgs.clear()
            tracer.bits.clear()
            t = 2 if proto == "main" else 1
            rec = harness.run_record(n=64, t=t, seed=seed, protocol=proto, x=x,
                                     inputs=inputs, constants=acceptance())
            recs[(proto, inputs)] = (json.loads(harness.to_jsonl([rec])),
                                     (dict(tracer.msgs), dict(tracer.bits)))
    finally:
        tracing.uninstall(originals)

    rec, tally = recs[("main", "alternating")]
    case("consensus", "real main record", check_record(rec, tally), True)
    case("consensus", "real tradeoff record",
         check_record(*recs[("tradeoff", "alternating")]), True)
    urec, utally = recs[("main", "ones")]
    case("consensus", "real unanimous record", check_record(urec, utally), True)

    def tampered(base, edit):
        r = copy.deepcopy(base)
        edit(r)
        return r

    def flip_one(r):
        d = r["decisions"]["1"]
        d[0] = 1 - d[0]

    def drop_one(r):
        del r["decisions"]["2"]

    def bump(key, by=1):
        def edit(r):
            r["metrics"][key] += by
        return edit

    def decide_zero(r):
        for d in r["decisions"].values():
            d[0] = 0

    def with_T(T, fallback):
        def edit(r):
            r["metrics"].update(T=T, fallback_triggered=fallback)
        return edit

    cf = rec["closed_form_T"]
    for label, base, edit, tal in (
            ("flipped decision", rec, flip_one, tally),
            ("undecided process", rec, drop_one, tally),
            ("altered comm_bits", rec, bump("comm_bits"), tally),
            ("altered sent_msgs", rec, bump("sent_msgs"), tally),
            ("altered closed_form_T", rec,
             lambda r: r.update(closed_form_T=r["closed_form_T"] + 1), tally),
            ("T off the closed form", rec, with_T(cf + 1, False), tally),
            ("fallback T past t+3", rec, with_T(cf + rec["t"] + 4, True), tally),
            ("fallback T at the closed form", rec, with_T(cf, True), tally),
            ("unanimous decided other bit", urec, decide_zero, utally),
            ("unanimous drew a coin", urec, bump("R_accesses"), utally)):
        case("consensus", label, check_record(tampered(base, edit), tal), False)

    # certifiers: a sparse overlay gives FAIL verdicts with real witnesses
    cfg = graphs.GraphConfig.from_coeff(200, 3.0, 0)
    g = graphs.generate(cfg)
    rep = graphs.certify(g, cfg.delta, mode="sampled", trials=400, seed=0)
    fails = [v for v in (*rep.expanding.values(), *rep.edge_sparse.values()) if not v.ok]
    case("certifier", "real FAIL witnesses (%d verdicts)" % len(fails),
         check_certification(g, cfg.delta, rep, None) if len(fails) == 2
         else ["expected two FAIL verdicts"], True)
    adj = adjacency(g)
    bad = copy.deepcopy(rep)
    (ell, _alpha), verdict = next(iter(bad.edge_sparse.items()))
    verdict.witness = [1] + [q for q in range(2, 200) if not adj[1] >> q & 1][:ell - 1]
    case("certifier", "sparsity witness without dense edges",
         check_certification(g, cfg.delta, bad, None), False)
    bad = copy.deepcopy(rep)
    ell, verdict = next(iter(bad.expanding.items()))
    a = 1
    b = min(members(adj[a]))
    A = [a] + [q for q in range(2, 200) if q != b][:ell - 1]
    far = [b] + [q for q in range(200, 1, -1) if q not in A and q != b][:ell - 1]
    verdict.witness = (A, far)
    case("certifier", "expansion witness joined by an edge",
         check_certification(g, cfg.delta, bad, None), False)

    dense_cfg = graphs.GraphConfig.from_coeff(200, 18.0, 0)
    dg = graphs.generate(dense_cfg)
    drep = graphs.certify(dg, dense_cfg.delta, mode="sampled", trials=400, seed=0)
    sizes = [[graphs.check_dense_neighborhood_growth(dg, v, gamma, dense_cfg.delta // 3)
              for gamma in range(5)] for v in range(1, 21)]
    sizes += [[0] * 5 for _ in range(180)]
    case("certifier", "real growth sizes",
         check_certification(dg, dense_cfg.delta, drep, sizes), True)
    for label, gamma, size in (("growth below 2^gamma", 3, 7),
                               ("growth above the ball", 1, 10 ** 6)):
        bad_sizes = copy.deepcopy(sizes)
        bad_sizes[0][gamma] = size
        case("certifier", label,
             check_certification(dg, dense_cfg.delta, drep, bad_sizes), False)

    for fname, k, budget in (("majority", 8, 3), ("parity", 8, 3)):
        for v in (0, 1):
            game = coingame.CoinGame(k=k, f=coingame.BUILTIN_F[fname])
            p = coingame.bias_probability(game, v, budget)
            label = "%s k=%d v=%d" % (fname, k, v)
            case("coin-game", "real " + label, check_oracle(fname, k, budget, v, p), True)
            case("coin-game", "wrong probability " + label,
                 check_oracle(fname, k, budget, v, p + Fraction(1, 2 ** k)), False)
    return rows
