"""Intra-epoch communication subroutines.

Processes are split into about sqrt(n) groups.  Within a group, counts of
candidate ones/zeros are aggregated bottom-up over a binary-tree bag
decomposition (3 engine rounds per tree stage, via the relay pattern), then
every group's pair is gossiped across the overlay graph.

All routines are generators driven by the engine through the owning
protocol's generator (`yield from`).  They are written against an Instance,
which precomputes the partition, trees, overlay neighborhoods and round
schedule for one consensus scope; the trade-off protocol instantiates these
on super-process subsets.

Counts support a provenance mode used by tests: instead of integers they
become frozensets of contributing process ids, with identical control flow,
so contribution invariants can be asserted on real runs.
"""

from .engine import ProtoState  # noqa: F401  (re-exported: the routines' `st`)
from .engine import count_bits, group_index_bits, isqrt_ceil, log2_ceil
from .graphs import GraphConfig, generate


def split_blocks(members, m):
    """Split a sorted member tuple into m contiguous blocks, every block
    within one of k // m; empty blocks (m > k) are dropped."""
    base, extra = divmod(len(members), m)
    blocks = []
    at = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        blocks.append(tuple(members[at:at + size]))
        at += size
    return [b for b in blocks if b]


def make_groups(members):
    """Split a sorted member tuple into ceil(sqrt(k)) blocks of nearly
    equal size."""
    return split_blocks(members, isqrt_ceil(len(members)))


def build_tree(group):
    """Binary-tree bag decomposition: layer 0 is singletons, each higher bag
    is the union of two children (a trailing odd bag promotes alone)."""
    layers = [[(p,) for p in group]]
    while len(layers[-1]) > 1:
        prev = layers[-1]
        nxt = []
        for i in range(0, len(prev), 2):
            if i + 1 < len(prev):
                nxt.append(prev[i] + prev[i + 1])
            else:
                nxt.append(prev[i])
        layers.append(nxt)
    return layers


def overlay(members, constants, seed, graph_tag=0):
    """The overlay over sorted members: its degree parameter, which cannot
    exceed k - 1, and pid -> neighbor tuple."""
    k = len(members)
    if k == 1:
        return 0, {members[0]: ()}
    delta = min(max(1, int(round(constants.delta_coeff * log2_ceil(k)))), k - 1)
    g = generate(GraphConfig(n=k, delta=delta,
                             seed=(seed * 1000003 + graph_tag) & (2 ** 63 - 1)))
    return delta, {p: tuple(members[j - 1] for j in g.neighbors(i))
                   for i, p in enumerate(members, start=1)}


class Instance:
    """Everything shared by one consensus scope: membership, the group
    partition and trees, the overlay graph, and the round schedule."""

    def __init__(self, members, t, seed, constants, provenance=False, graph_tag=0):
        self.members = tuple(sorted(members))
        self.member_set = frozenset(self.members)
        self.k = len(self.members)
        self.constants = constants
        self.provenance = provenance

        self.groups = make_groups(self.members)
        self.m = len(self.groups)
        self.group_of = {}
        for gi, g in enumerate(self.groups):
            for p in g:
                self.group_of[p] = gi
        self.trees = [build_tree(g) for g in self.groups]
        self.stages = max(len(t_) - 1 for t_ in self.trees)

        L = log2_ceil(self.k)
        self.delta, self.neighbors = overlay(self.members, constants, seed, graph_tag)

        self.spreading_rounds = max(1, int(-(-constants.spreading_coeff * L // 1)))
        self.epoch_rounds = 3 * self.stages + self.spreading_rounds
        raw = constants.epoch_coeff * t * L / (self.k ** 0.5) if self.k else 0
        self.epochs = max(1, int(-(-raw // 1)))

        # encoded field widths
        self.cb = count_bits(self.k)
        self.gib = group_index_bits(self.k)

        # static relay roles: for each group member and stage, its bag at the
        # next layer and whether it sits in the left or right child
        self.stage_role = {}
        for gi, layers in enumerate(self.trees):
            for s in range(1, len(layers)):
                bags, prev = layers[s], layers[s - 1]
                for bi, bag in enumerate(bags):
                    left = prev[2 * bi]
                    right = prev[2 * bi + 1] if 2 * bi + 1 < len(prev) else ()
                    for p in bag:
                        side = "L" if p in left else "R"
                        self.stage_role[(p, s)] = (bag, side)

    # --- count algebra: ints normally, id sets in provenance mode --------
    def zero(self):
        return frozenset() if self.provenance else 0

    def unit(self, pid):
        return frozenset({pid}) if self.provenance else 1

    def add(self, a, b):
        return (a | b) if self.provenance else (a + b)

    def val(self, a):
        return len(a) if self.provenance else a


def group_relay(inst, ctx, st, stage, counts_in):
    """One relay stage inside a group: 3 engine rounds.

    Round 1: operative bag members (sources) send their child-side counts to
    the whole group.  Round 2: every group member confirms, one bit, to each
    source it heard; a source short of a majority of the group (its own copy
    included) goes inoperative.  Round 3: every member relays its merged
    per-side sets to the bag; sources short of a majority of merges also go
    inoperative.  Conflicting candidates for a side resolve to the lowest
    sender id (inboxes arrive in sender order, first write wins).

    counts_in is (side, ones, zeros) or None when p holds nothing to source
    (inoperative processes still do all the transmitter work).  Returns the
    merged {side: (ones, zeros)} for p's bag, or None if p is not a source
    or went inoperative.
    """
    group = inst.groups[inst.group_of[ctx.pid]]
    W = len(group)
    others = [q for q in group if q != ctx.pid]
    pair_bits = 2 * inst.cb
    sourcing = st.operative and counts_in is not None

    # round 1: sources -> group
    if sourcing:
        side, ones, zeros = counts_in
        ctx.broadcast(others, ("rc", side, ones, zeros), 1 + pair_bits)
    inbox = yield

    # transmitter merge, own contribution first so it wins its own side slot
    merged = {}          # (bag, side) keyed by the sender's static role
    heard = []
    if sourcing:
        bag, _ = inst.stage_role[(ctx.pid, stage)]
        merged[(bag, counts_in[0])] = (counts_in[1], counts_in[2], ctx.pid)
    for s, payload in inbox:
        if payload[0] != "rc":
            continue
        heard.append(s)
        role = inst.stage_role.get((s, stage))
        if role is None:
            continue
        bag, side = role
        key = (bag, side)
        prev = merged.get(key)
        if prev is None or s < prev[2]:
            merged[key] = (payload[2], payload[3], s)

    # round 2: confirmations back to the sources we heard
    ctx.broadcast(heard, ("rk",), 1)
    inbox = yield
    if sourcing:
        confirmations = 1 + sum(1 for _, payload in inbox if payload[0] == "rk")
        if 2 * confirmations < W + 2:
            st.operative = False
            sourcing = False

    # round 3: merged sets to every potential source of each bag we hold
    by_bag = {}
    for (bag, side), (ones, zeros, origin) in merged.items():
        by_bag.setdefault(bag, []).append((side, ones, zeros))
    for bag, entries in by_bag.items():
        entries = tuple(sorted(entries))
        bits = sum(1 + pair_bits for _ in entries)
        ctx.broadcast([q for q in bag if q != ctx.pid], ("rm", entries), bits)
    inbox = yield
    if not sourcing:
        return None

    my_bag, _ = inst.stage_role[(ctx.pid, stage)]
    candidates = [(s, payload[1]) for s, payload in inbox if payload[0] == "rm"]
    if my_bag in by_bag:   # own merged copy counts toward the majority too
        candidates.append((ctx.pid, tuple(sorted(by_bag[my_bag]))))
        candidates.sort()
    result = {}
    for _, entries in candidates:   # ascending sender id, first write wins
        for side, ones, zeros in entries:
            result.setdefault(side, (ones, zeros))
    if 2 * len(candidates) < W + 2:
        st.operative = False
        return None
    return result


def group_bits_aggregation(inst, ctx, st):
    """Aggregate candidate-bit counts over the group tree.

    Runs inst.stages relay stages (groups with shallower trees idle the
    trailing stages to stay in lockstep).  An operative process ends with
    the root counts of its group; whoever drops out keeps doing transmitter
    duty but stops sourcing.  Returns (g_ones, g_zeros) or None.
    """
    gi = inst.group_of[ctx.pid]
    layers = inst.trees[gi]
    own_stages = len(layers) - 1

    if st.operative:
        ones = inst.unit(ctx.pid) if st.b == 1 else inst.zero()
        zeros = inst.unit(ctx.pid) if st.b == 0 else inst.zero()
    else:
        ones = zeros = None

    for stage in range(1, inst.stages + 1):
        if stage > own_stages:
            for _ in range(3):
                yield
            continue
        if st.operative and ones is not None:
            _, side = inst.stage_role[(ctx.pid, stage)]
            counts_in = (side, ones, zeros)
        else:
            counts_in = None
        merged = yield from group_relay(inst, ctx, st, stage, counts_in)
        if merged is None:
            ones = zeros = None
        else:
            lo, lz = merged.get("L", (inst.zero(), inst.zero()))
            ro, rz = merged.get("R", (inst.zero(), inst.zero()))
            ones, zeros = inst.add(lo, ro), inst.add(lz, rz)
    if st.operative and ones is not None:
        return ones, zeros
    return None


def delivery_rule(st, active, got, threshold, divisor):
    """The operative/disregard rule of Chlebus & Kowalski's robust gossip,
    applied after one round in which every active neighbor owed p exactly
    one message: neighbors in `active` missing from `got` are disregarded
    forever, and hearing from fewer than threshold / divisor of them makes
    p inoperative.  Returns the neighbors still active."""
    if len(got) < len(active):
        st.disregarded.update(q for q in active if q not in got)
        active = [q for q in active if q in got]
    if len(got) * divisor < threshold:
        st.operative = False
    return active


def group_bits_spreading(inst, ctx, st, gpair):
    """Gossip every group's (ones, zeros) pair along the overlay.

    Each round p sends each non-disregarded neighbor only the entries that
    edge has not carried yet (either direction); neighbors silent in a round
    are disregarded forever, across epochs.  Receiving fewer messages than
    degree-parameter / divisor in a round downgrades p to inoperative, which
    idles it for this and all later epochs.  Returns (ones, zeros) summed
    over the filled entries, or None for a process that is (or became)
    inoperative.
    """
    packs = [None] * inst.m
    filled = []   # indices in arrival order, for cheap per-edge freshness
    if st.operative and gpair is not None:
        gi = inst.group_of[ctx.pid]
        packs[gi] = gpair
        filled.append(gi)
    active = [q for q in inst.neighbors[ctx.pid] if q not in st.disregarded]
    shared = {q: set() for q in active}   # entries the edge carried, either way
    sent_upto = {q: 0 for q in active}    # prefix of `filled` already offered
    entry_bits = inst.gib + 2 * inst.cb
    # capped by the actual degree so a sparse corner of the overlay is not
    # blamed on its tenant
    threshold = min(inst.delta, len(inst.neighbors[ctx.pid]))
    divisor = inst.constants.inoperative_divisor

    for _ in range(inst.spreading_rounds):
        if not st.operative:
            yield
            continue
        nf = len(filled)
        empties = []
        for q in active:
            if sent_upto[q] < nf:
                seen = shared[q]
                fresh = tuple((i,) + packs[i] for i in filled[sent_upto[q]:nf]
                              if i not in seen)
                sent_upto[q] = nf
            else:
                fresh = ()
            if fresh:
                ctx.send(q, ("sp", fresh), len(fresh) * entry_bits)
            else:
                empties.append(q)
        if empties:
            # an empty pack update still signals liveness on the edge
            ctx.broadcast(empties, ("sp", ()), 0)
        inbox = yield
        got = set()
        for s, payload in inbox:
            if payload[0] != "sp" or s in st.disregarded:
                continue
            got.add(s)
            seen = shared.get(s)
            for e in payload[1]:
                i = e[0]
                if seen is not None:
                    seen.add(i)
                if packs[i] is None:
                    packs[i] = e[1:]
                    filled.append(i)
        active = delivery_rule(st, active, got, threshold, divisor)
    if not st.operative:
        return None
    ones = zeros = inst.zero()
    for e in packs:
        if e is not None:
            ones = inst.add(ones, e[0])
            zeros = inst.add(zeros, e[1])
    return ones, zeros
