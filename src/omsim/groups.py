"""Intra-epoch communication subroutines.

Processes are split into about sqrt(n) groups.  Within a group, counts of
candidate ones/zeros are aggregated bottom-up over a binary-tree bag
decomposition (3 engine rounds per tree stage, via the relay pattern), then
every group's pair is gossiped across the overlay graph.

All routines are generators driven by the engine through the owning
protocol's generator (`yield from`).  They are written against an Instance,
which precomputes the partition, trees, overlay neighborhoods and round
schedule for one consensus scope; the trade-off protocol instantiates these
on super-process subsets.  The Instance also builds, once, the tables the
relay reads on every call (`relay_tables`): per stage, each member's
`(bag, side)` role, and each member's group peers.  The relay's merge is
shared per round: it is a pure function of the sources a member knows of,
so it is built once per round for each such source set, keyed by it, and
every member that knows of the same sources reads that one merge
(`shared_merge`).  The gossip carries group i's pair as an entry tuple
`(i, ones, zeros)`; each member of group i builds its own, and a receiver
passes on the first copy it stores.  A round's new entries go out as one
payload, shared by every neighbor that sent p nothing last round.
Counts are plain integers throughout.

The gossip and the trade-off protocol's flooding receive through one step,
`delivery_rule`: it reads a round's messages of one kind from the
non-disregarded neighbors, disregards the silent ones and applies the
inoperative threshold.
"""

import math
from bisect import bisect_left
from operator import itemgetter

from .engine import ConfigError, count_bits, group_index_bits, isqrt_ceil, log2_ceil
from .graphs import GraphConfig, generate


RK = ("rk",)               # the one relay confirmation payload
_payload = itemgetter(1)   # (sender, payload) -> payload
_index = itemgetter(0)     # gossip entry (i, ones, zeros) -> i

# no schedule may be longer: a coefficient that asks for more rounds is a
# configuration error, not a run that never ends
MAX_ROUNDS = 10 ** 6


def ceil_rounds(x):
    """max(1, ceil(x)) for a schedule part of x rounds; a ConfigError when
    x passes MAX_ROUNDS or is not a number."""
    if not x <= MAX_ROUNDS:
        raise ConfigError("a schedule of %.3g rounds passes the ceiling of %d rounds"
                          % (x, MAX_ROUNDS))
    return max(1, math.ceil(x))


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
    cfg = GraphConfig.from_coeff(k, constants.delta_coeff,
                                 (seed * 1000003 + graph_tag) & (2 ** 63 - 1))
    g = generate(cfg)
    return min(cfg.delta, k - 1), {p: tuple(members[j - 1] for j in g.neighbors(i))
                                   for i, p in enumerate(members, start=1)}


def relay_tables(groups, trees):
    """The relay's static tables over a partition and its trees.

    roles[stage][pid] is pid's bag at that layer of its group's tree and
    the side ("L" or "R") of the child bag it sits in; roles[0] is empty,
    and a group with a shallower tree is absent from the deeper stages.
    All members of one child bag share one (bag, side) tuple.  peers[pid]
    is pid's group without pid, in order.
    """
    roles = [{} for _ in range(max(len(layers) for layers in trees))]
    peers = {}
    for group, layers in zip(groups, trees):
        for i, p in enumerate(group):
            peers[p] = group[:i] + group[i + 1:]
        for s in range(1, len(layers)):
            table, prev = roles[s], layers[s - 1]
            for bi, bag in enumerate(layers[s]):
                for side, child in zip("LR", prev[2 * bi:2 * bi + 2]):
                    role = (bag, side)
                    for p in child:
                        table[p] = role
    return roles, peers


class Instance:
    """Everything shared by one consensus scope: membership, the group
    partition and trees, the overlay graph, the round schedule, and the
    relay's `roles[stage][pid] -> (bag, side)` and `peers[pid]` tables
    (see `relay_tables`), all built once here."""

    def __init__(self, members, t, seed, constants, graph_tag=0):
        self.members = tuple(sorted(members))
        self.member_set = frozenset(self.members)
        self.k = len(self.members)
        self.constants = constants

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

        self.spreading_rounds = ceil_rounds(constants.spreading_coeff * L)
        self.epoch_rounds = 3 * self.stages + self.spreading_rounds
        raw = constants.epoch_coeff * t * L / (self.k ** 0.5) if self.k else 0
        # an epoch takes at least one round, so its count meets the ceiling too
        self.epochs = ceil_rounds(raw)
        # the epoch loop plus the dissemination round, and the loop's epoch ends
        self.core_rounds = ceil_rounds(self.epochs * self.epoch_rounds) + 1
        self.epoch_ends = tuple(e * self.epoch_rounds for e in range(1, self.epochs + 1))

        # encoded field widths
        self.cb = count_bits(self.k)
        self.gib = group_index_bits(self.k)

        self.roles, self.peers = relay_tables(self.groups, self.trees)
        # the relay's shared merges of the current round (`shared_merge`)
        self.merge_round, self.merges = None, {}

    def others(self, pid):
        """Every member but pid, as one tuple."""
        i = bisect_left(self.members, pid)
        return self.members[:i] + self.members[i + 1:]


def shared_merge(inst, rnd, stage, sources):
    """The round-1 merge of one set of relay sources, built once per round
    and shared by every member that knows of exactly those sources.

    sources is the sorted tuple of (sender, rc payload) pairs a member
    knows of: what it heard, plus its own when it sourced.  Walking them in
    ascending order, each role takes its lowest sender's counts.  Returns
    bag -> (entries, ("rm", entries), bits) in order of each bag's lowest
    source, entries being the bag's sorted (side, ones, zeros) tuples.

    The key holds the payloads, not only the senders, so it is exact for
    any inbox; the cache keeps one round's merges and is dropped when the
    round changes.
    """
    if inst.merge_round != rnd:
        inst.merge_round, inst.merges = rnd, {}
    key = (stage, sources)
    by_bag = inst.merges.get(key)
    if by_bag is None:
        roles = inst.roles[stage]
        seen = set()
        by_bag = {}
        for s, payload in sources:
            role = roles[s]
            if role not in seen:
                seen.add(role)
                by_bag.setdefault(role[0], []).append(payload[1:])
        entry_bits = 1 + 2 * inst.cb
        for bag, entries in by_bag.items():
            entries = tuple(sorted(entries))
            by_bag[bag] = (entries, ("rm", entries), len(entries) * entry_bits)
        inst.merges[key] = by_bag
    return by_bag


def group_relay(inst, ctx, st, stage, counts_in):
    """One relay stage inside a group: 3 engine rounds.

    Round 1: operative bag members (sources) send their child-side counts to
    the whole group.  Round 2: every group member confirms, one bit, to each
    source it heard; a source short of a majority of the group (its own copy
    included) goes inoperative.  Round 3: every member relays its merged
    per-side sets to the bag, its own bag first when it sourced; sources
    short of a majority of merges also go inoperative.  Conflicting
    candidates for a side resolve to the lowest sender id.  Members that
    know of the same sources share one merge (`shared_merge`).

    counts_in is (side, ones, zeros) or None when p holds nothing to source
    (inoperative processes still do all the transmitter work).  Returns the
    merged {side: (ones, zeros)} for p's bag, or None if p is not a source
    or went inoperative.
    """
    pid = ctx.pid
    W = len(inst.peers[pid]) + 1
    my_bag = inst.roles[stage][pid][0]
    sourced = st.operative and counts_in is not None

    # round 1: sources -> group
    if sourced:
        own = ("rc",) + counts_in
        ctx.broadcast(inst.peers[pid], own, 1 + 2 * inst.cb)
    inbox = yield

    # heard in sender order, as inboxes arrive; the merge sorts its sources
    heard = [item for item in inbox if item[1][0] == "rc"]
    sources = heard + [(pid, own)] if sourced else heard
    by_bag = shared_merge(inst, ctx.round, stage, tuple(sorted(sources)))

    # round 2: confirmations back to the sources we heard
    ctx.broadcast([s for s, _ in heard], RK, 1)
    inbox = yield
    if sourced:
        confirmations = 1 + list(map(_payload, inbox)).count(RK)
        if 2 * confirmations < W + 2:
            st.operative = False

    # round 3: merged sets to every potential source of each bag we hold
    i = my_bag.index(pid)
    bag_peers = my_bag[:i] + my_bag[i + 1:]
    if sourced:
        _, payload, bits = by_bag[my_bag]
        ctx.broadcast(bag_peers, payload, bits)
    for bag, (_, payload, bits) in by_bag.items():
        if bag is my_bag:
            if sourced:
                continue
            bag = bag_peers
        ctx.broadcast(bag, payload, bits)
    inbox = yield
    if not (sourced and st.operative):
        return None

    # own merged copy counts toward the majority too
    candidates = [(s, payload[1]) for s, payload in inbox if payload[0] == "rm"]
    candidates.append((pid, by_bag[my_bag][0]))
    candidates.sort()
    result = {}
    for _, entries in candidates:   # ascending sender id, first write wins
        for side, ones, zeros in entries:
            result.setdefault(side, (ones, zeros))
        if len(result) == 2:
            break                   # both sides settled: the rest are no-ops
    if 2 * len(candidates) < W + 2:
        st.operative = False
        return None
    return result


def group_bits_aggregation(inst, ctx, st):
    """Aggregate candidate-bit counts over the group tree.

    Runs inst.stages relay stages (groups with shallower trees idle the
    trailing stages to stay in lockstep).  An operative process ends with
    the root counts of its group; whoever drops out keeps doing transmitter
    duty but stops sourcing.  Returns the integer (g_ones, g_zeros) or None.
    """
    ones, zeros = (st.b, 1 - st.b) if st.operative else (None, None)
    for stage in range(1, inst.stages + 1):
        role = inst.roles[stage].get(ctx.pid)
        if role is None:    # p's tree is shallower: idle the stage
            for _ in range(3):
                yield
            continue
        if st.operative and ones is not None:
            counts_in = (role[1], ones, zeros)
        else:
            counts_in = None
        merged = yield from group_relay(inst, ctx, st, stage, counts_in)
        if merged is None:
            ones = zeros = None
        else:
            lo, lz = merged.get("L", (0, 0))
            ro, rz = merged.get("R", (0, 0))
            ones, zeros = lo + ro, lz + rz
    if st.operative and ones is not None:
        return ones, zeros
    return None


def delivery_rule(st, active, inbox, kind, threshold, divisor):
    """The receive step of Chlebus & Kowalski's robust gossip, for a round
    in which every active neighbor owed p exactly one message of `kind`.

    Reads the round's `kind` messages from senders p has not disregarded;
    neighbors in `active` that sent none are disregarded forever, and
    hearing from fewer than threshold / divisor of them makes p
    inoperative.  Returns the neighbors still active and {sender: body}
    of the messages read, in sender order.
    """
    disregarded = st.disregarded
    bodies = {s: payload[1] for s, payload in inbox if payload[0] == kind}
    if disregarded:
        for s in disregarded.intersection(bodies):
            del bodies[s]
    if len(bodies) < len(active):
        disregarded.update(q for q in active if q not in bodies)
        active = [q for q in active if q in bodies]
    if len(bodies) * divisor < threshold:
        st.operative = False
    return active, bodies


def group_bits_spreading(inst, ctx, st, gpair):
    """Gossip every group's (ones, zeros) pair along the overlay.

    Each round p sends each non-disregarded neighbor only the entries that
    edge has not carried yet (either direction), then receives through
    `delivery_rule`: neighbors silent in a round are disregarded forever,
    across epochs, and receiving fewer messages than degree-parameter /
    divisor in a round downgrades p to inoperative, which idles it for this
    and all later epochs.  Returns the integer (ones, zeros) summed over the
    filled entries, or None for a process that is (or became) inoperative.

    Group i's entry is a tuple (i, ones, zeros).  Each member of group i
    builds its own, and under omissions two members can hold different
    counts; a receiver passes on the first copy it stores.  So entries are
    told apart by index alone, not by tuple identity or equality.

    What an edge has not carried needs no per-edge memory.  Every neighbor
    was offered all of `filled` up to the last round, so only the entries
    learned in the last round are candidates; of those, the edge carried
    exactly the ones that neighbor sent p in the last round.
    """
    entries = [None] * inst.m   # group index -> its entry, once known
    filled = []   # the known entries in arrival order
    if st.operative and gpair is not None:
        gi = inst.group_of[ctx.pid]
        entries[gi] = (gi,) + gpair
        filled.append(entries[gi])
    active = [q for q in inst.neighbors[ctx.pid] if q not in st.disregarded]
    offered = 0      # prefix of `filled` already offered to every neighbor
    last = {}        # neighbor -> entries it sent p in the last round
    entry_bits = inst.gib + 2 * inst.cb
    # capped by the actual degree so a sparse corner of the overlay is not
    # blamed on its tenant
    threshold = min(inst.delta, len(inst.neighbors[ctx.pid]))
    divisor = inst.constants.inoperative_divisor
    m = inst.m

    for _ in range(inst.spreading_rounds):
        if not st.operative:
            yield
            continue
        new = filled[offered:]
        offered = len(filled)
        empties = []
        if new:
            # one payload for every neighbor that sent p nothing last round
            every = ("sp", tuple(new))
            every_bits = len(new) * entry_bits
            for q in active:
                got = last.get(q)
                if not got:
                    ctx.broadcast((q,), every, every_bits)
                    continue
                carried = set(map(_index, got))
                fresh = tuple([e for e in new if e[0] not in carried])
                if fresh:
                    ctx.broadcast((q,), ("sp", fresh), len(fresh) * entry_bits)
                else:
                    empties.append(q)
        else:
            empties = active
        if empties:
            # an empty pack update still signals liveness on the edge
            ctx.broadcast(empties, ("sp", ()), 0)
        active, last = delivery_rule(st, active, (yield), "sp", threshold, divisor)
        if len(filled) < m:
            for fresh in filter(None, last.values()):
                for e in fresh:
                    i = e[0]
                    if entries[i] is None:
                        entries[i] = e
                        filled.append(e)
    if not st.operative:
        return None
    return sum(e[1] for e in filled), sum(e[2] for e in filled)
