"""Round-robin consensus trading rounds for randomness, t < n / 60.

Processes split into x super-processes of near-equal size. Phases run
round-robin: the current super-process runs the main protocol among its own
members, truncated right after its dissemination round, while everybody
else idles the published budget; the phase result (or a null marker for
the uninformed) then floods over a global sparse graph for a logarithmic
number of rounds. After all phases, one exchange of candidate bits and the
usual threshold test either decides outright or drops the stragglers into
the deterministic chain-flooding fallback.

Operative status here is governed solely by the flooding delivery rule;
whatever the truncated inner runs conclude about their private operative
flags stays inside them.
"""

from collections import Counter

from .engine import ConfigError, log2_ceil
from .consensus import checked_constants, closing, decide_candidate, disseminate, main_core
from .groups import Instance, ProtoState, delivery_rule, overlay, split_blocks
# unused here, but perfbench/tracing.py patches both names in this module
from .fallback import run_fallback  # noqa: F401
from .graphs import generate  # noqa: F401


def split_super_processes(n, x):
    """x contiguous blocks covering 1..n, sizes within one of n // x."""
    return split_blocks(tuple(range(1, n + 1)), x)


class TradeoffConsensus:
    name = "tradeoff"

    def __init__(self, config, x=1, provenance=False):
        constants = checked_constants(config, "tradeoff_fault_bound")
        n, t = config.n, config.t
        if not 1 <= x <= n:
            raise ConfigError("x must be in [1, n]")
        self.config = config
        self.constants = constants
        self.x = x
        self.supers = split_super_processes(n, x)

        # each inner run is a main-protocol instance on its super-process,
        # with the fault budget scaled to the block size
        self.inner = []
        for i, block in enumerate(self.supers, start=1):
            t_inner = max(0, min(t, len(block) // constants.main_fault_bound - 1))
            self.inner.append(Instance(block, t_inner, config.seed, constants,
                                       provenance=provenance, graph_tag=i))
        self.inner_rounds = [inst.epochs * inst.epoch_rounds + 1 for inst in self.inner]

        self.flooding_rounds = max(1, int(-(-constants.flooding_coeff * log2_ceil(n) // 1)))
        self.delta, self.neighbors = overlay(tuple(range(1, n + 1)), constants, config.seed)

        self.phase_budgets = [r + self.flooding_rounds for r in self.inner_rounds]
        self.closed_form_T = sum(self.phase_budgets) + 3

    def meta(self):
        boundaries = []
        offset = 0
        phase_starts = []
        for inst, budget in zip(self.inner, self.phase_budgets):
            phase_starts.append(offset + 1)
            boundaries.extend(offset + e * inst.epoch_rounds
                              for e in range(1, inst.epochs + 1))
            offset += budget
        return {
            "protocol": self.name,
            "x": self.x,
            "super_sizes": [len(b) for b in self.supers],
            "phase_budgets": list(self.phase_budgets),
            "phase_starts": phase_starts,
            "flooding_rounds": self.flooding_rounds,
            "delta": self.delta,
            "epoch_boundaries": boundaries,
            "closed_form_T": self.closed_form_T,
        }

    def max_rounds(self):
        return self.closed_form_T + self.config.t + 8

    def run(self, ctx):
        st = ctx.state
        divisor = self.constants.inoperative_divisor
        active = list(self.neighbors[ctx.pid])
        # capped by the actual degree, as in the gossip delivery rule
        threshold = min(self.delta, len(active))

        for inst, inner_rounds in zip(self.inner, self.inner_rounds):
            if st.operative and ctx.pid in inst.member_set:
                # the inner run's operative flags stay private to it
                ist = ProtoState(st.b)
                informed = yield from main_core(inst, ctx, ist)
                cd = ist.b if (ist.decided or informed) else None
            else:
                for _ in range(inner_rounds):
                    yield
                cd = None

            for _ in range(self.flooding_rounds):
                if not st.operative:
                    yield
                    continue
                ctx.broadcast(active, ("fl", cd), 0 if cd is None else 1)
                inbox = yield
                got = set()
                best = None   # lowest-sender non-null value
                for s, payload in inbox:
                    if payload[0] != "fl" or s in st.disregarded:
                        continue
                    got.add(s)
                    if payload[1] is not None and best is None:
                        best = (s, payload[1])
                if best is not None:
                    if cd is None:
                        cd = best[1]
                    elif cd != best[1]:
                        # conflicting non-null decisions only show up in
                        # failure analyses; resolve by lowest carrier id
                        ctx.note("flood_conflict", True)
                        if best[0] < ctx.pid:
                            cd = best[1]
                active = delivery_rule(st, active, got, threshold, divisor)
            if st.operative and cd is not None:
                st.b = cd

        # safety rule: one exchange of candidate bits among the operative;
        # the middle band keeps the current bit, so it draws no coin
        others = [q for q in range(1, ctx.n + 1) if q != ctx.pid]
        if st.operative:
            ctx.broadcast(others, ("sv", st.b), 1)
        # tallied without naming the inbox, so no (n - 1)-entry list stays
        # referenced from this frame through the closing rounds
        votes = Counter(pl[1] for _, pl in (yield) if pl[0] == "sv")
        if st.operative and votes:
            st.b, st.decided = decide_candidate(votes[1], votes[0], self.constants,
                                                lambda: st.b)

        informed = yield from disseminate(ctx, st, others)
        yield from closing(ctx, st, informed, self.config.t, others)
