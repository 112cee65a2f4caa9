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

from operator import itemgetter

from .engine import ConfigError, ProtoState, log2_ceil
from .consensus import checked_constants, closing, decide_candidate, disseminate, main_core
from .groups import Instance, ceil_rounds, delivery_rule, overlay, split_blocks
# unused here, but perfbench/tracing.py patches both names in this module
from .fallback import run_fallback  # noqa: F401
from .graphs import generate  # noqa: F401


def split_super_processes(n, x):
    """x contiguous blocks covering 1..n, sizes within one of n // x."""
    return split_blocks(tuple(range(1, n + 1)), x)


class TradeoffConsensus:
    name = "tradeoff"

    def __init__(self, config, x=1):
        constants = checked_constants(config, "tradeoff_fault_bound")
        n, t = config.n, config.t
        if not 1 <= x <= n:
            raise ConfigError("x must be in [1, n]")
        self.config = config
        self.constants = constants
        self.supers = split_super_processes(n, x)

        # each inner run is a main-protocol instance on its super-process,
        # with the fault budget scaled to the block size
        self.inner = []
        for i, block in enumerate(self.supers, start=1):
            t_inner = max(0, min(t, len(block) // constants.main_fault_bound - 1))
            self.inner.append(Instance(block, t_inner, config.seed, constants,
                                       graph_tag=i))

        self.flooding_rounds = ceil_rounds(constants.flooding_coeff * log2_ceil(n))
        self.delta, self.neighbors = overlay(tuple(range(1, n + 1)), constants, config.seed)

        self.phase_budgets = [inst.core_rounds + self.flooding_rounds for inst in self.inner]
        self.closed_form_T = ceil_rounds(sum(self.phase_budgets) + 3)
        boundaries, offset = [], 0
        for inst, budget in zip(self.inner, self.phase_budgets):
            boundaries += (offset + end for end in inst.epoch_ends)
            offset += budget
        self.epoch_boundaries = tuple(boundaries)

    def run(self, ctx):
        st = ctx.state
        divisor = self.constants.inoperative_divisor
        active = list(self.neighbors[ctx.pid])
        # capped by the actual degree, as in the gossip delivery rule
        threshold = min(self.delta, len(active))

        for inst in self.inner:
            if st.operative and ctx.pid in inst.member_set:
                # the inner run's operative flags stay private to it
                ist = ProtoState(st.b)
                informed = yield from main_core(inst, ctx, ist, inst.others(ctx.pid))
                cd = ist.b if (ist.decided or informed) else None
            else:
                for _ in range(inst.core_rounds):
                    yield
                cd = None

            for _ in range(self.flooding_rounds):
                if not st.operative:
                    yield
                    continue
                ctx.broadcast(active, ("fl", cd), 0 if cd is None else 1)
                active, bodies = delivery_rule(st, active, (yield), "fl",
                                               threshold, divisor)
                for s, value in bodies.items():
                    if value is not None:   # the lowest sender's non-null value
                        # conflicting non-null decisions only show up in
                        # failure analyses; resolve by lowest carrier id
                        if cd is None or (cd != value and s < ctx.pid):
                            cd = value
                        break
            if st.operative and cd is not None:
                st.b = cd

        # safety rule: one exchange of candidate bits among the operative;
        # the middle band keeps the current bit, so it draws no coin
        if st.operative:
            ctx.broadcast(ctx.others, ("sv", st.b), 1)
        ones, zeros = safety_votes((yield))
        if st.operative and ones + zeros:
            st.b, st.decided = decide_candidate(ones, zeros, self.constants,
                                                lambda: st.b)

        informed = yield from disseminate(ctx, st, ctx.others)
        yield from closing(ctx, st, informed, self.config.t, ctx.others)


def safety_votes(inbox):
    """The (ones, zeros) of the safety exchange's "sv" messages, counted in
    C; the run's frame never names the (n - 1)-message inbox, so it is not
    kept through the closing rounds."""
    payloads = list(map(itemgetter(1), inbox))
    return payloads.count(("sv", 1)), payloads.count(("sv", 0))
