"""Randomized binary consensus for t < n / 30 omission faults.

Structure per process: repeat, for a fixed number of epochs, aggregate the
candidate-bit counts inside the group tree and gossip every group's pair
over the overlay; then update the candidate bit against fractional vote
thresholds, flipping a private coin in the undetermined middle band.  After
the last epoch, decided operative processes broadcast their bit once; the
remaining operative processes settle the issue with the deterministic
chain-flooding fallback, and everyone else waits to be told.

All threshold comparisons are exact integer cross-multiplications.
"""

from .engine import ConfigError
from .fallback import run_fallback
from .groups import Instance, group_bits_aggregation, group_bits_spreading
from .params import Constants, check_threshold_gap


class DegenerateInput(Exception):
    """Raised when a vote update sees zero total weight."""


def checked_constants(config, bound_name):
    """The run's constants, once t < n / (the fault bound named) and the
    voting gap hold; raises ConfigError otherwise."""
    constants = config.params if config.params is not None else Constants()
    n, t = config.n, config.t
    bound = getattr(constants, bound_name)
    if t * bound >= n:
        raise ConfigError(
            "fault bound violated: need t < n/%d, got t=%d n=%d" % (bound, t, n))
    if not check_threshold_gap(constants, n, t):
        raise ConfigError(
            "voting gap set_one - set_zero must cover 3t/n, got %s - %s at t=%d n=%d"
            % (constants.set_one, constants.set_zero, t, n))
    return constants


def decide_candidate(ones, zeros, constants, draw):
    """One vote update. Returns (bit, decided).

    bit is 1 above the set-one fraction, 0 below the set-zero fraction, and
    a fresh random bit from `draw` in between; decided when the ones share
    leaves the [decide_lo, decide_hi] band.
    """
    total = ones + zeros
    if total <= 0:
        raise DegenerateInput("vote update with zero total")
    hi_n, hi_d = constants.set_one
    lo_n, lo_d = constants.set_zero
    if ones * hi_d > hi_n * total:
        b = 1
    elif ones * lo_d < lo_n * total:
        b = 0
    else:
        b = draw()
    dh_n, dh_d = constants.decide_hi
    dl_n, dl_d = constants.decide_lo
    decided = ones * dh_d > dh_n * total or ones * dl_d < dl_n * total
    return b, decided


def main_core(inst, ctx, st):
    """The epoch loop plus the single dissemination round, as a generator.

    Shared between the standalone protocol and the trade-off protocol's
    super-process phases (which stop right here). Returns True iff an
    undecided process adopted a bit from a decided sender in the
    dissemination round.
    """
    for epoch in range(1, inst.epochs + 1):
        st.epoch = epoch
        gpair = yield from group_bits_aggregation(inst, ctx, st)
        pair = yield from group_bits_spreading(inst, ctx, st, gpair)
        if st.operative and pair is not None:
            ones, zeros = inst.val(pair[0]), inst.val(pair[1])
            st.b, st.decided = decide_candidate(ones, zeros, inst.constants, ctx.rand_bit)
    return (yield from disseminate(ctx, st, [q for q in inst.members if q != ctx.pid]))


def disseminate(ctx, st, targets):
    """One round: decided operative processes announce their bit to
    `targets`; an undecided process adopts the lowest sender's announcement.
    Returns True iff it adopted one."""
    if st.operative and st.decided:
        ctx.broadcast(targets, ("dv", st.b), 1)
    inbox = yield
    if not st.decided:
        for s, payload in inbox:   # inboxes arrive in sender order
            if payload[0] == "dv":
                st.b = payload[1]
                return True
    return False


def closing(ctx, st, informed, t, targets):
    """The closing moves after dissemination: decided processes decide,
    operative holdouts run the chain-flooding fallback over `targets` and
    announce its result, and inoperative holdouts decide the bit they were
    informed of or wait for that announcement."""
    if st.decided or (informed and not st.operative):
        ctx.decide(st.b)
        return
    if not st.operative:
        # t + 3 rounds cover the flooding plus the announcement hop
        for _ in range(t + 3):
            inbox = yield
            for s, payload in inbox:
                if payload[0] == "fd":
                    ctx.decide(payload[1])
                    return
        return  # only reachable for a faulty process cut off entirely
    ctx.note("fallback", True)
    value = yield from run_fallback(ctx, st.b, t, targets)
    ctx.broadcast(targets, ("fd", value), 1)
    ctx.decide(value)


class MainConsensus:
    """Engine protocol wrapping main_core with the closing moves: decided
    processes decide right after dissemination, operative holdouts run the
    chain-flooding fallback and announce, inoperative holdouts wait."""

    name = "main"

    def __init__(self, config, provenance=False):
        constants = checked_constants(config, "main_fault_bound")
        self.config = config
        self.constants = constants
        self.inst = Instance(range(1, config.n + 1), config.t, config.seed, constants,
                             provenance=provenance)
        self.closed_form_T = self.inst.epochs * self.inst.epoch_rounds + 2

    def meta(self):
        inst = self.inst
        return {
            "protocol": self.name,
            "epochs": inst.epochs,
            "epoch_rounds": inst.epoch_rounds,
            "stages": inst.stages,
            "spreading_rounds": inst.spreading_rounds,
            "groups": inst.m,
            "delta": inst.delta,
            "epoch_boundaries": [e * inst.epoch_rounds for e in range(1, inst.epochs + 1)],
            "closed_form_T": self.closed_form_T,
        }

    def max_rounds(self):
        return self.closed_form_T + self.config.t + 8

    def run(self, ctx):
        st = ctx.state
        informed = yield from main_core(self.inst, ctx, st)
        targets = [q for q in self.inst.members if q != ctx.pid]
        yield from closing(ctx, st, informed, self.config.t, targets)
