"""Run accounting: rounds, communication bits, randomness.

T is the trace length, which coincides with the round in which the last
never-corrupted process finished (the engine stops there).  comm_bits counts
payload bits of every message emitted, whether delivered or omitted.
R counts calls to the random source; `rand_bit` is the only one and each call
draws one bit, so R_bits equals R_accesses.
"""

from dataclasses import dataclass, field

from .engine import log2_ceil


@dataclass
class Metrics:
    """A run's tallies; a record's `metrics` object is exactly these fields."""
    T: int
    comm_bits: int
    sent_msgs: int
    omitted_msgs: int
    R_accesses: int
    R_bits: int
    operative_final: int
    operative_min: int
    fallback_triggered: bool      # T > closed_form_T: the run went past the closed form
    per_epoch: list = field(default_factory=list)

    @classmethod
    def from_engine(cls, eng):
        trace = eng.trace
        rounds = trace.rounds
        ops = [r.operative for r in rounds]
        per_epoch = [{"epoch": i, "end_round": r, "operative": ops[r - 1]}
                     for i, r in enumerate(eng.protocol.epoch_boundaries, start=1)
                     if 1 <= r <= len(rounds)]
        draws = sum(r.rand_accesses for r in rounds)
        return cls(
            T=eng.round,
            comm_bits=sum(r.bits for r in rounds),
            sent_msgs=sum(r.sent for r in rounds),
            omitted_msgs=sum(r.omitted for r in rounds),
            R_accesses=draws,
            R_bits=draws,
            operative_final=ops[-1] if ops else eng.config.n,
            operative_min=min(ops) if ops else eng.config.n,
            fallback_triggered=eng.round > eng.protocol.closed_form_T,
            per_epoch=per_epoch,
        )

    def revalidate(self, trace):
        """Recount the tallies from the trace; a mismatch raises AssertionError.
        Where the messages and draws were recorded (record_level >= 1), each
        round's counts are redone from its message lists and draws."""
        if self.T != len(trace.rounds):
            raise AssertionError("T: %d rounds recorded" % len(trace.rounds))
        for r in trace.rounds:
            if r.messages is None:
                continue
            for what, recount in (("sent", len(r.messages)),
                                  ("bits", sum(m.bits for m in r.messages)),
                                  ("omitted", len(r.omitted_messages)),
                                  ("rand_accesses", sum(map(len, r.draws.values())))):
                if getattr(r, what) != recount:
                    raise AssertionError("round %d: %s" % (r.index, what))
        return True


def check_lower_bound_product(metrics, n, t, const=1024):
    """Sanity inequality relating rounds and randomness:
    T * (R_accesses + T) must be at least t^2 / (const * ceil(log2 n)).
    Returns (ok, margin) with margin = measured product minus the bound."""
    bound = (t * t) / (const * log2_ceil(n))
    product = metrics.T * (metrics.R_accesses + metrics.T)
    return product >= bound, product - bound
