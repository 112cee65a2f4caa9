"""Run accounting: rounds, communication bits, randomness.

T is the trace length, which coincides with the round in which the last
never-corrupted process finished (the engine stops there).  comm_bits counts
payload bits of every message emitted, whether delivered or omitted.
R is tracked both as accesses and as bits.
"""

from dataclasses import dataclass, field

from .engine import log2_ceil


@dataclass
class Metrics:
    T: int
    comm_bits: int
    sent_msgs: int
    omitted_msgs: int
    delivered_msgs: int
    R_accesses: int
    R_bits: int
    per_round_rand: dict
    operative_final: int
    operative_min: int
    fallback_triggered: bool
    decision_rounds: dict = field(default_factory=dict)
    per_epoch: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @classmethod
    def from_engine(cls, eng):
        trace = eng.trace
        rounds = trace.rounds
        ops = [r.operative for r in rounds]
        boundaries = eng.protocol_meta.get("epoch_boundaries", ())
        per_epoch = []
        for i, r in enumerate(boundaries):
            if 1 <= r <= len(rounds):
                per_epoch.append({
                    "epoch": i + 1,
                    "end_round": r,
                    "operative": ops[r - 1],
                })
        return cls(
            T=eng.round,
            comm_bits=sum(r.bits for r in rounds),
            sent_msgs=sum(r.sent for r in rounds),
            omitted_msgs=sum(r.omitted for r in rounds),
            delivered_msgs=sum(r.delivered for r in rounds),
            R_accesses=eng.ledger.total_accesses,
            R_bits=eng.ledger.total_bits,
            per_round_rand=dict(eng.ledger.per_round),
            operative_final=ops[-1] if ops else eng.config.n,
            operative_min=min(ops) if ops else eng.config.n,
            fallback_triggered=bool(trace.notes.get("fallback", False)),
            decision_rounds={p: r for p, (_, r) in trace.decisions.items()},
            per_epoch=per_epoch,
            notes=dict(trace.notes),
        )

    def revalidate(self, trace):
        """Recount the tallies from the trace; any mismatch is a bug.  Where
        the messages were recorded (record_level >= 1), each round's counts
        are redone from its message lists."""
        assert self.T == len(trace.rounds)
        assert self.R_accesses == sum(r.rand_accesses for r in trace.rounds)
        for r in trace.rounds:
            if r.messages is None:
                continue
            assert r.sent == len(r.messages), "round %d: sent" % r.index
            assert r.bits == sum(m.bits for m in r.messages), "round %d: bits" % r.index
            assert r.omitted == len(r.omitted_messages), "round %d: omitted" % r.index
            assert r.delivered == r.sent - r.omitted, "round %d: delivered" % r.index
        return True


def check_lower_bound_product(metrics, n, t, const=1024):
    """Sanity inequality relating rounds and randomness:
    T * (R_accesses + T) must be at least t^2 / (const * ceil(log2 n)).
    Returns (ok, margin) with margin = measured product minus the bound."""
    bound = (t * t) / (const * log2_ceil(n))
    product = metrics.T * (metrics.R_accesses + metrics.T)
    return product >= bound, product - bound
