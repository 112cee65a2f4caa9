"""All tunable constants in one place.

Defaults follow the source algorithms; the asymptotic defaults (notably the
overlay degree coefficient 832) degenerate at the scales this simulator runs
at, where Delta >= n - 1 turns the overlay into a complete graph.  Experiment
configs therefore override them; `scaled()` gives a sane desk-scale preset.
Thresholds are integer fractions and are always compared by exact
cross-multiplication, never floats.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Constants:
    # overlay graph: Delta = delta_coeff * ceil(log2 n), capped at n - 1
    delta_coeff: float = 832.0
    # epochs = max(1, ceil(epoch_coeff * (t / sqrt(n)) * ceil(log2 n)))
    epoch_coeff: float = 1.0
    # gossip rounds per epoch = ceil(spreading_coeff * ceil(log2 n))
    spreading_coeff: float = 8.0
    # flooding rounds per trade-off phase = ceil(flooding_coeff * ceil(log2 n))
    flooding_coeff: float = 2.0
    # candidate-vote thresholds, as (num, den) fractions of ones + zeros
    set_one: tuple = (18, 30)
    set_zero: tuple = (15, 30)
    decide_hi: tuple = (27, 30)
    decide_lo: tuple = (3, 30)
    # a process needs >= degree/inoperative_divisor deliveries per gossip round
    inoperative_divisor: int = 3
    # fault bounds: t < n / bound
    main_fault_bound: int = 30
    tradeoff_fault_bound: int = 60
    # lower-bound sanity: T*(R+T) >= t^2 / (lower_bound_const * ceil(log2 n))
    lower_bound_const: int = 1024

    def with_(self, **kw):
        return replace(self, **kw)


def scaled(**overrides):
    """Desk-scale preset: sparse overlay and short gossip so that runs at
    n <= 1024 stay fast while every certified graph property still holds."""
    base = Constants(delta_coeff=3.0, spreading_coeff=1.0, flooding_coeff=1.0)
    return base.with_(**overrides) if overrides else base


def acceptance(**overrides):
    """Preset frozen for the acceptance experiments: sparser overlay and a
    shorter epoch schedule, tuned so the full grid fits the runtime budget
    while correctness margins stay comfortable."""
    base = scaled(delta_coeff=1.5, epoch_coeff=0.5, spreading_coeff=0.75,
                  flooding_coeff=0.5)
    return base.with_(**overrides) if overrides else base


def check_threshold_gap(constants, n, t):
    """The voting gap set_one - set_zero must cover 3t/n, otherwise two
    operative processes could deterministically pick opposite bits."""
    a_num, a_den = constants.set_one
    b_num, b_den = constants.set_zero
    # (a_num/a_den - b_num/b_den) >= 3t/n, cross-multiplied
    lhs = (a_num * b_den - b_num * a_den) * n
    rhs = 3 * t * a_den * b_den
    return lhs >= rhs
