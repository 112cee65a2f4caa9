"""One-round coin-flipping game with a hiding adversary.

k players each draw a value from their own finite distribution; a public
function f maps the (possibly partially hidden) value vector to a bit. The
adversary sees all values and may hide a bounded number of them to bias
the outcome. Exact oracles enumerate hiding subsets and outcome vectors;
Monte-Carlo variants cover larger games.

Hidden entries are passed to f as None; built-in outcome functions ignore
them, custom ones may interpret them however they like (f must be total).
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .engine import BudgetExceeded, ConfigError, check_seed, check_trials

UNBIASABLE = math.inf
MAX_K = 20      # the most players the oracles enumerate

UNIFORM_BIT = ((0, Fraction(1, 2)), (1, Fraction(1, 2)))


@dataclass(frozen=True)
class CoinGame:
    k: int
    f: object                       # callable: tuple (values or None) -> bit
    domains: tuple = ()             # per-player ((value, prob), ...); uniform bits if empty

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("need at least one player")
        if self.domains and len(self.domains) != self.k:
            raise ConfigError("domains must have length k")
        for dom in self.domains:
            if sum(Fraction(p) for _, p in dom) != 1:
                raise ConfigError("distribution not normalized")

    def domain(self, i):
        return self.domains[i] if self.domains else UNIFORM_BIT

    def outcomes(self):
        """Iterate (y, probability) over the full product space."""
        doms = [[(v, *Fraction(p).as_integer_ratio()) for v, p in self.domain(i)]
                for i in range(self.k)]
        for combo in itertools.product(*doms):
            num = den = 1
            for _, a, b in combo:
                num *= a
                den *= b
            yield tuple(v for v, _, _ in combo), Fraction(num, den)


# --- built-in outcome functions ------------------------------------------

def majority_ties_zero(values):
    return 1 if values.count(1) > values.count(0) else 0


def parity(values):
    """Parity of the visible ones; hidden entries drop out."""
    return values.count(1) % 2


BUILTIN_F = {
    "majority": majority_ties_zero,
    "parity": parity,
}


# --- oracles --------------------------------------------------------------

def hide(y, subset):
    return tuple(None if i in subset else v for i, v in enumerate(y))


def min_hiding(game, y, v, cap=None):
    """Exact minimum number of hidden players forcing f to v on y.

    Enumerates subsets by increasing size, lexicographic within a size;
    returns (size, witness) or (UNBIASABLE, None). `cap` bounds the subset
    size searched (UNBIASABLE then means "not within cap"). f sees
    `hide(y, H)` for each subset H in that order, hidden in place in one
    reused list."""
    k = game.k
    if k > MAX_K:
        raise BudgetExceeded("k=%d exceeds the enumeration limit %d" % (k, MAX_K))
    top = k if cap is None else min(cap, k)
    f = game.f
    z = list(y)
    for size in range(0, top + 1):
        for H in itertools.combinations(range(k), size):
            for i in H:
                z[i] = None
            if f(tuple(z)) == v:
                return size, H
            for i in H:
                z[i] = y[i]
    return UNBIASABLE, None


def forcing_set(game, y, v, B):
    """Some set H of at most B players whose hiding forces f to v on y, or
    None when there is none.

    Tries sizes from min(B, k) down to 0, lexicographic within a size,
    hiding in place in one reused list as `min_hiding` does. The set found
    need not be the smallest: whether one exists is a property of y alone,
    and large sets come first because H decides every outcome that agrees
    with y off H."""
    k = game.k
    f = game.f
    z = list(y)
    for size in range(min(B, k), -1, -1):
        for H in itertools.combinations(range(k), size):
            for i in H:
                z[i] = None
            if f(tuple(z)) == v:
                return H
            for i in H:
                z[i] = y[i]
    return None


def bias_probability(game, v, B, mode="exact", trials=20000, seed=0):
    """Pr over y that the adversary can force f to v hiding at most B
    players. Exact mode returns a Fraction; Monte-Carlo a float.

    Exact mode walks the outcomes in `outcomes()` order with one covered
    flag each, indexed mixed-radix by each player's digit in its domain.
    Each uncovered y gets one `forcing_set` search, and a set H it finds
    covers every outcome that agrees with y off H, since all of them hide
    to the same tuple."""
    k = game.k
    if k > MAX_K:
        raise BudgetExceeded("k=%d exceeds the enumeration limit %d" % (k, MAX_K))
    doms = [game.domain(i) for i in range(k)]
    if mode == "exact":
        radix = [len(d) for d in doms]
        stride = [math.prod(radix[i + 1:]) for i in range(k)]
        covered = bytearray(math.prod(radix))
        columns = [tuple(enumerate(val for val, _ in d)) for d in doms]
        for idx, combo in enumerate(itertools.product(*columns)):
            if covered[idx]:
                continue
            H = forcing_set(game, tuple(val for _, val in combo), v, B)
            if H is None:
                continue
            # every digit combination on H, with y's digits off H
            base, offsets = idx, [0]
            for i in H:
                base -= combo[i][0] * stride[i]
                offsets = [o + d * stride[i] for o in offsets for d in range(radix[i])]
            for o in offsets:
                covered[base + o] = 1
        if 0 not in covered:             # CoinGame checked that each domain sums to 1
            return Fraction(1)
        return sum((pr for flag, (_, pr) in zip(covered, game.outcomes()) if flag),
                   Fraction(0))
    check_trials(trials)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    hits = 0
    values = [[val for val, _ in d] for d in doms]
    probs = [[float(p) for _, p in d] for d in doms]
    for _ in range(trials):
        y = tuple(values[i][rng.choice(len(values[i]), p=probs[i])]
                  for i in range(k))
        if forcing_set(game, y, v, B) is not None:
            hits += 1
    return hits / trials


def hiding_budget(k, alpha, coeff=8.0):
    """The hiding allowance sufficient to bias with probability 1 - alpha."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)")
    if not 0 <= coeff < math.inf:
        raise ConfigError("coeff must be finite and >= 0, got %s" % coeff)
    return math.ceil(coeff * math.sqrt(k * math.log(1 / alpha)))


@dataclass
class BiasReport:
    k: int
    alpha: float
    budget: int
    probability: dict = field(default_factory=dict)   # v -> Pr[biasable within budget]
    mode: str = "exact"

    def to_dict(self):
        return {"k": self.k, "alpha": self.alpha, "budget": self.budget,
                "mode": self.mode,
                "probability": {str(v): float(p) for v, p in self.probability.items()}}


def bias_report(game, alpha, coeff=8.0, mode="exact", **kw):
    B = hiding_budget(game.k, alpha, coeff=coeff)
    rep = BiasReport(k=game.k, alpha=alpha, budget=B, mode=mode)
    for v in (0, 1):
        rep.probability[v] = bias_probability(game, v, B, mode=mode, **kw)
    return rep


def anti_concentration_check(n, tau, trials=10 ** 6, seed=0):
    """Estimate Pr(X - n/2 >= tau * sqrt(n)) for X a sum of n fair bits and
    return it next to the analytic lower bound exp(-4(tau+1)^2)/sqrt(2*pi).
    The bound only claims validity for tau <= sqrt(n)/8."""
    if n < 1:
        raise ConfigError("need n >= 1, got %d" % n)
    if not math.isfinite(tau):
        raise ConfigError("need a finite tau, got %r" % tau)
    if tau > math.sqrt(n) / 8:
        raise ConfigError("tau exceeds sqrt(n)/8")
    check_trials(trials)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    x = rng.binomial(n, 0.5, size=trials)
    estimate = float(np.mean(x - n / 2 >= tau * math.sqrt(n)))
    bound = math.exp(-4 * (tau + 1) ** 2) / math.sqrt(2 * math.pi)
    return estimate, bound
