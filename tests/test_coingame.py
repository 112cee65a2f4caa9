import itertools
import math
import random
from fractions import Fraction

import pytest

from omsim.coingame import (
    UNBIASABLE, UNIFORM_BIT, BiasReport, CoinGame, anti_concentration_check,
    bias_probability, bias_report, forcing_set, hide, hiding_budget,
    majority_ties_zero, min_hiding, parity,
)
from omsim.engine import BudgetExceeded, ConfigError


def game(k, f):
    return CoinGame(k=k, f=f)


def test_builtin_functions():
    assert majority_ties_zero((1, 1, 0)) == 1
    assert majority_ties_zero((1, 0)) == 0          # tie
    assert majority_ties_zero((None, None)) == 0    # all hidden is a tie
    assert parity((1, 1, 0)) == 0
    assert parity((1, None, 0)) == 1


def test_min_hiding_examples():
    g = game(3, parity)
    size, H = min_hiding(g, (1, 1, 0), 1)
    assert size == 1
    assert g.f(hide((1, 1, 0), set(H))) == 1
    # already at the target costs nothing
    assert min_hiding(g, (1, 0, 0), 1) == (0, ())
    # majority with ties to 0: only full hiding turns (1,1,1) into 0
    m = game(3, majority_ties_zero)
    assert min_hiding(m, (1, 1, 1), 0) == (3, (0, 1, 2))


def test_min_hiding_unbiasable_and_witness_soundness():
    m = game(3, majority_ties_zero)
    size, H = min_hiding(m, (0, 0, 0), 1)
    assert size == UNBIASABLE and H is None
    # every finite witness must re-verify
    for y in [(1, 0, 1), (0, 1, 0), (1, 1, 0)]:
        for v in (0, 1):
            size, H = min_hiding(m, y, v)
            if size != UNBIASABLE:
                assert m.f(hide(y, set(H))) == v


def test_min_hiding_closed_form_majority():
    # hiding ones (for v=0) or zeros (for v=1) is optimal for majority
    m = game(5, majority_ties_zero)
    import itertools
    for y in itertools.product((0, 1), repeat=5):
        ones, zeros = sum(y), 5 - sum(y)
        size0, _ = min_hiding(m, y, 0)
        assert size0 == max(0, ones - zeros)
        size1, _ = min_hiding(m, y, 1)
        expect1 = 0 if ones > zeros else (zeros - ones + 1 if ones else UNBIASABLE)
        assert size1 == expect1


def test_min_hiding_budget():
    with pytest.raises(BudgetExceeded):
        min_hiding(game(25, parity), (0,) * 25, 1)


def test_bias_probability_zero_budget_is_plain_probability():
    m = game(3, majority_ties_zero)
    assert bias_probability(m, 1, 0) == Fraction(1, 2)  # ones >= 2 out of 3
    assert bias_probability(m, 0, 0) == Fraction(1, 2)


def test_bias_probability_full_budget_parity():
    g = game(3, parity)
    assert bias_probability(g, 0, 3) == 1
    assert bias_probability(g, 1, 3) == Fraction(7, 8)  # all-zeros is stuck at 0


def test_bias_probability_monotone_in_budget():
    m = game(7, majority_ties_zero)
    probs = [bias_probability(m, 0, B) for B in range(0, 8)]
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_bias_probability_monte_carlo_close_to_exact():
    m = game(5, majority_ties_zero)
    exact = float(bias_probability(m, 0, 2))
    est = bias_probability(m, 0, 2, mode="mc", trials=4000, seed=1)
    assert abs(est - exact) < 0.05


def test_hiding_budget_formula():
    assert hiding_budget(9, 0.25) == math.ceil(8 * math.sqrt(9 * math.log(4)))
    with pytest.raises(ConfigError):
        hiding_budget(9, 1.5)


def test_lemma_validation_desk_scale():
    # for uniform-bit majority and parity games the hiding allowance biases
    # with probability >= 1 - alpha toward at least one value
    for k in (4, 6, 9, 12):
        for alpha in (0.5, 0.25, 0.125):
            B = hiding_budget(k, alpha)
            for f in (majority_ties_zero, parity):
                g = game(k, f)
                ok = any(bias_probability(g, v, B) >= 1 - Fraction(alpha)
                         for v in (0, 1))
                assert ok, (k, alpha, f.__name__)


def test_bias_report_shape():
    rep = bias_report(game(4, majority_ties_zero), alpha=0.25)
    d = rep.to_dict()
    assert d["k"] == 4 and set(d["probability"]) == {"0", "1"}
    assert rep.budget == hiding_budget(4, 0.25)


def test_anti_concentration_tau_zero():
    est, bound = anti_concentration_check(10 ** 4, 0, trials=20000, seed=2)
    assert abs(est - 0.5) < 0.02
    assert bound == pytest.approx(math.exp(-4) / math.sqrt(2 * math.pi))
    assert est >= bound


def test_anti_concentration_tau_half():
    est, bound = anti_concentration_check(10 ** 4, 0.5, trials=20000, seed=2)
    assert abs(est - 0.159) < 0.02
    assert est >= bound


def test_anti_concentration_precondition():
    with pytest.raises(ConfigError):
        anti_concentration_check(16, 1.0)
    for n in (0, -5):   # no bits to sum: no estimate, and no sqrt(n)
        with pytest.raises(ConfigError):
            anti_concentration_check(n, 0)


THIRDS = ((0, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(1, 6)))
QUARTERS = ((0, 0.25), (1, 0.75))


def direct_outcomes(domains):
    for combo in itertools.product(*domains):
        yield (tuple(v for v, _ in combo),
               math.prod((Fraction(p) for _, p in combo), start=Fraction(1)))


@pytest.mark.parametrize("domains", [(THIRDS,) * 3, (QUARTERS,) * 4,
                                     (THIRDS, QUARTERS, THIRDS, QUARTERS)])
def test_outcomes_are_exact_on_non_uniform_domains(domains):
    g = CoinGame(k=len(domains), f=parity, domains=domains)
    outs = list(g.outcomes())
    assert outs == list(direct_outcomes(domains))
    assert sum(pr for _, pr in outs) == 1
    assert all(type(pr) is Fraction for _, pr in outs)


def test_bias_probability_zero_budget_is_direct_fraction_sum():
    domains = (THIRDS, QUARTERS, THIRDS, QUARTERS, THIRDS)
    for f in (majority_ties_zero, parity):
        g = CoinGame(k=5, f=f, domains=domains)
        for v in (0, 1):
            want = sum((pr for y, pr in direct_outcomes(domains) if f(y) == v), Fraction(0))
            assert bias_probability(g, v, 0) == want


def cover_pass_calls(f, k, v, B):
    """The tuples the exact oracle hands f on uniform bits, with hide():
    each outcome not yet covered tries sizes from B down, and the set that
    forces v covers every outcome agreeing with y off it."""
    calls, covered = [], set()
    for y in itertools.product((0, 1), repeat=k):
        if y in covered:
            continue
        for H in itertools.chain.from_iterable(
                itertools.combinations(range(k), s) for s in range(min(B, k), -1, -1)):
            calls.append(hide(y, set(H)))
            if f(calls[-1]) == v:
                covered.update(y2 for y2 in itertools.product((0, 1), repeat=k)
                               if hide(y2, set(H)) == calls[-1])
                break
    return calls


def test_oracle_calls_f_as_enumerating_with_hide_does():
    for f in (majority_ties_zero, parity):
        for v in (0, 1):
            for B in (0, 2, 6):
                calls = []
                g = CoinGame(k=6, f=lambda vals: calls.append(vals) or f(vals))
                bias_probability(g, v, B)
                assert calls == cover_pass_calls(f, 6, v, B)
                assert all(type(c) is tuple for c in calls)
                calls.clear()
                want = []
                for y in itertools.product((0, 1), repeat=6):
                    min_hiding(g, y, v, cap=B)
                    for H in itertools.chain.from_iterable(
                            itertools.combinations(range(6), s) for s in range(B + 1)):
                        want.append(hide(y, set(H)))
                        if f(want[-1]) == v:
                            break
                assert calls == want
                assert all(type(c) is tuple for c in calls)


def test_cover_pass_f_calls_at_a_budget_above_k():
    # hiding all 11 coins forces 0 in one call; for 1, the all-zeros outcome
    # tries all 2^11 sets, then one set per position covers the rest
    for f in (majority_ties_zero, parity):
        for v, want_calls, want in ((0, 1, 1), (1, 2125, Fraction(2047, 2048))):
            calls = []
            g = CoinGame(k=11, f=lambda vals: calls.append(vals) or f(vals))
            assert bias_probability(g, v, 32) == want
            assert len(calls) == want_calls


def random_game(seed):
    """k <= 6 players, 1-3 listed values each drawn from {0, 1} (so a
    domain of three lists a value twice), unequal weights, and f a fixed
    random table over the visible tuples, None marking a hidden entry."""
    rng = random.Random(seed)
    k = rng.randint(1, 6)
    domains = []
    for _ in range(k):
        weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        domains.append(tuple((rng.randint(0, 1), Fraction(w, sum(weights)))
                             for w in weights))
    table = {z: rng.randint(0, 1)
             for z in itertools.product((0, 1, None), repeat=k)}
    return CoinGame(k=k, f=table.__getitem__, domains=tuple(domains))


@pytest.mark.parametrize("seed", range(50))
def test_cover_pass_agrees_with_min_hiding_on_random_games(seed):
    g = random_game(seed)
    outs = list(g.outcomes())
    for v in (0, 1):
        for B in range(g.k + 1):
            want = Fraction(0)
            for y, pr in outs:
                forceable = min_hiding(g, y, v, cap=B)[0] <= B
                want += pr * forceable
                H = forcing_set(g, y, v, B)
                assert (H is not None) == forceable, (y, v, B)
                if H is not None:
                    assert len(H) <= B and g.f(hide(y, set(H))) == v
            assert bias_probability(g, v, B) == want, (v, B)


def test_bias_probability_monte_carlo_estimate_is_pinned():
    # the estimate the per-outcome min_hiding oracle gave for this seed
    m = game(5, majority_ties_zero)
    assert bias_probability(m, 0, 2, mode="mc", trials=4000, seed=1) == 0.81025


def test_bias_probability_budget_in_both_modes():
    for mode in ("exact", "mc"):
        with pytest.raises(BudgetExceeded):
            bias_probability(game(21, parity), 1, 2, mode=mode, trials=10)


def test_normalization_checked():
    with pytest.raises(ConfigError):
        CoinGame(k=1, f=parity, domains=(((0, Fraction(1, 3)),),))


def counting(f, calls, wrapped):
    """f, logging each call in `calls`; `wrapped` sets `__wrapped__` as the
    perfbench tracer's counting wrapper does, which lets the oracle see the
    built-in underneath."""
    def g(vals):
        calls.append(vals)
        return f(vals)
    if wrapped:
        g.__wrapped__ = f
    return g


def class_bound(k, B):
    return sum((min(j, B) + 1) * (min(k - j, B) + 1) for j in range(k + 1))


def test_class_pass_equals_cover_pass_for_the_builtins():
    for f in (majority_ties_zero, parity):
        for k in range(1, 13):
            for B in range(k + 2):
                for v in (0, 1):
                    by_class = bias_probability(game(k, f), v, B)
                    cover = bias_probability(game(k, lambda vals: f(vals)), v, B)
                    assert by_class == cover and type(by_class) is Fraction, (f, k, B, v)


def test_class_pass_f_calls_stay_within_the_class_bound():
    # the cover pass makes 36,175 calls for majority at k = 10, B = 3, v = 0
    # and 2,125 for either built-in at k = 11, B = 32, v = 1
    for f in (majority_ties_zero, parity):
        for k, B in ((10, 3), (11, 32)):
            for v in (0, 1):
                calls = []
                bias_probability(game(k, counting(f, calls, wrapped=True)), v, B)
                assert 0 < len(calls) <= class_bound(k, B), (f, k, B, v, len(calls))


@pytest.mark.parametrize("domains", [(THIRDS,) * 3, (QUARTERS,) * 4,
                                     (THIRDS, QUARTERS, THIRDS, QUARTERS),
                                     (UNIFORM_BIT, UNIFORM_BIT, QUARTERS)])
def test_builtin_f_over_non_uniform_domains_takes_the_cover_pass(domains):
    for f in (majority_ties_zero, parity):
        for v in (0, 1):
            for B in range(len(domains) + 1):
                traced, plain = [], []
                p = bias_probability(CoinGame(k=len(domains), f=counting(f, traced, True),
                                              domains=domains), v, B)
                q = bias_probability(CoinGame(k=len(domains), f=counting(f, plain, False),
                                              domains=domains), v, B)
                assert p == q and traced == plain
