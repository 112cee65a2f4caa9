"""Adversary strategies for experiments and stress tests.

Each strategy uses the engine's three hooks: `start` checks the strategy
against the run, `corruptions` reads the round from the engine's view, and
`link_filter` keeps or drops each link with a corrupted endpoint, in
either direction. Crash and coin-biaser keep the default filter, which
drops every such link. Legality is still enforced by the engine. No
strategy keeps state between rounds, so one object can be reused, and a
rerun with the same seed reproduces the trace bit for bit.
"""

from .engine import AdversaryStrategy, ConfigError


class ScheduleExceedsBudget(ConfigError):
    """A strategy configured to corrupt more than t processes."""


def check_pids(pids, n):
    bad = sorted(p for p in pids if not 1 <= p <= n)
    if bad:
        raise ConfigError("pids %s outside 1..%d" % (bad, n))


class CrashAsOmission(AdversaryStrategy):
    """Crash failures emulated by omissions: processes corrupted on a fixed
    schedule lose every incoming and outgoing message from then on."""

    name = "crash"

    def __init__(self, schedule):
        # schedule: round -> iterable of pids
        self.schedule = {r: frozenset(ps) for r, ps in schedule.items() if ps}

    def start(self, config, protocol):
        total = set()
        for ps in self.schedule.values():
            total |= ps
        check_pids(total, config.n)
        if len(total) > config.t:
            raise ScheduleExceedsBudget(
                "schedule crashes %d > t=%d processes" % (len(total), config.t))

    def corruptions(self, obs):
        return self.schedule.get(obs.round, ())


def load_schedule(text):
    """Parse a crash schedule, one line per round: "round: pid pid ..."."""
    schedule = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        schedule[int(head)] = frozenset(int(x) for x in rest.split())
    return schedule


class Eclipse(AdversaryStrategy):
    """Corrupts a fixed target set in round 1 and thins their outgoing
    traffic asymmetrically: in round r a target's message to receiver q is
    dropped iff (q + r) % rotation == 0, so each round it reaches a
    rotating 1 - 1/rotation slice of the processes (rotation=1 silences
    outgoing entirely), while its incoming traffic flows untouched. This
    confuses operative detection more than a clean crash does."""

    name = "eclipse"

    def __init__(self, targets, rotation):
        if rotation < 1:
            raise ConfigError("rotation must be >= 1")
        self.targets = frozenset(targets)
        self.rotation = rotation

    def start(self, config, protocol):
        check_pids(self.targets, config.n)
        if len(self.targets) > config.t:
            raise ScheduleExceedsBudget(
                "%d targets > t=%d" % (len(self.targets), config.t))

    def corruptions(self, obs):
        return self.targets if obs.round == 1 else ()

    def link_filter(self, rnd, sender, receiver, payload):
        return sender not in self.targets or (receiver + rnd) % self.rotation != 0


class CoinBiaser(AdversaryStrategy):
    """Full-information stress adversary pushing votes toward `direction`.

    Whenever it sees random bits drawn (the vote updates at epoch ends), it
    greedily corrupts processes whose fresh draw went the wrong way, which
    the default filter then cuts off, rationing the corruption budget
    evenly over the remaining draw rounds. A practical stand-in for the
    hiding adversary of the impossibility argument, which would need a sup
    over all continuations.
    """

    name = "coin-biaser"

    def __init__(self, direction):
        if direction not in (0, 1):
            raise ConfigError("direction must be a bit")
        self.direction = direction

    def corruptions(self, obs):
        if not obs.drawn_bits:
            return ()
        bad = 1 - self.direction
        candidates = sorted(
            p for p, vals in obs.drawn_bits.items()
            if p not in obs.corrupted and bad in vals)
        if not candidates:
            return ()
        budget = obs.t - len(obs.corrupted)
        remaining = sum(1 for b in obs.epoch_boundaries if b + 1 >= obs.round)
        quota = budget // max(1, remaining)
        return frozenset(candidates[:quota])
