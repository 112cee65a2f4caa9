"""Adversary strategies for experiments and stress tests.

All of these use the engine's batch interface (standing silenced sets and
per-batch send filters); legality is still enforced by the engine on every
action. Each strategy is deterministic given its observation stream, so a
rerun with the same seed reproduces the trace bit for bit.
"""

from .engine import AdversaryStrategy, AdversaryViolation, ConfigError


class ScheduleExceedsBudget(AdversaryViolation):
    pass


def check_pids(pids, n):
    bad = sorted(p for p in pids if not 1 <= p <= n)
    if bad:
        raise ConfigError("pids %s outside 1..%d" % (bad, n))


def strategy_none():
    return AdversaryStrategy()


class CrashAsOmission(AdversaryStrategy):
    """Crash failures emulated by omissions: processes corrupted on a fixed
    schedule lose every incoming and outgoing message from then on."""

    name = "crash"

    def __init__(self, schedule):
        # schedule: round -> iterable of pids
        self.schedule = {int(r): frozenset(ps) for r, ps in schedule.items() if ps}
        self.crashed = set()
        self._round = 0

    def start(self, config, protocol):
        total = set()
        for ps in self.schedule.values():
            total |= ps
        check_pids(total, config.n)
        if len(total) > config.t:
            raise ScheduleExceedsBudget(
                "schedule crashes %d > t=%d processes" % (len(total), config.t))
        self.crashed = set()
        self._round = 0

    def corruptions(self, obs):
        self._round += 1  # called exactly once per round
        due = self.schedule.get(self._round)
        if due:
            self.crashed |= due
        return frozenset(due) if due else ()

    def silenced(self):
        return frozenset(self.crashed)


def strategy_crash_as_omission(schedule):
    return CrashAsOmission(schedule)


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
    traffic asymmetrically: each round a target delivers only to a rotating
    1 - 1/rotation slice of its receivers (rotation=1 silences outgoing
    entirely), while its incoming traffic flows untouched. This confuses
    operative detection more than a clean crash does."""

    name = "eclipse"
    has_send_filter = True

    def __init__(self, targets, rotation=2):
        if rotation < 1:
            raise ConfigError("rotation must be >= 1")
        self.targets = frozenset(targets)
        self.rotation = rotation
        self._fired = False

    def start(self, config, protocol):
        check_pids(self.targets, config.n)
        if len(self.targets) > config.t:
            raise ScheduleExceedsBudget(
                "%d targets > t=%d" % (len(self.targets), config.t))
        self._fired = False

    def corruptions(self, obs):
        if self._fired:
            return ()
        self._fired = True
        return self.targets

    def send_filter(self, rnd, sender, receivers):
        return tuple(q for i, q in enumerate(receivers)
                     if (i + rnd) % self.rotation != 0)


def strategy_eclipse(targets, rotation=2):
    return Eclipse(targets, rotation=rotation)


class CoinBiaser(AdversaryStrategy):
    """Full-information stress adversary pushing votes toward `direction`.

    Whenever it sees random bits drawn (the vote updates at epoch ends), it
    greedily corrupts-and-silences processes whose fresh draw went the
    wrong way, rationing the corruption budget evenly over the remaining
    draw rounds. A practical stand-in for the hiding adversary of the
    impossibility argument, which would need a sup over all continuations.
    """

    name = "coin-biaser"
    needs_observation = True

    def __init__(self, direction):
        if direction not in (0, 1):
            raise ConfigError("direction must be a bit")
        self.direction = direction
        self.taken = set()

    def start(self, config, protocol):
        self.taken = set()

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
        boundaries = obs.meta.get("epoch_boundaries", ())
        remaining = sum(1 for b in boundaries if b + 1 >= obs.round)
        quota = budget // max(1, remaining)
        picked = frozenset(candidates[:quota])
        self.taken |= picked
        return picked

    def silenced(self):
        return frozenset(self.taken)


def strategy_coin_biaser(direction):
    return CoinBiaser(direction)
