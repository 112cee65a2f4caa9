"""Experiment harness: single runs, sweeps, and record emission.

A run record is a plain dict, JSON-serializable with sorted keys so that a
replay with the same parameters is byte-identical. Every record is
re-validated against its trace before emission; a record that cannot be
validated is a bug, not a data point.
"""

import csv
import inspect
import io
import json
import sys
from dataclasses import asdict

from .adversaries import CoinBiaser, CrashAsOmission, Eclipse
from .consensus import MainConsensus
from .engine import (
    AdversaryStrategy, AdversaryViolation, ConfigError, LivenessFailure,
    SystemConfig, run_execution,
)
from .metrics import check_lower_bound_product
from .params import Constants, acceptance, scaled
from .tradeoff import TradeoffConsensus


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def checked_constant(key, value, default):
    """value as a constant of default's type: a finite number > 0 (for a
    float default), an integer >= 1, or a [numerator, denominator > 0]
    integer pair."""
    if isinstance(default, tuple):
        if (isinstance(value, (list, tuple)) and len(value) == 2
                and all(map(is_int, value)) and value[1] > 0):
            return tuple(value)
        raise ConfigError("constant %s must be a [numerator, denominator] integer "
                          "pair with a positive denominator, got %r" % (key, value))
    if isinstance(default, float):
        if (is_int(value) or isinstance(value, float)) and 0 < value <= sys.float_info.max:
            return value
        raise ConfigError("constant %s must be a finite number > 0, got %r" % (key, value))
    if is_int(value) and value >= 1:
        return value
    raise ConfigError("constant %s must be an integer >= 1, got %r" % (key, value))


# each constants preset and protocol by name; the CLI offers exactly these
PRESETS = {"default": Constants, "scaled": scaled, "acceptance": acceptance}
PROTOCOLS = {"main": lambda config, x: MainConsensus(config),
             "tradeoff": lambda config, x: TradeoffConsensus(config, x=x)}


def build_constants(overrides=None, preset="default"):
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError("unknown preset %r" % (preset,))
    base = PRESETS[preset]()
    if overrides is not None and not isinstance(overrides, dict):
        raise ConfigError("constants must be an object of name: value, got %r"
                          % (overrides,))
    if not overrides:
        return base
    defaults = asdict(base)
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError("unknown constants: %s" % ", ".join(sorted(unknown)))
    return base.with_(**{key: checked_constant(key, value, defaults[key])
                         for key, value in overrides.items()})


def resolve_inputs(spec, n):
    if spec in (None, "alternating"):
        return tuple((i + 1) % 2 for i in range(n))
    if spec == "ones":
        return (1,) * n
    if spec == "zeros":
        return (0,) * n
    if isinstance(spec, str):
        if set(spec) <= {"0", "1"} and len(spec) == n:
            return tuple(int(c) for c in spec)
        raise ConfigError("bad inputs spec %r" % spec)
    if not (isinstance(spec, (list, tuple)) and all(is_int(b) and b in (0, 1) for b in spec)):
        raise ConfigError("inputs must be a name, a bit string or a list of 0/1, "
                          "got %r" % (spec,))
    if len(spec) != n:
        raise ConfigError("inputs must have length n")
    return tuple(spec)


def make_protocol(config, protocol="main", x=1):
    if not isinstance(protocol, str) or protocol not in PROTOCOLS:
        raise ConfigError("unknown protocol %r" % (protocol,))
    if protocol != "tradeoff" and x != 1:
        raise ConfigError("x sets the trade-off's super-processes; protocol %s "
                          "takes only x=1, got %r" % (protocol, x))
    return PROTOCOLS[protocol](config, x)


def checked_pids(pids, what):
    if isinstance(pids, (list, tuple, set, frozenset)) and pids and all(map(is_int, pids)):
        return frozenset(pids)
    raise ConfigError("%s must be a list of integer pids, not empty, got %r" % (what, pids))


def checked_round(key):
    """A crash-schedule round: an integer >= 1, or its ASCII digits, as
    JSON object keys are strings."""
    if isinstance(key, str) and key.isascii() and key.isdigit():
        key = int(key)
    if is_int(key) and key >= 1:
        return key
    raise ConfigError("crash schedule rounds must be integers >= 1, got %r" % (key,))


def int_option(opts, key, default):
    value = opts.get(key, default)
    if not is_int(value):
        raise ConfigError("adversary option %s must be an integer, got %r" % (key, value))
    return value


# each adversary's name and the options it takes; any other key is a config error
ADVERSARY_OPTIONS = {"none": (), "crash": ("schedule",), "eclipse": ("targets", "rotation"),
                     "coin-biaser": ("direction",)}


def make_adversary(name, n, t, opts=None):
    opts = {} if opts is None else opts
    if not isinstance(opts, dict):
        raise ConfigError("adversary options must be an object, got %r" % (opts,))
    if not isinstance(name, str) or name not in ADVERSARY_OPTIONS:
        raise ConfigError("unknown adversary %r" % name)
    unknown = sorted(map(str, set(opts) - set(ADVERSARY_OPTIONS[name])))
    if unknown:
        raise ConfigError("adversary %s takes no option %s" % (name, ", ".join(unknown)))
    if name == "none":
        return AdversaryStrategy()
    if name == "crash":
        schedule = opts.get("schedule")
        if schedule is None:
            return CrashAsOmission({1: frozenset(range(1, t + 1))} if t else {})
        if not (isinstance(schedule, dict) and schedule):
            raise ConfigError("a crash schedule is an object of round: [pid, ...] "
                              "naming at least one round, got %r" % (schedule,))
        rounds = {checked_round(r): checked_pids(ps, "crash schedule pids")
                  for r, ps in schedule.items()}
        if len(rounds) < len(schedule):
            raise ConfigError("crash schedule names a round twice: %s"
                              % ", ".join(map(str, schedule)))
        return CrashAsOmission(rounds)
    if name == "eclipse":
        targets = opts.get("targets")
        if targets is None:  # names no target when t = 0, which is legal
            targets = range(1, max(1, t // 2) + 1) if t else ()
        else:  # a given list must name a pid: an empty one would corrupt nobody
            targets = checked_pids(targets, "eclipse targets")
        return Eclipse(targets, rotation=int_option(opts, "rotation", 2))
    return CoinBiaser(int_option(opts, "direction", 1))


def run_record(n, t, seed, protocol="main", x=1, adversary="none",
               adversary_opts=None, constants=None, inputs=None,
               record_level=0):
    """One execution, fully validated, as an emission-ready dict."""
    constants = constants or scaled()
    bits = resolve_inputs(inputs, n)
    config = SystemConfig(n=n, t=t, seed=seed, inputs=bits, params=constants)
    adv = make_adversary(adversary, n, t, adversary_opts)
    proto = make_protocol(config, protocol, x)
    decisions, trace, metrics = run_execution(config, proto, adv,
                                              record_level=record_level)
    metrics.revalidate(trace)
    trace.verify(t)
    lb_ok, lb_margin = check_lower_bound_product(
        metrics, n, t, const=constants.lower_bound_const)
    values = {v for p, (v, _) in decisions.items()}
    non_faulty = [p for p in range(1, n + 1) if p not in trace.corrupted]
    record = {
        "n": n, "t": t, "seed": seed,
        "protocol": protocol, "x": x if protocol == "tradeoff" else None,
        "adversary": adv.name,
        "constants": asdict(constants),
        "inputs": "".join(str(b) for b in bits),
        "decisions": {str(p): list(decisions[p]) for p in sorted(decisions)},
        "corrupted": {str(p): r for p, r in sorted(trace.corrupted.items())},
        "agreement": len(values) == 1,
        "all_non_faulty_decided": all(p in decisions for p in non_faulty),
        "closed_form_T": proto.closed_form_T,
        "metrics": asdict(metrics),
        "adversary_legal": True,  # engine-enforced; reaching here proves it
        "lower_bound": {"ok": lb_ok, "margin": lb_margin},
    }
    return record


# what a sweep cell may hold besides "seeds", "constants" and "preset"
CELL_KEYS = frozenset(inspect.signature(run_record).parameters) - {"seed", "constants"}
INT_CELL_KEYS = ("n", "t", "x", "record_level")


def cell_seeds(seeds):
    """A cell's "seeds": a positive count or a non-empty list of integer
    seeds; a cell that would run nothing is an error."""
    if is_int(seeds) and seeds >= 1:
        return list(range(seeds))
    if isinstance(seeds, list) and seeds and all(map(is_int, seeds)):
        return seeds
    raise ConfigError('"seeds" must be a count or a list of integers naming at least '
                      'one seed, got %r' % (seeds,))


def run_sweep(plan):
    """plan: {"cells": [cell, ...]}, no other key and at least one cell;
    each cell holds run_record kwargs plus "seeds" (count or explicit list).
    Per-cell errors become error records and the sweep continues."""
    if not (isinstance(plan, dict) and list(plan) == ["cells"]
            and isinstance(plan["cells"], list) and plan["cells"]):
        raise ConfigError('a sweep plan is {"cells": [cell, ...]} with at least one cell')
    records = []
    for idx, cell in enumerate(plan["cells"]):
        try:
            if not isinstance(cell, dict):
                raise ConfigError("a cell is an object, got %r" % (cell,))
            cell = dict(cell)
            seeds = cell_seeds(cell.pop("seeds", 1))
            overrides = cell.pop("constants", None)
            preset = cell.pop("preset", "scaled")
            unknown = set(cell) - CELL_KEYS
            if unknown:
                raise ConfigError("unknown cell keys: %s" % ", ".join(sorted(unknown)))
            bad = [k for k in INT_CELL_KEYS if k in cell and not is_int(cell[k])]
            if bad:
                raise ConfigError("cell keys must be integers: %s" % ", ".join(bad))
            if cell.get("record_level", 0) not in (0, 1, 2):
                raise ConfigError("record_level must be 0, 1 or 2, got %d"
                                  % cell["record_level"])
            constants = build_constants(overrides, preset)
        except ConfigError as e:
            records.append({"cell": idx, "error": str(e)})
            continue
        for seed in seeds:
            try:
                rec = run_record(seed=seed, constants=constants, **cell)
                rec["cell"] = idx
                records.append(rec)
            except (ConfigError, AdversaryViolation, LivenessFailure) as e:
                records.append({"cell": idx, "seed": seed,
                                "error": "%s: %s" % (type(e).__name__, e)})
    return records


def to_jsonl(records):
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


SUMMARY_FIELDS = ("T", "comm_bits", "R_accesses", "R_bits")


def csv_summary(records):
    """Per-cell mean/max of the headline metrics."""
    cells = {}
    for r in records:
        if "error" in r:
            continue
        cells.setdefault(r.get("cell", 0), []).append(r)
    out = io.StringIO()
    writer = csv.writer(out)
    header = ["cell", "n", "t", "protocol", "x", "adversary", "runs"]
    for f in SUMMARY_FIELDS:
        header += ["%s_mean" % f, "%s_max" % f]
    writer.writerow(header)
    for cell in sorted(cells):
        rs = cells[cell]
        row = [cell, rs[0]["n"], rs[0]["t"], rs[0]["protocol"],
               rs[0]["x"], rs[0]["adversary"], len(rs)]
        for f in SUMMARY_FIELDS:
            vals = [r["metrics"][f] for r in rs]
            row += [sum(vals) / len(vals), max(vals)]
        writer.writerow(row)
    return out.getvalue()
