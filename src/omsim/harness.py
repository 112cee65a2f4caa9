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
from dataclasses import asdict

from .adversaries import (
    strategy_coin_biaser, strategy_crash_as_omission, strategy_eclipse,
    strategy_none,
)
from .consensus import MainConsensus
from .engine import (
    AdversaryViolation, ConfigError, LivenessFailure, SystemConfig,
    run_execution,
)
from .metrics import check_lower_bound_product
from .params import Constants, acceptance, scaled
from .tradeoff import TradeoffConsensus


def build_constants(overrides=None, preset="default"):
    if preset == "default":
        base = Constants()
    elif preset == "scaled":
        base = scaled()
    elif preset == "acceptance":
        base = acceptance()
    else:
        raise ConfigError("unknown preset %r" % preset)
    if not overrides:
        return base
    overrides = dict(overrides)
    for key in ("set_one", "set_zero", "decide_hi", "decide_lo"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    known = set(asdict(base))
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError("unknown constants: %s" % ", ".join(sorted(unknown)))
    return base.with_(**overrides)


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
    inputs = tuple(int(b) for b in spec)
    if len(inputs) != n:
        raise ConfigError("inputs must have length n")
    return inputs


def make_protocol(config, protocol="main", x=1):
    if protocol == "main":
        return MainConsensus(config)
    if protocol == "tradeoff":
        return TradeoffConsensus(config, x=x)
    raise ConfigError("unknown protocol %r" % protocol)


def make_adversary(name, n, t, opts=None):
    opts = opts or {}
    if name == "none":
        return strategy_none()
    if name == "crash":
        schedule = opts.get("schedule")
        if schedule is None:
            schedule = {1: frozenset(range(1, t + 1))} if t else {}
        return strategy_crash_as_omission(schedule)
    if name == "eclipse":
        targets = opts.get("targets")
        if targets is None:
            targets = tuple(range(1, max(1, t // 2) + 1)) if t else ()
        return strategy_eclipse(targets, rotation=int(opts.get("rotation", 2)))
    if name == "coin-biaser":
        return strategy_coin_biaser(int(opts.get("direction", 1)))
    raise ConfigError("unknown adversary %r" % name)


def run_record(n, t, seed, protocol="main", x=1, adversary="none",
               adversary_opts=None, constants=None, inputs=None,
               record_level=0):
    """One execution, fully validated, as an emission-ready dict."""
    constants = constants or scaled()
    bits = resolve_inputs(inputs, n)
    config = SystemConfig(n=n, t=t, seed=seed, inputs=bits, params=constants)
    proto = make_protocol(config, protocol, x)
    adv = make_adversary(adversary, n, t, adversary_opts)
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
        "metrics": {
            "T": metrics.T,
            "comm_bits": metrics.comm_bits,
            "sent_msgs": metrics.sent_msgs,
            "omitted_msgs": metrics.omitted_msgs,
            "R_accesses": metrics.R_accesses,
            "R_bits": metrics.R_bits,
            "operative_final": metrics.operative_final,
            "operative_min": metrics.operative_min,
            "fallback_triggered": metrics.fallback_triggered,
            "per_epoch": metrics.per_epoch,
        },
        "adversary_legal": True,  # engine-enforced; reaching here proves it
        "lower_bound": {"ok": lb_ok, "margin": lb_margin},
    }
    return record


# what a sweep cell may hold besides "seeds", "constants" and "preset"
CELL_KEYS = frozenset(inspect.signature(run_record).parameters) - {"seed", "constants"}


def run_sweep(plan):
    """plan: {"cells": [cell, ...]}; each cell holds run_record kwargs plus
    "seeds" (count or explicit list). Per-cell errors become error records
    and the sweep continues."""
    if not isinstance(plan, dict) or not isinstance(plan.get("cells", []), list):
        raise ConfigError('a sweep plan is {"cells": [cell, ...]}')
    records = []
    for idx, cell in enumerate(plan.get("cells", [])):
        cell = dict(cell)
        seeds = cell.pop("seeds", 1)
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        overrides = cell.pop("constants", None)
        preset = cell.pop("preset", "scaled")
        try:
            unknown = set(cell) - CELL_KEYS
            if unknown:
                raise ConfigError("unknown cell keys: %s" % ", ".join(sorted(unknown)))
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
