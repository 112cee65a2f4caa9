"""Command-line surface: single runs, sweeps, graph certification, and the
coin-game oracles.

Exit codes: 0 on success, 2 for configuration errors, 3 when an invariant
violation is detected (illegal adversary action, liveness failure, failed
trace validation).
"""

import json
import sys

import click

from .adversaries import load_schedule
from .coingame import BUILTIN_F, CoinGame, anti_concentration_check, bias_report
from .engine import AdversaryViolation, BudgetExceeded, ConfigError, LivenessFailure
from .graphs import GraphConfig, certify, generate
from . import harness

EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError("%s is not valid JSON: %s" % (path, e))


def guarded(fn):
    def wrapper(*a, **kw):
        try:
            return fn(*a, **kw)
        except (ConfigError, BudgetExceeded) as e:
            click.echo("config error: %s" % e, err=True)
            sys.exit(EXIT_CONFIG)
        except (AdversaryViolation, LivenessFailure, AssertionError) as e:
            click.echo("invariant violation: %s" % e, err=True)
            sys.exit(EXIT_INVARIANT)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
def main():
    """Consensus simulator for omission-fault adversaries."""


@main.command()
@click.option("-n", "n", type=int, required=True, help="process count")
@click.option("-t", "t", type=int, default=0, help="fault budget")
@click.option("--seed", type=int, default=0)
@click.option("--protocol", type=click.Choice(["main", "tradeoff"]), default="main")
@click.option("--x", type=int, default=1, help="super-process count (tradeoff)")
@click.option("--adversary",
              type=click.Choice(["none", "crash", "eclipse", "coin-biaser"]),
              default="none")
@click.option("--schedule", type=click.Path(exists=True), default=None,
              help="crash schedule file: 'round: pid pid ...' per line")
@click.option("--targets", default=None, help="eclipse targets, comma separated")
@click.option("--rotation", type=int, default=2)
@click.option("--direction", type=int, default=1)
@click.option("--inputs", default="alternating",
              help="ones | zeros | alternating | explicit bit string")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON file overriding named constants")
@click.option("--preset", type=click.Choice(["default", "scaled", "acceptance"]),
              default="scaled")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl")
@guarded
def run(n, t, seed, protocol, x, adversary, schedule, targets, rotation,
        direction, inputs, config_path, preset, out, fmt):
    """Run one execution and emit its record."""
    overrides = load_json(config_path) if config_path else None
    constants = harness.build_constants(overrides, preset)
    opts = {"rotation": rotation, "direction": direction}
    try:
        if schedule:
            with open(schedule) as fh:
                opts["schedule"] = load_schedule(fh.read())
        if targets:
            opts["targets"] = tuple(int(p) for p in targets.split(","))
    except ValueError as e:
        raise ConfigError("--schedule and --targets take integer pids: %s" % e)
    rec = harness.run_record(n=n, t=t, seed=seed, protocol=protocol, x=x,
                             adversary=adversary, adversary_opts=opts,
                             constants=constants, inputs=inputs)
    if fmt == "csv":
        emit(harness.csv_summary([rec]), out)
    else:
        emit(harness.to_jsonl([rec]), out)


@main.command()
@click.argument("plan_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl")
@guarded
def sweep(plan_path, out, fmt):
    """Run every (cell, seed) of a JSON plan file."""
    plan = load_json(plan_path)
    records = harness.run_sweep(plan)
    if fmt == "csv":
        emit(harness.csv_summary(records), out)
    else:
        emit(harness.to_jsonl(records), out)
    if any("error" in r for r in records):
        click.echo("%d cells errored" % sum("error" in r for r in records), err=True)


@main.command("graph-check")
@click.option("-n", "n", type=int, required=True)
@click.option("--delta", type=int, default=None)
@click.option("--coeff", type=float, default=3.0, help="delta = coeff * ceil(log2 n)")
@click.option("--seed", type=int, default=0)
@click.option("--ell", type=int, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--mode", type=click.Choice(["exact", "sampled"]), default="sampled")
@click.option("--trials", type=int, default=2000)
@click.option("--out", type=click.Path(), default=None)
@guarded
def graph_check(n, delta, coeff, seed, ell, alpha, mode, trials, out):
    """Generate an overlay graph and certify its properties."""
    cfg = GraphConfig(n=n, delta=delta, seed=seed) if delta is not None \
        else GraphConfig.from_coeff(n, coeff, seed)
    g = generate(cfg)
    rep = certify(g, cfg.delta, ell=ell, alpha=alpha, mode=mode,
                  trials=trials, seed=seed)
    emit(json.dumps(rep.to_dict(), sort_keys=True) + "\n", out)


@main.command("coin-game")
@click.option("--k", type=int, default=9)
@click.option("--f", "fname", type=click.Choice(sorted(BUILTIN_F)), default="majority")
@click.option("--alpha", type=float, default=0.25)
@click.option("--coeff", type=float, default=8.0)
@click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact")
@click.option("--trials", type=int, default=20000)
@click.option("--anti-concentration", "anti", is_flag=True,
              help="run the binomial tail check instead of the bias report")
@click.option("--n", "bignum", type=int, default=10 ** 4)
@click.option("--tau", type=float, default=0.5)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
@guarded
def coin_game(k, fname, alpha, coeff, mode, trials, anti, bignum, tau, seed, out):
    """Bias oracles for the one-round coin-flipping game."""
    if anti:
        est, bound = anti_concentration_check(bignum, tau, trials=trials, seed=seed)
        payload = {"n": bignum, "tau": tau, "trials": trials,
                   "estimate": est, "bound": bound, "ok": est >= bound}
        emit(json.dumps(payload, sort_keys=True) + "\n", out)
        return
    game = CoinGame(k=k, f=BUILTIN_F[fname])
    rep = bias_report(game, alpha, coeff=coeff, mode=mode,
                      trials=trials, seed=seed)
    payload = rep.to_dict()
    payload["f"] = fname
    emit(json.dumps(payload, sort_keys=True) + "\n", out)


if __name__ == "__main__":
    main()
