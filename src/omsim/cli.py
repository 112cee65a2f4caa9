"""Command-line surface: single runs, sweeps, graph certification, and the
coin-game oracles.

Exit codes: 0 on success, 2 for configuration errors, 3 when an invariant
violation is detected (illegal adversary action, liveness failure, failed
trace validation).  A sweep writes every record, its cells' error records
too, and exits 2 if any cell errored.
"""

import json
import sys

import click

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


def parse_json(text, source):
    """Parse a plan, a constants file or an option's JSON; a key repeated
    within one object is a config error, not a silent last-one-wins."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError("%s repeats the key %r in one object" % (source, key))
            obj[key] = value
        return obj
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError("%s is not valid JSON: %s" % (source, e))


def load_json(path):
    with open(path) as fh:
        return parse_json(fh.read(), path)


class OneLineErrors(click.Group):
    """Every bad input exits with one line on stderr: click's own usage
    errors (a value of the wrong type, a missing or unknown option, a
    missing file) and configuration errors exit 2, invariant violations
    exit 3."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as e:
            click.echo("config error: %s" % e.format_message(), err=True)
            sys.exit(EXIT_CONFIG)
        except (ConfigError, BudgetExceeded) as e:
            click.echo("config error: %s" % e, err=True)
            sys.exit(EXIT_CONFIG)
        except (AdversaryViolation, LivenessFailure, AssertionError) as e:
            click.echo("invariant violation: %s" % e, err=True)
            sys.exit(EXIT_INVARIANT)
        except click.Abort:
            sys.exit("Aborted!")


@click.group(cls=OneLineErrors, no_args_is_help=False)
def main():
    """Consensus simulator for omission-fault adversaries."""


@main.command()
@click.option("-n", "n", type=int, required=True, help="process count")
@click.option("-t", "t", type=int, default=0, help="fault budget")
@click.option("--seed", type=int, default=0)
@click.option("--protocol", type=click.Choice(list(harness.PROTOCOLS)), default="main")
@click.option("--x", type=int, default=1, help="super-process count (tradeoff)")
@click.option("--adversary", type=click.Choice(list(harness.ADVERSARY_OPTIONS)),
              default="none")
@click.option("--adversary-opts", "adversary_opts", metavar="JSON", default=None,
              help="JSON object of adversary options, as a sweep cell's adversary_opts")
@click.option("--inputs", default="alternating",
              help="ones | zeros | alternating | explicit bit string")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON file overriding named constants")
@click.option("--preset", type=click.Choice(list(harness.PRESETS)),
              default="scaled")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl")
def run(n, t, seed, protocol, x, adversary, adversary_opts, inputs, config_path,
        preset, out, fmt):
    """Run one execution and emit its record."""
    overrides = load_json(config_path) if config_path else None
    constants = harness.build_constants(overrides, preset)
    if adversary_opts is not None:
        adversary_opts = parse_json(adversary_opts, "--adversary-opts")
    rec = harness.run_record(n=n, t=t, seed=seed, protocol=protocol, x=x,
                             adversary=adversary, adversary_opts=adversary_opts,
                             constants=constants, inputs=inputs)
    if fmt == "csv":
        emit(harness.csv_summary([rec]), out)
    else:
        emit(harness.to_jsonl([rec]), out)


@main.command()
@click.argument("plan_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl")
def sweep(plan_path, out, fmt):
    """Run every (cell, seed) of a JSON plan file."""
    plan = load_json(plan_path)
    records = harness.run_sweep(plan)
    if fmt == "csv":
        emit(harness.csv_summary(records), out)
    else:
        emit(harness.to_jsonl(records), out)
    errored = sum("error" in r for r in records)
    if errored:
        click.echo("%d cells errored" % errored, err=True)
        sys.exit(EXIT_CONFIG)


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
