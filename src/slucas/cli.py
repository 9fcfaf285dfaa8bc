"""Command-line surface: testing, generation, liar counts, bound tables.

Exit codes: 0 for probable-prime / success, 1 for composite / Fail,
2 for usage errors.  Integers are accepted in decimal or 0x-hex.  stdout
stays machine-parseable; anything chatty goes to stderr.
"""

from __future__ import annotations

import math
import random
import sys

import click

from . import __version__
from .bounds import (exact_qk1, format_json, format_tsv, q_bound, table_rows,
                     EXACT_SURVEY_MAX_K, MAX_SCREEN_DEPTH)
from .classical import baillie_psw, fermat_round, miller_rabin_round
from .counting import alpha, fermat_count, lucas_count, mr_count, sl_count
from .generation import (MAX_SCREEN, GenConfig, prime_inc_luc,
                         strong_luc_generate)
from .kernel import FACTOR_LIMIT
from .lucas import ParamSearchError, sample_params, select_d, strong_lucas_round, lucas_round


class IntValue(click.ParamType):
    """Integer in decimal or 0x-hex (also 0o/0b, int literal rules)."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        try:
            return int(value, 0)
        except ValueError:
            self.fail(f"{value!r} is not an integer", param, ctx)


INT = IntValue()


@click.group()
@click.version_option(version=__version__, prog_name="slucas")
def main() -> None:
    """Strong Lucas probable-prime testing and its error-bound calculators."""


@main.command("test")
@click.argument("n", type=INT)
@click.option("--method", type=click.Choice(
    ["lucas", "strong-lucas", "miller-rabin", "fermat", "bpsw"]),
    default="strong-lucas", show_default=True)
@click.option("--rounds", "-t", type=int, default=1, show_default=True,
              help="Independent rounds (ignored by bpsw).")
@click.option("--d", "d", type=INT, default=None,
              help="Fix the Lucas discriminant instead of searching.")
@click.option("--seed", type=int, default=None, help="RNG seed for bases/parameters.")
def cmd_test(n: int, method: str, rounds: int, d: int | None, seed: int | None) -> None:
    """Run a probable-prime test on N; exit 0 if it passes, 1 if not."""
    if n < 5 or n % 2 == 0:
        raise click.UsageError("n must be odd and >= 5")
    if rounds < 1:
        raise click.UsageError("rounds must be >= 1")
    if d is not None and method not in ("lucas", "strong-lucas"):
        raise click.UsageError(f"--d applies to the Lucas methods only, "
                               f"not to --method {method}")
    shared = math.gcd(d, n) if d is not None else 1
    if shared > 1:
        raise click.UsageError(f"--d {d} shares the factor {shared} with n; "
                               "the Lucas test needs D coprime to n")
    rng = random.Random(seed)
    rounds_run = 0
    if method == "bpsw":
        passed = baillie_psw(n)
        rounds_run = 1
    elif method in ("miller-rabin", "fermat"):
        round_fn = miller_rabin_round if method == "miller-rabin" else fermat_round
        passed = True
        for _ in range(rounds):
            rounds_run += 1
            a = rng.randrange(2, n - 1) if n > 5 else 2
            if not round_fn(n, a):
                passed = False
                break
    else:
        round_fn = strong_lucas_round if method == "strong-lucas" else lucas_round
        passed = True
        rounds_run = 1  # a failed discriminant sweep fails the first round
        try:
            disc = d if d is not None else select_d(n, "A")
            for rounds_run in range(1, rounds + 1):
                if not round_fn(n, sample_params(n, disc, rng)):
                    passed = False
                    break
        except ParamSearchError:
            # no usable discriminant/parameters: only happens off primes
            passed = False
    verdict = "probable prime" if passed else "composite"
    detail = f" method={method} rounds={rounds_run}"
    if d is not None:
        detail += f" d={d}"
    click.echo(verdict + detail)
    sys.exit(0 if passed else 1)


@main.command("generate")
@click.option("--bits", type=int, required=True, help="Exact bit size of the output.")
@click.option("--rounds", "-t", type=int, default=1, show_default=True)
@click.option("--mode", type=click.Choice(["uniform", "incremental"]),
              default="uniform", show_default=True)
@click.option("--window", type=int, default=None,
              help="Incremental: candidates before FAIL (default 10*ceil(bits*ln 2)).")
@click.option("--d", "d", type=INT, default=None, help="Fix the discriminant.")
@click.option("--screen", type=int, default=MAX_SCREEN, show_default=True,
              help="How many leading odd primes the divisibility screen "
                   f"uses (2 to {MAX_SCREEN}).")
@click.option("--seed", type=int, default=None)
@click.option("--transcript", "transcript_path",
              type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write per-candidate JSON lines here.")
def cmd_generate(bits: int, rounds: int, mode: str, window: int | None,
                 d: int | None, screen: int, seed: int | None,
                 transcript_path: str | None) -> None:
    """Generate a probable prime; prints it, or FAIL when a window runs out."""
    try:
        cfg = GenConfig(bits=bits, rounds=rounds, d=d, screen=screen,
                        window=window, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    outcome = (strong_luc_generate(cfg) if mode == "uniform"
               else prime_inc_luc(cfg))
    if transcript_path:
        with open(transcript_path, "w") as fh:
            fh.write(outcome.to_jsonl())
    if outcome.result is None:
        click.echo("FAIL")
        sys.exit(1)
    click.echo(str(outcome.result))
    sys.exit(0)


@main.command("count")
@click.argument("n", type=INT)
@click.option("--what", type=click.Choice(["sl", "f", "l", "mr", "alpha"]),
              default="sl", show_default=True,
              help="sl: strong Lucas pairs; f: Fermat bases; l: Lucas P values; "
                   "mr: Miller-Rabin bases; alpha: sl normalized by the group order.")
@click.option("--d", "d", type=INT, default=None,
              help="Discriminant (required for sl, l, alpha).")
def cmd_count(n: int, what: str, d: int | None) -> None:
    """Exact count of parameters/bases that one test round accepts for N."""
    if n < 3 or n % 2 == 0:
        raise click.UsageError("n must be odd and >= 3")
    if n >= FACTOR_LIMIT:
        raise click.UsageError(
            f"n must be below 2^{FACTOR_LIMIT.bit_length() - 1} = "
            f"{FACTOR_LIMIT}: the counts factor n by trial division")
    if what in ("sl", "l", "alpha") and d is None:
        raise click.UsageError(f"--what {what} needs --d")
    if what == "sl":
        click.echo(str(sl_count(n, d)))
    elif what == "l":
        click.echo(str(lucas_count(n, d)))
    elif what == "f":
        click.echo(str(fermat_count(n)))
    elif what == "mr":
        click.echo(str(mr_count(n)))
    else:
        value = alpha(n, d)
        click.echo(f"{value.numerator}/{value.denominator} {float(value):.6f}")


@main.command("bounds")
@click.option("--table", "table", type=click.IntRange(1, 6), default=None,
              help="Regenerate a whole reference table.")
@click.option("--single", nargs=2, type=int, default=None, metavar="K R",
              help="One error bound: bit size K, rounds R.")
@click.option("--l", "l", type=click.IntRange(1, MAX_SCREEN_DEPTH), default=8,
              show_default=True, help="Screen depth the bound engines assume.")
@click.option("--c", "c", type=float, default=1.0, show_default=True,
              help="Window constant for the incremental table (> 0).")
@click.option("--survey-k", type=int, default=None,
              help=f"Exact small-k survey (k <= {EXACT_SURVEY_MAX_K}) as JSON.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]),
              default="tsv", show_default=True)
@click.option("--out", "out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Write here instead of stdout.")
def cmd_bounds(table: int | None, single: tuple[int, int] | None, l: int,
               c: float, survey_k: int | None, fmt: str, out: str | None) -> None:
    """Error-bound values and the reference tables built from them."""
    chosen = [x for x in (table, single, survey_k) if x not in (None, ())]
    if len(chosen) != 1:
        raise click.UsageError("pick exactly one of --table / --single / --survey-k")
    if not 0 < c < math.inf:
        raise click.UsageError("--c must be a finite number > 0")
    if single:
        k, r = single
        try:
            rep = q_bound(k, r, l)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        text = f"{rep.value:.6f}\n"
    elif survey_k is not None:
        import json as _json
        try:
            survey = exact_qk1(survey_k)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        text = _json.dumps(survey.as_dict(), indent=2) + "\n"
    else:
        header, rows = table_rows(table, l, c)
        text = format_tsv(header, rows) if fmt == "tsv" else format_json(header, rows)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
