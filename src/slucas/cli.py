"""Command-line surface: testing, generation, liar counts, bound tables.

Exit codes: 0 for probable-prime / success, 1 for composite / Fail,
2 for usage errors.  N and --d are accepted in decimal or 0x-hex, and
``main`` lifts the digit limit once, so they and every value printed may
have any length.  stdout stays machine-parseable; anything chatty goes to
stderr.  A handler checks only what names a flag: the rest is refused,
through ``_checked``, by the ``kernel`` checks the routine it calls
makes (an N, rounds, --d, --screen) or by that routine (a --window,
an N past ``factorize``'s ceiling, a bound engine's K or R), or by
argparse.

A process imports only what its subcommand runs: each handler, and each
branch of ``bounds``, imports its own modules, and the help text's limits
come from ``kernel``, so ``test``, ``generate`` and ``--version`` never
load the bound engines.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys

from . import __version__
from .kernel import (EXACT_SURVEY_MAX_K, MAX_BOUND_K, MAX_BOUND_ROUNDS,
                     MAX_ROUNDS, MAX_SCREEN_DEPTH, MAX_WINDOW, MIN_BOUND_K,
                     MIN_SCREEN_DEPTH, check_discriminant, check_odd,
                     check_screen_depth, unlimited_digits)


class UsageError(Exception):
    """Bad input found after parsing; reported like a parse error (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any word that starts "-<digit>" is a value, so `--d -0x3` reads
        # as the discriminant -3 (the default pattern knows only decimals)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def _print_message(self, message, file=None):
        # argparse drops a failed write; --help and --version report theirs
        if file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            file.write(message)
            file.flush()
        except OSError as exc:
            self.cannot_write(exc)

    def cannot_write(self, exc: OSError) -> None:
        """Exit 2 with one line naming the write that failed."""
        where = "stdout" if exc.filename is None else repr(exc.filename)
        if exc.filename is None:  # drop what it holds: exit would flush it
            with contextlib.suppress(OSError):
                sys.stdout.close()
        self.exit(2, f"{self.prog}: error: cannot write {where}: "
                     f"{exc.strerror}\n")


def integer(text: str) -> int:
    """Integer in decimal or 0x-hex (int literal rules)."""
    return int(text, 0)


@contextlib.contextmanager
def _output(path: str | None, option: str, default=None):
    """The file at path, or ``default`` when there is none.  It is opened
    before any work is done, so a bad path costs nothing and is reported
    as a usage error naming it; a write to it that fails names it too."""
    if path is None:
        yield default
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise UsageError(f"{option}: cannot write {path!r}: {exc.strerror}")
    try:
        with fh:
            yield fh
    except OSError as exc:
        exc.filename = path  # a failed write or close names no file
        raise


def _checked(fn, *args, **kwargs):
    """fn(...), with its ValueError (bad input) reported as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_test(args) -> int:
    """Run a probable-prime test on N; exit 0 if it passes, 1 if not."""
    import random
    from .classical import baillie_psw, run_rounds

    n, method, rounds, d = args.n, args.method, args.rounds, args.d
    if method == "bpsw":  # bpsw ignores --rounds
        if d is not None:
            raise UsageError("--d applies to the Lucas methods only, "
                             "not to --method bpsw")
        passed, rounds_run = _checked(baillie_psw, n), 1
    else:  # run_rounds refuses a bad n, rounds or d before any round
        passed, rounds_run = _checked(run_rounds, n, method, rounds,
                                      random.Random(args.seed), d)
    verdict = "probable prime" if passed else "composite"
    detail = f" method={method} rounds={rounds_run}"
    if d is not None:
        detail += f" d={d}"
    print(verdict + detail)
    return 0 if passed else 1


def cmd_generate(args) -> int:
    """Generate a probable prime; prints it, or FAIL when a window runs out."""
    from .generation import GenConfig, prime_inc_luc, strong_luc_generate

    cfg = _checked(GenConfig, bits=args.bits, rounds=args.rounds, d=args.d,
                   screen=args.screen, window=args.window, seed=args.seed)
    with _output(args.transcript, "--transcript") as fh:
        outcome = (strong_luc_generate(cfg) if args.mode == "uniform"
                   else prime_inc_luc(cfg))
        if fh is not None:
            fh.write(outcome.to_jsonl())
    print(outcome.result or "FAIL")
    return 0 if outcome else 1


def cmd_count(args) -> int:
    """Exact count of parameters/bases that one test round accepts for N."""
    from .counting import alpha, fermat_count, lucas_count, mr_count, sl_count
    from .lucas import ParamSearchError, select_d

    n, what, d = args.n, args.what, args.d
    _checked(check_odd, n, 3)
    count = {"sl": sl_count, "l": lucas_count, "alpha": alpha,
             "f": fermat_count, "mr": mr_count}[what]
    if what in ("f", "mr"):
        if d is not None:
            raise UsageError("--d applies to the Lucas counts only, "
                             f"not to --what {what}")
        value = _checked(count, n)
    else:
        if d is not None:  # refused as ``test`` refuses it
            _checked(check_discriminant, d)
        else:
            try:
                d = select_d(n)
            except ParamSearchError:
                raise UsageError("n is a square, so method A finds no D; "
                                 "give one with --d")
        value = _checked(count, n, d)
    print(f"{value.numerator}/{value.denominator} {float(value):.6f}"
          if what == "alpha" else value)
    return 0


def cmd_bounds(args) -> int:
    """Error-bound values and the reference tables built from them."""
    _checked(check_screen_depth, args.l)
    if not 0 < args.c < math.inf:
        raise UsageError("--c must be a finite number > 0")
    with _output(args.out, "--out", sys.stdout) as fh:
        if args.single:
            from .bounds import error_bound, format_q
            k, r = args.single
            text = format_q(_checked(error_bound, k, r, args.l)) + "\n"
        elif args.survey_k is not None:
            import json
            from .counting import exact_qk1
            survey = _checked(exact_qk1, args.survey_k)
            text = json.dumps(survey.as_dict(), indent=2) + "\n"
        else:
            from .bounds import format_json, format_tsv, table_rows
            header, rows = _checked(table_rows, args.table, args.l, args.c)
            text = (format_tsv(header, rows) if args.format == "tsv"
                    else format_json(header, rows))
        fh.write(text)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slucas", allow_abbrev=False,
        description="Strong Lucas probable-prime testing and its "
                    "error-bound calculators.")
    parser.add_argument("--version", action="version",
                        version=f"slucas, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, handler):
        doc = handler.__doc__
        sub = commands.add_parser(name, help=doc, description=doc,
                                  allow_abbrev=False)
        sub.set_defaults(handler=handler, parser=sub)
        return sub

    sub = command("test", cmd_test)
    sub.add_argument("n", type=integer, metavar="N")
    sub.add_argument("--method", default="strong-lucas", choices=[
        "lucas", "strong-lucas", "miller-rabin", "fermat", "bpsw"],
        help="[default: %(default)s]")
    sub.add_argument("--rounds", "-t", type=int, default=1,
                     help=f"Independent rounds, 1 to {MAX_ROUNDS} (ignored "
                          "by bpsw). [default: %(default)s]")
    sub.add_argument("--d", type=integer, default=None,
                     help="Fix the Lucas discriminant instead of searching.")
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed for bases/parameters.")

    sub = command("generate", cmd_generate)
    sub.add_argument("--bits", type=int, required=True,
                     help=f"Exact bit size of the output, 5 to {MAX_BOUND_K}.")
    sub.add_argument("--rounds", "-t", type=int, default=1,
                     help=f"Strong Lucas rounds, 1 to {MAX_ROUNDS}. "
                          "[default: %(default)s]")
    sub.add_argument("--mode", choices=["uniform", "incremental"],
                     default="uniform",
                     help="Uniform gives each prime with (d/p) = -1 equally "
                          "often; incremental favours primes after long "
                          "gaps. [default: %(default)s]")
    sub.add_argument("--window", type=int, default=None,
                     help="Most candidates tested before FAIL, 1 to "
                          f"{MAX_WINDOW} [default: 10*ceil(bits*ln 2) "
                          f"incremental, min({MAX_WINDOW}, 64*2^(bits-2)) "
                          "uniform]; the incremental walk also stops at "
                          "2^bits.")
    sub.add_argument("--d", type=integer, default=None,
                     help="Fix the discriminant.")
    sub.add_argument("--screen", type=int, default=MAX_SCREEN_DEPTH,
                     help="How many leading odd primes the divisibility "
                          f"screen uses ({MIN_SCREEN_DEPTH} to "
                          f"{MAX_SCREEN_DEPTH}). [default: %(default)s]")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--transcript", default=None, metavar="PATH",
                     help="Write per-candidate JSON lines here.")

    sub = command("count", cmd_count)
    sub.add_argument("n", type=integer, metavar="N")
    sub.add_argument("--what", choices=["sl", "f", "l", "mr", "alpha"],
                     default="sl",
                     help="sl: strong Lucas pairs; f: Fermat bases; l: Lucas "
                          "P values; mr: Miller-Rabin bases; alpha: sl "
                          "normalized by the group order. "
                          "[default: %(default)s]")
    sub.add_argument("--d", type=integer, default=None,
                     help="Discriminant for sl, l, alpha [default: method "
                          "A's, the first of 5, -7, 9, ... with (D/N) = -1].")

    sub = command("bounds", cmd_bounds)
    item = sub.add_mutually_exclusive_group(required=True)
    item.add_argument("--table", type=int, choices=range(1, 7),
                      help="Regenerate a whole reference table.")
    item.add_argument("--single", nargs=2, type=int, metavar=("K", "R"),
                      help=f"One error bound: bit size K ({MIN_BOUND_K} to "
                           f"{MAX_BOUND_K}), rounds R (1 to "
                           f"{MAX_BOUND_ROUNDS}). q prints at 6 decimals, or "
                           "to 6 significant digits below 1e-4, rounded up.")
    item.add_argument("--survey-k", type=int,
                      help=f"Exact small-k survey (k <= {EXACT_SURVEY_MAX_K}) "
                           "as JSON.")
    sub.add_argument("--l", type=int, default=8,
                     help="Screen depth the bound engines assume "
                          f"({MIN_SCREEN_DEPTH} to {MAX_SCREEN_DEPTH}); 8 "
                          "is the least at which they carry the paper's "
                          f"(4/15)^t claim at every K from {MIN_BOUND_K} to "
                          "100. --survey-k always screens 3 and 5, whatever "
                          "--l is. [default: %(default)s]")
    sub.add_argument("--c", type=float, default=1.0,
                     help="Window constant for the incremental table (> 0). "
                          "[default: %(default)s]")
    sub.add_argument("--format", choices=["tsv", "json"], default="tsv",
                     help="[default: %(default)s]")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="Write here instead of stdout.")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the CLI on argv (default sys.argv[1:]); always ends in SystemExit."""
    with unlimited_digits():
        args = _parser().parse_args(argv)
        try:
            code = args.handler(args)
            sys.stdout.flush()
        except UsageError as exc:
            args.parser.error(str(exc))
        except OSError as exc:  # a write failed: a full disk, a closed pipe
            args.parser.cannot_write(exc)
        except KeyboardInterrupt:
            print("Aborted!", file=sys.stderr)
            code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
