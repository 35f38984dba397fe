"""Command line front end.

Every subcommand prints one table in csv, json, or pretty form.  Output
is deterministic: --workers changes wall time, never bytes, and no
timestamps or runtimes appear in csv or json.  Every subcommand takes
--workers, but only avg-max and fixed-a-avg use it; the rest run serially.

Each subcommand is one entry of COMMANDS: its name, help, arguments and a
function from the parsed arguments to the result columns (an ordered
dict, or a list of them for one row each).  The params of a run are the
command's own arguments in declaration order, and every row repeats the
params before its result columns.  The exceptions:

- theorem2-root, baker-root, compare-bounds and exponent-fit do not
  repeat their params in the row;
- vaughan-check reports the resolved truncation U, not the flag's None.

Adding a subcommand means adding one entry.  Entries reach package
functions through their home modules at call time, as kl.expsums.prime_sum,
never by holding the function itself.  The package imports a module on
its first use, so a call loads only the modules its command runs, and a
caller that rebinds a function in its home module (as bench/tracer.py
does) sees the calls.  main() likewise parses with a parser that holds
only the command argv names; help, --version and unknown commands take
the full one, and both print the same bytes.

Exit codes: 0 on success, 2 on bad parameters, 3 when a computation is
refused because it would blow the capacity or memory budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

import kloosterlab as kl

from . import __version__
from .arith import MEMORY_ENV_VAR
from .errors import CapacityError, KloosterlabError
from .expsums import DEFAULT_SCAN_LIMIT


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty",
                   help="output format (default pretty)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write output to PATH instead of stdout")
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the sweeps of avg-max and fixed-a-avg; "
                        "other commands run serially (default 1)")
    p.add_argument("--max-sieve", type=int, default=10 ** 8, dest="max_sieve",
                   help="largest sieve the command may build (default 1e8)")
    p.add_argument("--max-q-scan", type=int, default=DEFAULT_SCAN_LIMIT, dest="max_q_scan",
                   help="largest modulus an exhaustive numerator scan may take")


def _sieve_top(args, need: float) -> int:
    """need rounded up: the top of a sieved range, a table's or a window's,
    which --max-sieve bounds."""
    if not math.isfinite(need):
        raise ValueError(f"sieve size {need} is not finite")
    need = int(math.ceil(need))
    if need > args.max_sieve:
        raise CapacityError(f"needs a sieve to {need}, over --max-sieve {args.max_sieve}")
    return need


def _window(run: Callable) -> Callable:
    """The run of a command over the window [x, 2x), whose top 2x
    --max-sieve bounds before anything runs."""
    def bounded(args):
        _sieve_top(args, 2 * args.x)
        return run(args)
    return bounded


# --- result columns -----------------------------------------------------------

def _value(v) -> dict:
    """Columns of an ExpSumValue."""
    return {"real": v.value.real, "imag": v.value.imag, "magnitude": v.magnitude,
            "terms": v.term_count, "error_bound": v.accumulation_error_bound}


def _report(rep) -> dict:
    """Columns of a BoundReport: measurement, each bound term, total, ratio."""
    return {"lhs": rep.lhs, **rep.rhs_terms, "rhs_total": rep.rhs_total,
            "ratio": rep.ratio, "trivial": rep.trivial_bound}


def _attrs(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _fixed_a_avg(args):
    rep = kl.experiments.fixed_a_avg_report(args.a, args.Q, args.x, workers=args.workers)
    return {"size_factor": rep.extra["size_factor"], **_report(rep)}


def _jcount_avg(args):
    rep = kl.counting.sum_congruence_counts(args.k, args.M, args.Q)
    return {"total": rep.extra["total"], **rep.rhs_terms, "rhs_total": rep.rhs_total,
            "ratio": rep.ratio}


def _vaughan_check(args):
    # the resolved truncation replaces None, so params and row both carry it
    args.U = args.U if args.U is not None else args.x ** (1 / 3)
    params = kl.vaughan.VaughanParams(x=args.x, U=args.U)
    # mu and Lambda are tabled to the decomposition's limit, which passes 2x
    # for small U
    _sieve_top(args, kl.vaughan.decomposition_limit(params))
    chk = kl.vaughan.compare_decomposition(params, args.a, args.q)
    return {"direct_real": chk.direct.real, "direct_imag": chk.direct.imag,
            "decomposed_real": chk.decomposed.real, "decomposed_imag": chk.decomposed.imag,
            **_attrs(chk, "abs_error", "rel_error", "components")}


def _baker_root(args):
    from fractions import Fraction

    try:
        alpha = float(Fraction(args.alpha))
    except ZeroDivisionError:
        raise ValueError(f"alpha {args.alpha!r} has a zero denominator") from None
    res = kl.experiments.sieve_exponent_root(alpha, tol=args.tol)
    return {"alpha": alpha, **_attrs(res, "root", "residual", "iterations")}


def _garaev(args):
    _sieve_top(args, args.x + 1)
    count, pi_x = kl.experiments.garaev_counts(args.x, args.q, args.lam)
    return {"count": count, "pi_x": pi_x}


def _exponent_fit(args):
    series = []
    for chunk in args.points:
        scale, _, value = chunk.partition(":")
        if not _:
            raise ValueError(f"point {chunk!r} is not scale:value")
        series.append((float(scale), float(value)))
    return _attrs(kl.experiments.exponent_fit(series),
                  "points", "slope", "intercept", "residual_norm")


def _choose_u(args):
    U = kl.experiments.choose_U(args.theorem, args.Q, args.x)
    return {"U": U, "x_third": args.x ** (1 / 3), "x_over_U": args.x / U}


# --- registry -----------------------------------------------------------------

class Command(NamedTuple):
    """One subcommand.

    arguments holds (name or flag, spec) in declaration order; spec is a
    type for a plain positional, else the add_argument keywords.  repeat is
    how many leading params each row repeats (None: all of them).
    """

    name: str
    help: str
    arguments: tuple
    run: Callable
    repeat: int | None = None


_TOL = ("--tol", {"type": float, "default": 1e-12})

COMMANDS = (
    Command("sum", "one prime sum S_q(a; x) over [x, 2x)",
            (("a", int), ("q", int), ("x", float),
             ("--weight", {"choices": ("unit", "von_mangoldt"), "default": "unit"})),
            _window(lambda args: _value(kl.expsums.prime_sum(
                kl.expsums.ExpSumQuery(a=args.a, q=args.q, x=args.x), weight=args.weight)))),
    Command("max-sum", "max over numerators a of |S_q(a; x)|",
            (("q", int), ("x", float)),
            _window(lambda args: dict(zip(("a_star", "magnitude"), kl.expsums.max_prime_sum(
                args.q, args.x, scan_limit=args.max_q_scan))))),
    Command("avg-max", "sum over q ~ Q of max_a |S_q(a; x)| vs envelope",
            (("Q", int), ("x", float)),
            _window(lambda args: _report(kl.experiments.avg_max_report(
                args.Q, args.x, workers=args.workers, scan_limit=args.max_q_scan)))),
    Command("fixed-a-avg", "sum over q ~ Q of |S_q(a; x)| vs envelope",
            (("a", int), ("Q", int), ("x", float)),
            _window(_fixed_a_avg)),
    Command("kloosterman", "complete sum K(a, b; q), real-valued",
            (("a", int), ("b", int), ("q", int)),
            lambda args: {"value": kl.expsums.kloosterman(args.a, args.b, args.q)}),
    Command("short-sum", "incomplete inverse sum over lower < n <= upper",
            (("a", int), ("q", int), ("lower", float), ("upper", float)),
            lambda args: _value(kl.expsums.short_inverse_sum(
                args.a, args.q, args.lower, args.upper))),
    Command("weil-ratio", "short sum against its completion bound",
            (("a", int), ("q", int), ("lower", float), ("upper", float)),
            lambda args: _report(kl.expsums.weil_ratio(args.a, args.q, args.lower, args.upper))),
    Command("bilinear", "unit-coefficient bilinear sum over l ~ L, m ~ M",
            (("L", float), ("M", float), ("a", int), ("q", int),
             ("--restrict-lm", {"type": float, "default": None, "dest": "restrict_lm",
                                "help": "keep only pairs with x <= l*m < 2x for this x"})),
            lambda args: _value(kl.bilinear.bilinear_sum(kl.bilinear.BilinearSpec(
                L=args.L, M=args.M, a=args.a, q=args.q, restrict_lm=args.restrict_lm)))),
    Command("jcount", "inverse-congruence solution count for one modulus",
            (("k", int), ("M", int), ("q", int)),
            lambda args: {"count": kl.counting.count_congruence_solutions(
                args.k, args.M, args.q)}),
    Command("jcount-avg", "congruence counts summed over q ~ Q vs envelope",
            (("k", int), ("M", int), ("Q", int)),
            _jcount_avg),
    Command("unitfrac", "unit-fraction solution count, exact rationals",
            (("k", int), ("N", int)),
            lambda args: {"count": kl.counting.count_unit_fraction_solutions(args.k, args.N)}),
    Command("squarefull", "count square-full integers up to x",
            (("x", int),),
            lambda args: {"count": kl.counting.count_squarefull(args.x)}),
    Command("vaughan-check", "bilinear decomposition against the direct sum",
            (("a", int), ("q", int), ("x", float),
             ("--truncation", {"type": float, "default": None, "metavar": "U", "dest": "U",
                               "help": "identity truncation (default x^(1/3))"})),
            _window(_vaughan_check)),
    Command("prime-power-gap", "Lambda-weighted vs prime-only window sums",
            (("a", int), ("q", int), ("x", float)),
            _window(lambda args: _attrs(kl.vaughan.prime_power_gap(args.a, args.q, args.x),
                                        "gap", "envelope", "prime_power_terms"))),
    Command("theorem2-root", "exponent threshold root, near 1.188",
            (_TOL,),
            lambda args: _attrs(kl.experiments.ternary_exponent_root(tol=args.tol),
                                "root", "residual", "iterations"),
            repeat=0),
    Command("baker-root", "threshold root for a general input exponent",
            (("alpha", {"help": "input exponent in (1, 2); fractions like 23/21 allowed"}),
             _TOL),
            _baker_root, repeat=0),
    Command("ternary", "prime triples p ~ x with a rough pairwise-product sum",
            (("x", int), ("theta", float)),
            _window(lambda args: _attrs(kl.experiments.ternary_rough_count(args.x, args.theta),
                                        "threshold", "count", "total", "fraction", "scaled"))),
    Command("garaev", "prime triples p <= x with p1 p2 p3 = lam (mod q)",
            (("x", int), ("q", int), ("lam", int)),
            _garaev),
    Command("compare-bounds", "competing average bounds at x = Q",
            (("Q", float),),
            lambda args: [{"label": row.label, "exponent": str(row.exponent),
                           "exponent_value": row.exponent_value, "value": val}
                          for row, val in kl.experiments.comparison_table(args.Q)],
            repeat=0),
    Command("exponent-fit", "fit a growth exponent to scale:value points",
            (("points", {"nargs": "+", "metavar": "scale:value"}),),
            _exponent_fit, repeat=0),
    Command("choose-u", "balanced truncation for either average theorem",
            (("theorem", {"choices": ("avg-max", "fixed-a-avg")}), ("Q", float), ("x", float)),
            _choose_u),
)

_BY_NAME = {cmd.name: cmd for cmd in COMMANDS}


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kloosterlab",
        description="exponential sums over primes with modular-inverse phases",
        epilog=f"The sieve memory budget can be capped with {MEMORY_ENV_VAR}.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for cmd in commands:
        p = sub.add_parser(cmd.name, help=cmd.help)
        dests = []
        for name, spec in cmd.arguments:
            kwargs = spec if isinstance(spec, dict) else {"type": spec}
            dests.append(p.add_argument(name, **kwargs).dest)
        _add_common(p)
        p.set_defaults(entry=cmd, param_names=dests)
    return parser


@functools.lru_cache(maxsize=None)
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser main() reuses: of one command, or of all (None).

    A parse of argv that starts with a command reads only that command's
    subparser, and every message it can print (its usage, its errors, the
    top level's "unrecognized arguments") reads the same in either
    parser.  Parsing leaves no state in it, and help reads the terminal
    width when it is formatted.
    """
    return build_parser(COMMANDS if command is None else (_BY_NAME[command],))


# --- output -----------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def _json_value(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _render(params: dict, rows: list[dict], args) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
        return buf.getvalue()
    if args.format == "json":
        doc = {
            "params": {k: _json_value(v) for k, v in params.items()},
            "results": [{k: _json_value(v) for k, v in row.items()} for row in rows],
            "meta": {
                "tool": "kloosterlab",
                "version": __version__,
                "subcommand": args.command,
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [", ".join(f"{k} = {_fmt(v)}" for k, v in params.items())]
    for row in rows:
        lines.append("  ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv[0] if argv and argv[0] in _BY_NAME else None).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result = args.entry.run(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KloosterlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = {name: getattr(args, name) for name in args.param_names}
    shown = {name: params[name] for name in args.param_names[:args.entry.repeat]}
    rows = [{**shown, **row} for row in (result if isinstance(result, list) else [result])]
    text = _render(params, rows, args)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
