"""Command-line front end.

Every operation of the library is exposed as a subcommand with
deterministic, machine-parsable output: fractions are printed "p/q",
quadratic surds "(a+b*sqrt(D))/c", dyadic rationals "m/2^n", and
enclosures as a lower/upper pair of exact fractions.  Fields whose values
are inherently approximate carry an `_approx` suffix; everything else
parses back to the exact internal value.

Each handler returns an `Answer(outputs, text=None, failure="")`, and
only `main` prints the json format's record, a dict of the subcommand's
name, inputs, outputs, status and error detail.  Its inputs are the
parsed arguments in parser order, less `--format`, `--timings` and
options left unset.  The plain and csv formats print what `text()`
builds, or the outputs as "key: value" lines when `text` is None; the
json format never calls it.  A nonempty `failure` is the record's error
detail, with status "error" and exit 1.

Exit status: 0 on success, 1 on domain errors (a fraction outside an
operation's domain, an unsupported equation, a failing `verify` run) or
a closed standard output, 2 on usage errors such as malformed literals.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import cycle, repeat
from typing import Callable, NamedTuple

from .analysis import (
    approx_constant_detail,
    interval_freeness,
    lyapunov_estimate,
    markov_interval,
    mcshane_partial_sum,
    saltus_mu,
    saltus_samples,
)
from .exact import MAX_VALUE_BITS, DyadicRational, QuadraticSurd, surd_enclose
from .farey import (
    farey_path_to,
    question_mark_farey,
    question_mark_of_word,
    question_mark_salem,
)
from .markov import (
    SUPPORTED_EQUATIONS,
    enumerate_tree,
    generalized_enumerate,
    mu,
    solve_congruence,
    unicity_scan,
)
from .slopes import epsilon, is_exceptional_slope
from .verify import run_all

__all__ = ["main"]


# -- canonical text forms ------------------------------------------------------

_FRACTION_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_DYADIC_RE = re.compile(r"^([+-]?\d+)/2\^(\d+)$")
_NEGATIVE_LITERAL_RE = re.compile(r"^-\d")


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_fraction(token: str) -> Fraction:
    m = _FRACTION_RE.match(token)
    if m is None:
        raise argparse.ArgumentTypeError(f"malformed fraction literal {token!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise argparse.ArgumentTypeError(f"zero denominator in fraction literal {token!r}")
    return Fraction(num, den)


def _parse_dyadic(token: str) -> DyadicRational:
    m = _DYADIC_RE.match(token)
    if m is not None:
        return DyadicRational(int(m.group(1)), int(m.group(2)))
    f = _FRACTION_RE.match(token)
    if f is None:
        raise argparse.ArgumentTypeError(f"malformed dyadic literal {token!r}; use M/2^N or p/q")
    den = int(f.group(2)) if f.group(2) is not None else 1
    if den == 0:
        raise argparse.ArgumentTypeError(f"zero denominator in dyadic literal {token!r}")
    if den & (den - 1):
        # Well-formed fraction, but outside the dyadic domain.
        raise argparse.ArgumentTypeError(
            f"dyadic literal {token!r} must have a power-of-two denominator")
    return DyadicRational.from_fraction(Fraction(int(f.group(1)), den))


def _decimal_str(f: Fraction, digits: int, round_up: bool) -> str:
    """f rendered with the given digits, rounded toward the chosen direction."""
    scale = 10 ** digits
    num = f.numerator * scale
    d = -((-num) // f.denominator) if round_up else num // f.denominator
    sign = "-" if d < 0 else ""
    d = abs(d)
    return f"{sign}{d // scale}.{d % scale:0{digits}d}"


def _outward(lo: Fraction, hi: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Round an enclosure outward onto the 10**-digits grid; still exact bounds."""
    scale = 10 ** digits
    out_lo = Fraction(lo.numerator * scale // lo.denominator, scale)
    out_hi = Fraction(-((-hi.numerator * scale) // hi.denominator), scale)
    return out_lo, out_hi


def _surd_decimal(x: QuadraticSurd, digits: int, round_up: bool) -> str:
    lo, hi = surd_enclose(x, digits + 2)
    return _decimal_str(hi if round_up else lo, digits, round_up)


# -- output record --------------------------------------------------------------


def _print_record(command: str, inputs: dict[str, str], outputs: dict[str, object],
                  status: str, error_detail: str) -> None:
    """Print the json format's one result record."""
    import json

    print(json.dumps({"command": command, "inputs": inputs, "outputs": outputs,
                      "status": status, "error_detail": error_detail}, indent=2))


def _plain_lines(outputs: dict[str, object]) -> str:
    lines = []
    for key, value in outputs.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        elif value is None:
            value = "-"
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _csv_text(header: list[str], rows: list[list[object]]) -> str:
    # No field needs quoting: they are fractions, turn words, decimals and ints.
    return "\n".join(",".join(map(str, row)) for row in (header, *rows))


# -- subcommand handlers ----------------------------------------------------------


class Answer(NamedTuple):
    """What a handler returns; `main` turns it into the record and the exit code."""

    outputs: dict[str, object]
    text: Callable[[], str] | None = None
    failure: str = ""


def _cmd_enumerate(args: argparse.Namespace) -> Answer:
    header = ["depth", "word", "left", "value", "right"]
    # Breadth-first: a stable sort by length keeps the word order within a level.
    rows = sorted(([len(word), word, fraction_str(t.f1), fraction_str(t.f3), fraction_str(t.f2)]
                   for word, t in enumerate_tree(args.depth)), key=lambda row: row[0])
    vertices = [dict(zip(header, row)) for row in rows]
    return Answer({"count": len(vertices), "vertices": vertices}, lambda: _csv_text(header, rows))


def _cmd_mu(args: argparse.Namespace) -> Answer:
    image = mu(args.x)
    return Answer({"value": fraction_str(image.value), "word": image.word, "depth": image.depth})


def _cmd_epsilon(args: argparse.Namespace) -> Answer:
    return Answer({"value": fraction_str(epsilon(args.x))})


def _cmd_slope(args: argparse.Namespace) -> Answer:
    decision = is_exceptional_slope(args.x)
    norm = decision.normalization
    outputs: dict[str, object] = {
        "normalized": fraction_str(decision.reduced),
        "shift": norm.n,
        "sign": norm.sign,
        "member": decision.accepted,
    }
    if not decision.accepted:
        outputs["stopped_at_denominator"] = decision.stopped_at_denominator
        return Answer(outputs)
    inv = decision.bundle_invariants()
    outputs.update({
        "word": decision.witness,
        "rank": inv.rank,
        "c1": inv.c1,
        "s": inv.s,
        "c2": inv.c2,
        "form": list(inv.form),
        "discriminant": inv.form_discriminant,
    })
    form = "({}, {}, {})".format(*inv.form)
    return Answer(outputs, lambda: _plain_lines({**outputs, "form": form}))


def _cmd_qmark(args: argparse.Namespace) -> Answer:
    x = args.x
    if not Fraction(0) <= x <= Fraction(1):
        raise ValueError(f"question mark is evaluated on [0, 1]; got {fraction_str(x)}")
    if args.method == "farey":
        y = question_mark_farey(x)
    elif args.method == "salem":
        y = question_mark_salem(x)
    elif x == 0:
        y = DyadicRational(0, 0)
    elif x == 1:
        y = DyadicRational(1, 0)
    else:
        y = question_mark_of_word(farey_path_to(x))
    return Answer({"value": str(y), "fraction": fraction_str(y.value), "method": args.method})


def _cmd_verify(args: argparse.Namespace) -> Answer:
    results = run_all(args.depth)
    failed = sum(1 for r in results if not r.passed)

    def text() -> str:
        lines = []
        for r in results:
            suffix = f" ({r.detail})" if r.detail else ""
            if r.passed:
                lines.append(f"PASS {r.name}: {r.checked} checks{suffix}")
            else:
                lines.append(f"FAIL {r.name}: {r.failures} of {r.checked} checks failed{suffix}")
        lines.append(f"{len(results) - failed}/{len(results)} invariant suites passed")
        return "\n".join(lines)

    outputs = {
        "depth": args.depth,
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "checked": r.checked,
                "failures": r.failures,
                "detail": r.detail,
                **({"seconds": r.seconds} if args.timings else {}),
            }
            for r in results
        ],
        "all_passed": not failed,
    }
    return Answer(outputs, text, f"{failed} invariant suites failed" if failed else "")


def _cmd_approx_const(args: argparse.Namespace) -> Answer:
    constant, witness = approx_constant_detail(args.x)
    return Answer({
        "constant": fraction_str(constant),
        "witness": fraction_str(witness),
        "at_least_one_third": constant >= Fraction(1, 3),
    })


def _require_markov_fraction(x: Fraction):
    decision = is_exceptional_slope(x)
    if not decision.accepted:
        raise ValueError(
            f"{fraction_str(x)} does not normalize to a Markov fraction"
        )
    return decision.markov_fraction()


def _cmd_interval(args: argparse.Namespace) -> Answer:
    f = _require_markov_fraction(args.x)
    iv = markov_interval(f)
    outputs: dict[str, object] = {
        "center": fraction_str(iv.center),
        "lo": str(iv.lo),
        "hi": str(iv.hi),
        "length": str(iv.length),
        "lo_approx": _surd_decimal(iv.lo, 12, round_up=False),
        "hi_approx": _surd_decimal(iv.hi, 12, round_up=True),
    }
    if args.freeness_bound is not None:
        report = interval_freeness(f, args.freeness_bound)
        outputs["freeness_bound"] = args.freeness_bound
        outputs["free"] = report.free
        outputs["intruders"] = [fraction_str(g) for g in report.intruders]
    return Answer(outputs)


def _enclosure_outputs(lo: Fraction, hi: Fraction, digits: int) -> dict[str, object]:
    out_lo, out_hi = _outward(lo, hi, digits)
    return {
        "enclosure": [fraction_str(out_lo), fraction_str(out_hi)],
        "lower_approx": _decimal_str(out_lo, digits, round_up=False),
        "upper_approx": _decimal_str(out_hi, digits, round_up=True),
    }


def _cmd_mcshane(args: argparse.Namespace) -> Answer:
    lo, hi = mcshane_partial_sum(args.depth, args.precision)
    outputs = _enclosure_outputs(lo, hi, args.precision)
    gap_lo, gap_hi = _outward(Fraction(1, 2) - hi, Fraction(1, 2) - lo, args.precision)
    outputs["gap_below_half"] = [fraction_str(gap_lo), fraction_str(gap_hi)]
    return Answer(outputs)


def _cmd_saltus(args: argparse.Namespace) -> Answer:
    lo, hi = saltus_mu(args.x, args.depth, args.precision)
    return Answer(_enclosure_outputs(lo, hi, args.precision))


def _cmd_lyapunov(args: argparse.Namespace) -> Answer:
    turns = repeat("L") if args.word == "const" else cycle("LR")
    estimate = lyapunov_estimate(turns, args.steps)
    return Answer({"estimate_approx": estimate})


def _cmd_unicity(args: argparse.Namespace) -> Answer:
    report = unicity_scan(args.depth)
    outputs = {
        "vertices": report.vertex_count,
        "distinct_denominators": report.distinct_denominators,
        "all_unique": report.all_unique,
        "duplicates": [
            {"denominator": q, "fractions": [fraction_str(v) for v in vals]}
            for q, vals in report.duplicates
        ],
    }

    def text() -> str:
        plain = {k: outputs[k] for k in ("vertices", "distinct_denominators", "all_unique")}
        lines = [_plain_lines(plain)]
        lines.extend(f"duplicate {dup['denominator']}: " + " ".join(dup["fractions"])
                     for dup in outputs["duplicates"])
        return "\n".join(lines)

    return Answer(outputs, text)


def _cmd_triples(args: argparse.Namespace) -> Answer:
    eq = SUPPORTED_EQUATIONS[args.equation]
    triples = sorted(generalized_enumerate(eq, args.depth))
    return Answer({"count": len(triples), "triples": [list(t) for t in triples]},
                  lambda: "\n".join(f"{x} {y} {z}" for x, y, z in triples))


def _cmd_congruence(args: argparse.Namespace) -> Answer:
    if args.modulus < 1:
        raise ValueError(f"modulus must be positive; got {args.modulus}")
    solutions = solve_congruence(args.modulus)
    return Answer({"modulus": args.modulus, "solutions": solutions, "count": len(solutions)},
                  lambda: " ".join(str(s) for s in solutions))


_PLOT_DIGITS = 12
# Sample budget of plot-mu, equal to the vertex budget of the tree scans.
_MAX_PLOT_POINTS = 1 << 20


def _cmd_plot_mu(args: argparse.Namespace) -> Answer:
    if args.grid < 2:
        raise ValueError(f"grid must have at least 2 sample points; got {args.grid}")
    if args.grid > _MAX_PLOT_POINTS:
        raise ValueError(f"grid {args.grid} exceeds the {_MAX_PLOT_POINTS} sample point budget")
    xs = [Fraction(i, args.grid - 1) for i in range(args.grid)]
    header = ["x", "mu_lower", "mu_upper", "x_approx", "mu_approx"]
    lowers: list[Fraction] = []
    points: list[dict[str, str]] = []
    for x, bounds in zip(xs, saltus_samples(xs, args.depth, _PLOT_DIGITS)):
        lo, hi = _outward(*bounds, _PLOT_DIGITS)
        lowers.append(lo)
        points.append(dict(zip(header, (fraction_str(x), fraction_str(lo), fraction_str(hi)))))

    def text() -> str:
        # The csv rows add two decimal columns to the exact ones of the json points.
        rows = [[*point.values(), _decimal_str(x, _PLOT_DIGITS, round_up=False),
                 _decimal_str(lo, _PLOT_DIGITS, round_up=False)]
                for point, x, lo in zip(points, xs, lowers)]
        return _csv_text(header, rows)

    return Answer({"count": len(points), "points": points}, text)


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads -1/4 and -77/2^9 as values, not options.

    argparse treats a token that starts with '-' as an option unless it is
    a plain negative number, so negative slash literals would need '--'.
    No option starts with '-' and a digit, so every such token is a value
    and a malformed one is reported by its literal parser.  Subparsers
    inherit the class.
    """

    def _parse_optional(self, arg_string: str):
        if _NEGATIVE_LITERAL_RE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="markovfrac",
        description="Exact arithmetic for the Markov fraction tree, "
                    "exceptional bundle slopes, and their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, formats: tuple[str, ...] = ("plain", "json")):
        # A command's default format is its first.
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(handler=handler)
        return p

    p = add("enumerate", _cmd_enumerate, "Breadth-first vertices of the fraction tree.",
            formats=("plain", "json", "csv"))
    p.add_argument("--depth", type=int, required=True, metavar="N")

    p = add("mu", _cmd_mu, "Transport of a rational in [0, 1] into the tree.")
    p.add_argument("x", type=_parse_fraction, metavar="A/B")

    p = add("epsilon", _cmd_epsilon, "Slope of a dyadic rational.")
    p.add_argument("x", type=_parse_dyadic, metavar="M/2^N")

    p = add("slope", _cmd_slope, "Membership test and invariants for a slope.")
    p.add_argument("x", type=_parse_fraction, metavar="P/Q")

    p = add("qmark", _cmd_qmark, "Question mark function of a rational in [0, 1].")
    p.add_argument("x", type=_parse_fraction, metavar="A/B")
    p.add_argument("--method", choices=("farey", "salem", "word"), default="farey")

    p = add("verify", _cmd_verify, "Run the full invariant suite.")
    p.add_argument("--depth", type=int, required=True, metavar="N")
    p.add_argument("--timings", action="store_true",
                   help="add each suite's wall seconds to the json results")

    p = add("approx-const", _cmd_approx_const, "Best-approximation constant of a rational.")
    p.add_argument("x", type=_parse_fraction, metavar="P/Q")

    p = add("interval", _cmd_interval, "Exact free interval around a Markov fraction.")
    p.add_argument("x", type=_parse_fraction, metavar="P/Q")
    p.add_argument("--freeness-bound", type=int, metavar="B",
                   help="also scan every fraction with denominator <= B")

    p = add("mcshane", _cmd_mcshane, "Enclosure of the interval-length sum (limit 1/2).")
    p.add_argument("--depth", type=int, required=True, metavar="N")
    p.add_argument("--precision", type=int, required=True, metavar="D")

    p = add("saltus", _cmd_saltus, "Enclosure of the truncated jump sum at a point.")
    p.add_argument("x", type=_parse_fraction, metavar="X")
    p.add_argument("--depth", type=int, required=True, metavar="N")
    p.add_argument("--precision", type=int, required=True, metavar="D")

    p = add("lyapunov", _cmd_lyapunov, "Denominator growth estimate along a branch.")
    p.add_argument("--word", choices=("const", "alternating"), required=True)
    p.add_argument("--steps", type=int, required=True, metavar="N")

    p = add("unicity", _cmd_unicity, "Scan for duplicate denominators in the tree.")
    p.add_argument("--depth", type=int, required=True, metavar="N")

    p = add("triples", _cmd_triples, "Vieta closure of (1,1,1) for a supported equation.")
    p.add_argument("--equation", choices=sorted(SUPPORTED_EQUATIONS), required=True)
    p.add_argument("--depth", type=int, required=True, metavar="N")

    p = add("congruence", _cmd_congruence, "Solutions of x^2 + 1 = 0 modulo Q in [0, Q).")
    p.add_argument("modulus", type=int, metavar="Q")

    p = add("plot-mu", _cmd_plot_mu, "CSV samples of the transport step function.",
            formats=("csv", "json"))
    p.add_argument("--grid", type=int, required=True, metavar="K",
                   help=f"number of sample points, from 2 to {_MAX_PLOT_POINTS}")
    p.add_argument("--depth", type=int, required=True, metavar="N")

    return parser


# Decimal digits of an integer of MAX_VALUE_BITS bits, rounded up (log10(2) < 0.30103).
_BUDGET_DIGITS = MAX_VALUE_BITS * 30103 // 100000 + 1


@contextmanager
def _budget_digits():
    """Let str() convert every integer within the value budget, then restore the limit.

    Python 3.10.7 and later refuse int/str conversions above
    sys.get_int_max_str_digits() digits (4300 by default).  An answer can
    add the budget to the digits of its input, which parsed within the
    limit, so the limit is raised by that much while a command runs.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit == 0:
        yield
        return
    sys.set_int_max_str_digits(limit + _BUDGET_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Parsed values that are not the subcommand's inputs.
_NOT_INPUTS = frozenset({"command", "handler", "format", "timings"})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "timings", False) and args.format != "json":
        parser.error("--timings needs --format json")
    try:
        with _budget_digits():
            try:
                answer = args.handler(args)
            except (ValueError, ZeroDivisionError) as exc:
                detail = str(exc)
                print(f"error: {detail}", file=sys.stderr)
                if args.format == "json":
                    _print_record(args.command, {}, {}, "error", detail)
                sys.stdout.flush()
                return 1
            if args.format == "json":
                inputs = {key: fraction_str(value) if isinstance(value, Fraction) else str(value)
                          for key, value in vars(args).items()
                          if key not in _NOT_INPUTS and value is not None}
                status = "error" if answer.failure else "ok"
                _print_record(args.command, inputs, answer.outputs, status, answer.failure)
            else:
                print(_plain_lines(answer.outputs) if answer.text is None else answer.text())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output: point it at os.devnull, as the
        # signal module's documentation advises, so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if answer.failure else 0


if __name__ == "__main__":
    sys.exit(main())
