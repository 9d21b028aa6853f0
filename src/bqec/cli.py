"""Command-line front door.

Subcommands: curve, quad, search-quads, sieve, height, regulator, verify.
All numeric I/O is exact: rationals go in and out as 'p' or 'p/q'.  Output
is JSON on stdout (one object, or one object per line for streaming
commands); sieve and search-quads also take --format csv.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 domain
rejection (irrational ratio, unrealizable point), 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import cache

from .analysis import INDEPENDENCE_TOL, canonical_height, digit_cap, regulator, sieve
from .arith import format_rational, parse_rational
from .curves import Curve, Point
from .errors import (
    BadPrime,
    BadReduction,
    DigitCapExceeded,
    IrrationalN,
    MapPole,
    NotRealizable,
    OutOfRange,
    SizeCapExceeded,
    ZeroU,
)
from .family import family_curve, family_torsion_points, has_full_two_torsion
from .quad import (
    Quadrilateral,
    bicentric_data,
    n_ratio,
    point_to_quad,
    point_to_semiperimeter,
    quad_to_point,
    search_quads,
)
from .torsion import torsion_subgroup
from .verify import TABLES, run as run_verification


def _slug(exc: Exception) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _emit(obj) -> None:
    print(json.dumps(obj))


def _emit_error(exc: Exception) -> None:
    payload = {"error": _slug(exc), "detail": str(exc)}
    if isinstance(exc, NotRealizable):
        payload["side"] = exc.side_name
        payload["value"] = format_rational(exc.value)
    _emit(payload)


def _point_json(P) -> list[str] | str:
    if isinstance(P, Point):
        return [format_rational(P.x), format_rational(P.y)]
    return "infinity"


def _curve_from_args(args) -> Curve:
    if args.a is not None:
        return family_curve(parse_rational(args.a))
    if args.A is None or args.B is None:
        raise ValueError("supply either --a, or both --A and --B")
    return Curve.from_ab(parse_rational(args.A), parse_rational(args.B))


# ----------------------------------------------------------------------
# subcommands

def cmd_curve(args) -> int:
    a = parse_rational(args.a)
    curve = family_curve(a)
    torsion_points = family_torsion_points(a)
    structure = torsion_subgroup(curve, hints=[P for P, _ in torsion_points])
    _emit(
        {
            "a": format_rational(a),
            "A": format_rational(curve.A),
            "B": format_rational(curve.B),
            "discriminant": format_rational(curve.discriminant),
            "j": format_rational(curve.j_invariant),
            "torsion": {
                "shape": structure.shape,
                "order": structure.order,
                "proven": structure.proven,
                "generators": [_point_json(P) for P in structure.generators],
            },
            "torsion_points": [
                {"point": _point_json(P), "order": order}
                for P, order in torsion_points
            ],
            "full_two_torsion": has_full_two_torsion(a),
        }
    )
    return 0


def cmd_quad(args) -> int:
    point_args = (args.a, args.u, args.v)
    if args.sides is not None:
        if any(arg is not None for arg in point_args):
            raise ValueError("give either --sides or --a/--u/--v, not both")
        sides = [parse_rational(part) for part in args.sides.split(",")]
        if len(sides) != 4:
            raise ValueError("--sides needs exactly four comma-separated rationals")
        quad = Quadrilateral(*sides)
        a, u, v = quad_to_point(quad)  # raises NotPitot, then IrrationalN
        data = bicentric_data(quad)
        _emit(
            {
                "sides": [format_rational(side) for side in quad.sides],
                "N": format_rational(data.n),
                "s": format_rational(data.s),
                "a": format_rational(a),
                "u": format_rational(u),
                "v": format_rational(v),
            }
        )
        return 0
    if any(arg is None for arg in point_args):
        raise ValueError("give either --sides, or all of --a, --u and --v")
    a = parse_rational(args.a)
    u = parse_rational(args.u)
    v = parse_rational(args.v)
    s = point_to_semiperimeter(a, u, v)
    quad = point_to_quad(a, u, v)
    _emit(
        {
            "a": format_rational(a),
            "u": format_rational(u),
            "v": format_rational(v),
            "s": format_rational(s),
            "sides": [format_rational(side) for side in quad.sides],
            "N": format_rational(n_ratio(quad)),
        }
    )
    return 0


def cmd_search_quads(args) -> int:
    results = search_quads(args.max_side)
    if args.format == "csv":
        print("a,b,c,d,N")
        for quad, n in results:
            print(",".join(format_rational(x) for x in (*quad.sides, n)))
    else:
        for quad, n in results:
            _emit({"sides": [int(side) for side in quad.sides], "N": format_rational(n)})
    return 0


def _parse_thresholds(text: str) -> dict[int, float]:
    thresholds = {}
    for part in text.split(","):
        bound, _, need = part.partition(":")
        if not need:
            raise ValueError(f"bad threshold {part!r}; expected BOUND:SCORE")
        bound, need = int(bound), float(need)
        if bound < 5:  # the sums skip p <= 3, so a smaller bound scores no prime
            raise ValueError(f"bad threshold {part!r}; the prime bound must be at least 5")
        if bound in thresholds:
            raise ValueError(f"bad threshold {part!r}; bound {bound} is given twice")
        if not math.isfinite(need):
            raise ValueError(f"bad threshold {part!r}; the score must be finite")
        thresholds[bound] = need
    return thresholds


def cmd_sieve(args) -> int:
    if (args.k is None) == (args.k_file is None):
        raise ValueError("give exactly one of --k or --k-file")
    if args.k is not None:
        k_values = [parse_rational(part) for part in args.k.split(",")]
    else:
        with open(args.k_file, encoding="utf-8") as handle:
            k_values = [parse_rational(line.strip()) for line in handle if line.strip()]
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else None
    records = sieve(args.subfamily, k_values, thresholds, jobs=args.jobs)
    bounds = sorted({bound for record in records for bound in record.sums})
    if args.format == "csv":
        print(",".join(["subfamily", "k", *(f"S{b}" for b in bounds), "passed"]))
        for record in records:
            scores = [repr(record.sums[b]) if b in record.sums else "" for b in bounds]
            print(",".join([str(record.subfamily), format_rational(record.k),
                            *scores, str(record.passed).lower()]))
    else:
        for record in records:
            payload = {"subfamily": record.subfamily, "k": format_rational(record.k)}
            for bound in bounds:
                if bound in record.sums:
                    payload[f"S{bound}"] = record.sums[bound]
            payload["passed"] = record.passed
            if record.singular:
                payload["singular"] = True
            _emit(payload)
    return 0


def cmd_height(args) -> int:
    curve = _curve_from_args(args)
    P = Point(parse_rational(args.x), parse_rational(args.y))
    result = canonical_height(curve, P, args.doublings)
    _emit(
        {
            "height": result.value,
            "doublings": result.doublings_used,
            "error_bound": result.error_bound,
        }
    )
    return 0


def cmd_regulator(args) -> int:
    curve = _curve_from_args(args)
    points = []
    for text in args.point:
        x_text, _, y_text = text.partition(",")
        if not y_text:
            raise ValueError(f"bad point {text!r}; expected X,Y")
        points.append(Point(parse_rational(x_text), parse_rational(y_text)))
    value = regulator(curve, points, args.doublings)
    _emit(
        {
            "regulator": value,
            "points": len(points),
            "independent": value > INDEPENDENCE_TOL,
        }
    )
    return 0


def cmd_verify(args) -> int:
    reports = run_verification(args.table)
    failed = False
    for report in reports:
        _emit({"item": report.item, "status": report.status, "detail": report.detail})
        failed = failed or report.status == "fail"
    return 1 if failed else 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The bqec argument parser.  It is built once per process, on first use
    (not at import), and reused: parse_args leaves it unchanged and gives
    every call a fresh namespace."""
    return _make_parser()


@cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqec",
        description="Exact arithmetic for bicentric quadrilaterals with rational "
        "circumradius/inradius ratio and their elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="inspect the family curve at a parameter")
    p.add_argument("--a", required=True, help="family parameter (rational)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("quad", help="convert between quadrilaterals and curve points")
    p.add_argument("--sides", help="four comma-separated side lengths")
    p.add_argument("--a", help="family parameter of a curve point")
    p.add_argument("--u", help="x-coordinate of the curve point")
    p.add_argument("--v", help="y-coordinate of the curve point")
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("search-quads", help="search integer-sided quadrilaterals")
    p.add_argument("--max-side", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_search_quads)

    p = sub.add_parser("sieve", help="score subfamily members by their sieve sums")
    p.add_argument("--subfamily", type=int, required=True)
    p.add_argument("--k", help="comma-separated k values")
    p.add_argument("--k-file", help="file with one k value per line")
    p.add_argument("--thresholds", help='e.g. "523:10,1979:14" (defaults per subfamily)')
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("height", help="canonical height of a point")
    p.add_argument("--a", help="family parameter (or use --A/--B)")
    p.add_argument("--A", help="x^2 coefficient of an explicit model")
    p.add_argument("--B", help="x coefficient of an explicit model")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--doublings", type=int, default=8)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("regulator", help="regulator of a set of points")
    p.add_argument("--a", help="family parameter (or use --A/--B)")
    p.add_argument("--A", help="x^2 coefficient of an explicit model")
    p.add_argument("--B", help="x coefficient of an explicit model")
    p.add_argument("--point", action="append", required=True, help="X,Y (repeatable)")
    p.add_argument("--doublings", type=int, default=8)
    p.set_defaults(func=cmd_regulator)

    p = sub.add_parser("verify", help="run an embedded verification corpus")
    p.add_argument("table", choices=TABLES)
    p.set_defaults(func=cmd_verify)

    return parser


# A long option without a value, and a value that starts like a negative
# number; no option name starts with a digit, so such a token is a value.
_BARE_OPTION = re.compile(r"--[^=]+\Z")
_NEGATIVE_VALUE = re.compile(r"-\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--opt -7/3' as '--opt=-7/3'.  argparse reads a token that
    starts with '-' as an option unless it looks like a negative number,
    which -7/3 and -32,-864 do not."""
    joined: list[str] = []
    for token in argv:
        if joined and _NEGATIVE_VALUE.match(token) and _BARE_OPTION.match(joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    limit = sys.get_int_max_str_digits()
    try:
        # The interpreter's int<->str limit (4300 digits by default) would
        # reject valid input far below the digit cap, so the cap sets it.
        sys.set_int_max_str_digits(max(digit_cap(), sys.int_info.str_digits_check_threshold))
        return args.func(args)
    except (DigitCapExceeded, SizeCapExceeded) as exc:
        _emit_error(exc)
        return 4
    except (IrrationalN, NotRealizable, ZeroU, MapPole, OutOfRange, BadPrime, BadReduction) as exc:
        _emit_error(exc)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as exc:
        _emit_error(exc)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
