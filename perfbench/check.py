"""Output checker: reference comparison plus oracles.

check() returns a list of problems; an empty list means the output is
correct.  Two kinds of checks apply:

* Reference.  Outputs recorded from the seed commit
  (reference/<workload>.json), keyed by request, on any seed: the first
  cycle of the pinned seed, every quad and curve follow-up of the hit
  catalogue, and the catalogue itself (every search-quads hit up to
  gen.HITS_MAX_SIDE), of which a search up to M must print exactly the
  hits with sides <= M.  Exact fields (rationals, shapes, orders, proven,
  sides, N, flags) must match byte for byte; float fields must stay within
  stated tolerances (_float_ok).
* Oracles.  Independent recomputations in ecmath, sharing no code with
  bqec: published values, Mazur's list, a torsion-order bound from own
  point counts, N from an integer isqrt, curve equations, both sieve sums
  of one k per request and a height estimate from own doublings.  These
  apply to every request.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import ecmath
from gen import PUBLISHED, Request

SIEVE_THRESHOLDS = {1: (10.0, 14.0), 4: (8.0, 10.0), 5: (10.0, 14.0), 8: (10.0, 14.0)}
SIEVE_REL = 1e-9
REGULATOR_ABS = 5e-2
# |h - h_est(5 doublings)| <= C / 4^5 with C the model's height-difference
# constant; observed differences stay below 0.006.
HEIGHT_ESTIMATE_TOL = 0.05


def _rel_close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def _float_ok(key: str, value, ref_value, ref_obj) -> bool:
    if not isinstance(value, float) or not isinstance(ref_value, float):
        return value == ref_value
    if key == "height":
        return abs(value - ref_value) <= ref_obj["error_bound"]
    if key == "regulator":
        return abs(value - ref_value) <= REGULATOR_ABS
    # sieve sums S<bound> and error_bound
    return _rel_close(value, ref_value, SIEVE_REL)


def parse_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


@dataclass
class Reference:
    """Recorded outputs keyed by request key, and the hit catalogue."""

    outputs: dict
    hits: str = ""  # stdout of search-quads up to hits_max_side
    hits_max_side: int = 0

    def lookup(self, req: Request) -> dict | None:
        if req.key in self.outputs:
            return self.outputs[req.key]
        if req.kind == "search" and int(option(req, "max-side")) <= self.hits_max_side:
            max_side = int(option(req, "max-side"))
            kept = [line for line in self.hits.splitlines()
                    if max(json.loads(line)["sides"]) <= max_side]
            return {"rc": 0, "stdout": "".join(line + "\n" for line in kept)}
        return None


def compare_reference(rc: int, stdout: str, ref: dict) -> list[str]:
    if rc != ref["rc"]:
        return [f"exit {rc}, reference exit {ref['rc']}"]
    got, want = parse_lines(stdout), parse_lines(ref["stdout"])
    if len(got) != len(want):
        return [f"{len(got)} output lines, reference has {len(want)}"]
    problems = []
    for line, (obj, ref_obj) in enumerate(zip(got, want)):
        if obj.keys() != ref_obj.keys():
            problems.append(f"line {line}: keys {sorted(obj)} != {sorted(ref_obj)}")
            continue
        for key, ref_value in ref_obj.items():
            if not _float_ok(key, obj[key], ref_value, ref_obj):
                problems.append(f"line {line}: {key} = {obj[key]!r}, reference {ref_value!r}")
    return problems


def check(req: Request, rc, stdout: str, reference: Reference | None) -> list[str]:
    """Problems with one request's output (empty when it is correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = []
        ref = reference.lookup(req) if reference is not None else None
        if ref is not None:
            problems += compare_reference(rc, stdout, ref)
        problems += ORACLES[req.kind](req, parse_lines(stdout))
        return problems
    except (ValueError, KeyError, TypeError, ZeroDivisionError, IndexError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def option(req: Request, name: str) -> str:
    prefix = f"--{name}="
    return next(arg[len(prefix):] for arg in req.argv if arg.startswith(prefix))


# ----------------------------------------------------------------------
# oracles

def _sieve(req: Request, lines: list[dict]) -> list[str]:
    index = int(option(req, "subfamily"))
    ks = [Fraction(k) for k in req.kfile]
    if [Fraction(obj["k"]) for obj in lines] != ks or any(obj["subfamily"] != index for obj in lines):
        return ["records do not echo the k-file in order"]
    need523, need1979 = SIEVE_THRESHOLDS[index]
    problems = []
    checked = False
    for obj in lines:
        k = Fraction(obj["k"])
        d2, d1, d0 = ecmath.SUBFAMILY_QUADRATICS[index][1]
        den = (d2 * k + d1) * k + d0
        a = ecmath.subfamily_a(index, k) if den else None
        singular = a is None or a in (0, 1, -1) or a * a - 6 * a + 1 == 0
        if singular != bool(obj.get("singular")):
            problems.append(f"k = {k}: singular flag {obj.get('singular')} is wrong")
            continue
        if singular:
            if obj["passed"] or "S523" in obj:
                problems.append(f"k = {k}: singular record carries scores")
            continue
        if obj["passed"] != (obj["S523"] > need523 and obj["S1979"] > need1979):
            problems.append(f"k = {k}: passed flag disagrees with the scores")
        if not checked:  # one independent recount per request
            checked = True
            for bound in (523, 1979):
                own = ecmath.sieve_sum(a, bound)
                if not _rel_close(obj[f"S{bound}"], own, SIEVE_REL):
                    problems.append(f"k = {k}: S{bound} = {obj[f'S{bound}']!r}, recount gives {own!r}")
    return problems


def _height_estimate_problem(model, x: Fraction, obj: dict, doublings: int) -> list[str]:
    if obj["doublings"] != doublings or not 0 < obj["error_bound"] < 0.01:
        return [f"doublings/error_bound {obj['doublings']}/{obj['error_bound']} out of contract"]
    own = ecmath.height_estimate(model, x, 5)
    if abs(obj["height"] - own) > HEIGHT_ESTIMATE_TOL + obj["error_bound"]:
        return [f"height {obj['height']!r} is far from the own estimate {own!r}"]
    return []


def _height(req: Request, lines: list[dict]) -> list[str]:
    (obj,) = lines
    if req.argv in PUBLISHED:
        value, tol = PUBLISHED[req.argv]
        return [] if abs(obj["height"] - value) < tol else [f"published height missed: {obj['height']!r}"]
    model = ecmath.family_model(Fraction(option(req, "a")))
    return _height_estimate_problem(model, Fraction(option(req, "x")), obj, 8)


def _lib_height(req: Request, lines: list[dict]) -> list[str]:
    (obj,) = lines
    model = tuple(Fraction(c) for c in req.argv[1].split(","))
    x = Fraction(req.argv[2].split(",")[0])
    return _height_estimate_problem(model, x, obj, int(req.argv[3]))


def _regulator(req: Request, lines: list[dict]) -> list[str]:
    (obj,) = lines
    if obj["points"] != 2:
        return [f"points = {obj['points']}"]
    if req.argv in PUBLISHED:
        value, tol = PUBLISHED[req.argv]
        ok = abs(obj["regulator"] - value) < tol and obj["independent"] is True
        return [] if ok else [f"published regulator missed: {obj['regulator']!r}"]
    if "dependent" in req.facts and (abs(obj["regulator"]) > REGULATOR_ABS
                                     or obj["independent"] is not False):
        return [f"dependent pair reported regulator {obj['regulator']!r}"]
    return []


def _canonical(sides: tuple[int, ...]) -> tuple[int, ...]:
    variants = []
    for seq in (sides, sides[::-1]):
        variants += [seq[i:] + seq[:i] for i in range(4)]
    return min(variants)


def _n_ratio(a: int, b: int, c: int, d: int) -> Fraction | None:
    triple = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
    root = math.isqrt(triple)
    return Fraction((a + c) * root, 4 * a * b * c * d) if root * root == triple else None


def _search(req: Request, lines: list[dict]) -> list[str]:
    max_side = int(option(req, "max-side"))
    problems = []
    previous = None
    for obj in lines:
        sides = tuple(obj["sides"])
        a, b, c, d = sides
        order_key = (sum(sides), sides)
        if (max(sides) > max_side or min(sides) < 1 or a + c != b + d
                or math.gcd(*sides) != 1 or _canonical(sides) != sides):
            problems.append(f"{sides}: not a canonical Pitot quadruple within {max_side}")
        elif _n_ratio(*sides) != Fraction(obj["N"]):
            problems.append(f"{sides}: N = {obj['N']}, recomputed {_n_ratio(*sides)}")
        if previous is not None and order_key <= previous:
            problems.append(f"{sides}: out of order or duplicated")
        previous = order_key
    return problems


def _quad(req: Request, lines: list[dict]) -> list[str]:
    (obj,) = lines
    sides = [int(s) for s in option(req, "sides").split(",")]
    a, b, c, d = sides
    ratio = Fraction(a, d)
    u, v = Fraction(obj["u"]), Fraction(obj["v"])
    ok = (
        [int(s) for s in obj["sides"]] == sides
        and Fraction(obj["N"]) == _n_ratio(*sides)
        and Fraction(obj["s"]) == a + c
        and Fraction(obj["a"]) == ratio
        and ecmath.on_curve(ecmath.family_model(ratio), (u, v))
    )
    return [] if ok else [f"quad {sides}: output disagrees with the recomputation"]


def _curve(req: Request, lines: list[dict]) -> list[str]:
    (obj,) = lines
    a = Fraction(option(req, "a"))
    model = ecmath.family_model(a)
    A, B, _ = model
    disc = ecmath.family_discriminant(a)
    c4 = 16 * A * A - 48 * B
    problems = []
    if (Fraction(obj["a"]), Fraction(obj["A"]), Fraction(obj["B"])) != (a, A, B):
        problems.append("a/A/B differ from the family formula")
    if Fraction(obj["discriminant"]) != disc or Fraction(obj["j"]) != c4 ** 3 / disc:
        problems.append("discriminant or j differs from the closed form")
    torsion = obj["torsion"]
    order = torsion["order"]
    bound = ecmath.torsion_bound(A, B)
    if order not in ecmath.MAZUR_ORDERS or bound % order or order % 8:
        problems.append(f"torsion order {order} is not in Mazur's list, a multiple of 8, "
                        f"and a divisor of {bound}")
    shape = torsion["shape"]
    if shape not in (f"Z/{order}", f"Z/2xZ/{order // 2}") or not isinstance(torsion["proven"], bool):
        problems.append(f"torsion shape {shape} does not fit order {order}")
    points = [P for P in torsion["generators"]] + [t["point"] for t in obj["torsion_points"]]
    if any(P != "infinity" and not ecmath.on_curve(model, tuple(map(Fraction, P))) for P in points):
        problems.append("a listed torsion point is off the curve")
    full = ecmath.is_rational_square(a * a - 6 * a + 1)
    if obj["full_two_torsion"] is not full:
        problems.append("full_two_torsion flag is wrong")
    if "product-torsion" in req.facts and (shape, order, full) != ("Z/2xZ/8", 16, True):
        problems.append(f"product-torsion parameter gave {shape}")
    return problems


ORACLES = {
    "sieve": _sieve,
    "height": _height,
    "lib-height": _lib_height,
    "regulator": _regulator,
    "search": _search,
    "quad": _quad,
    "curve": _curve,
}
