"""Bicentric-quadrilateral geometry over exact rationals.

A quadrilateral with sides a, b, c, d (cyclic order) that has both an
incircle and a circumcircle satisfies a + c = b + d and carries the
radius ratio

    N = R/r = s / (4abcd) * sqrt((ab+cd)(ac+bd)(ad+bc)),   s = a + c.

This module computes N exactly, maps quadrilaterals with rational N to
rational points on the family curve (and back), builds the isosceles
trapezoid family, and searches integer-sided quadrilaterals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import rational_sqrt, worker_count
from .curves import Point
from .errors import (
    IrrationalN,
    NotPitot,
    NotRealizable,
    OutOfRange,
    PointNotOnCurve,
    ZeroU,
)
from .family import family_curve


@dataclass(frozen=True)
class Quadrilateral:
    """Four strictly positive rational side lengths in cyclic order."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = Fraction(getattr(self, name))
            if value <= 0:
                raise ValueError(f"side {name} = {value} must be positive")
            object.__setattr__(self, name, value)

    @property
    def sides(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"Quadrilateral({self.a}, {self.b}, {self.c}, {self.d})"


@dataclass(frozen=True)
class BicentricData:
    """Exact derived quantities of a bicentric quadrilateral.

    n is the radius ratio when rational, None when irrational (n_sq is
    always exact).  n_sq >= 2 always, with equality only for the square.
    """

    s: Fraction
    area_sq: Fraction
    circum_sq: Fraction
    in_sq: Fraction
    n_sq: Fraction
    n: Fraction | None


def bicentric_data(quad: Quadrilateral) -> BicentricData:
    """Validate the incircle condition a + c = b + d and compute the exact
    squared radii and their ratio."""
    a, b, c, d = quad.sides
    if a + c != b + d:
        raise NotPitot(f"a + c = {a + c} but b + d = {b + d}")
    s = a + c
    area_sq = a * b * c * d
    triple = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
    circum_sq = triple / (16 * area_sq)
    in_sq = area_sq / (s * s)
    n_sq = circum_sq / in_sq
    return BicentricData(
        s=s,
        area_sq=area_sq,
        circum_sq=circum_sq,
        in_sq=in_sq,
        n_sq=n_sq,
        n=rational_sqrt(n_sq),
    )


def n_ratio(quad: Quadrilateral) -> Fraction:
    """Exact rational N = R/r; raises IrrationalN when it is not rational."""
    data = bicentric_data(quad)
    if data.n is None:
        raise IrrationalN(f"N^2 = {data.n_sq} is not a rational square")
    return data.n


def semiperimeter_quartic(a: Fraction, s: Fraction) -> Fraction:
    """The value t^2 for a quadrilateral normalized to d = 1: the quartic in
    s whose square root makes N rational."""
    a, s = Fraction(a), Fraction(s)
    return (
        (a + 1) ** 2 * s ** 4
        - 2 * (a + 1) ** 3 * s ** 3
        + (a ** 4 + 8 * a ** 3 + 10 * a ** 2 + 8 * a + 1) * s * s
        - 4 * a * (a + 1) * (a * a + a + 1) * s
        + 4 * a * a * (a * a + 1)
    )


def quad_to_point(quad: Quadrilateral) -> tuple[Fraction, Fraction, Fraction]:
    """Map a quadrilateral with rational N to (a, u, v) with (u, v) on the
    family curve at the normalized parameter a.

    Normalizes so d = 1, takes the positive square root t of the quartic,
    and applies the birational map; (u, -v) is the mirror image point.
    """
    data = bicentric_data(quad)
    if data.n is None:
        raise IrrationalN(f"N^2 = {data.n_sq} is not a rational square")
    a = quad.a / quad.d
    s = data.s / quad.d
    t = rational_sqrt(semiperimeter_quartic(a, s))
    assert t is not None  # rational N makes the quartic a square
    u = -2 * (
        a ** 3 * (s - 2)
        - a * a * (s * s - 3 * s + 2)
        - a * (2 * s * s - 3 * s + 2 + t)
        - s * s
        + s
        - t
    )
    v = 2 * (a + 1) * (
        2 * s ** 3 * (a + 1) ** 2
        - 3 * s * s * (a + 1) ** 3
        + 2 * s * t * (a + 1)
        + s * (a ** 4 + 8 * a ** 3 + 10 * a ** 2 + 8 * a + 1)
        - t * (a + 1) ** 2
        - 2 * a * (a + 1) * (a * a + a + 1)
    )
    family_curve(a).require(Point(u, v))
    return a, u, v


def point_to_semiperimeter(a: Fraction, u: Fraction, v: Fraction) -> Fraction:
    """s = (u(a+1)^2 + v) / (2u(a+1)) for a point (u, v) on the family curve."""
    a, u, v = Fraction(a), Fraction(u), Fraction(v)
    curve = family_curve(a)
    if not curve.contains(Point(u, v)):
        raise PointNotOnCurve(f"({u}, {v}) is not on the curve at a = {a}")
    if u == 0:
        raise ZeroU("the semiperimeter map has a pole at u = 0")
    return (u * (a + 1) ** 2 + v) / (2 * u * (a + 1))


def point_to_quad(a: Fraction, u: Fraction, v: Fraction) -> Quadrilateral:
    """Recover the integer-scaled quadrilateral (a, s-1, s-a, 1) from a curve
    point, when all four sides come out positive."""
    a = Fraction(a)
    s = point_to_semiperimeter(a, u, v)
    sides = {"a": a, "b": s - 1, "c": s - a, "d": Fraction(1)}
    for name, value in sides.items():
        if value <= 0:
            raise NotRealizable(name, value)
    scale = lcm(*(side.denominator for side in sides.values()))
    ints = [int(side * scale) for side in sides.values()]
    g = gcd(*ints)
    return Quadrilateral(*(n // g for n in ints))


def trapezoid(k: Fraction) -> tuple[Quadrilateral, Fraction]:
    """The isosceles trapezoid with legs k^2+1, parallel sides 2-2k and
    2k^2+2k, and its exact rational radius ratio; valid for 0 < k < 1."""
    k = Fraction(k)
    if not 0 < k < 1:
        raise OutOfRange(f"k = {k} is outside (0, 1)")
    quad = Quadrilateral(k * k + 1, 2 - 2 * k, k * k + 1, 2 * k * k + 2 * k)
    # both factors flip sign on (0, 1); the ratio is positive
    n = (k * k + 1) * (k * k - 2 * k - 1) / (4 * k * (k * k - 1))
    return quad, n


# ----------------------------------------------------------------------
# integer search

# quadratic-residue tables for a cheap perfect-square prefilter
_SQ_MOD_64 = frozenset((i * i) % 64 for i in range(64))
_SQ_MOD_63 = frozenset((i * i) % 63 for i in range(63))
_SQ_MOD_65 = frozenset((i * i) % 65 for i in range(65))


def _is_square(n: int) -> bool:
    if n % 64 not in _SQ_MOD_64:
        return False
    if n % 63 not in _SQ_MOD_63:
        return False
    if n % 65 not in _SQ_MOD_65:
        return False
    r = isqrt(n)
    return r * r == n


def _canonical(sides: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Least representative under rotation, reflection and scaling."""
    g = gcd(*sides)
    t = tuple(side // g for side in sides)
    variants = []
    for seq in (t, t[::-1]):
        for i in range(4):
            variants.append(seq[i:] + seq[:i])
    return min(variants)


def search_quads_range(
    a_lo: int, a_hi: int, max_side: int
) -> set[tuple[int, int, int, int]]:
    """Canonical integer quadruples with first side in [a_lo, a_hi) whose
    radius ratio is rational.  Worker for search_quads."""
    hits: set[tuple[int, int, int, int]] = set()
    for a in range(a_lo, a_hi):
        for b in range(a, max_side + 1):  # canonical form has a = min side
            for c in range(a, max_side + 1):
                d = a + c - b
                if d < a or d > max_side:
                    continue
                triple = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
                if _is_square(triple):
                    hits.add(_canonical((a, b, c, d)))
    return hits


def search_quads(max_side: int, jobs: int = 1) -> list[tuple[Quadrilateral, Fraction]]:
    """All integer-sided quadrilaterals with sides <= max_side, incircle
    condition satisfied and rational N, deduplicated under rotation,
    reflection and scaling; sorted by perimeter then lexicographically.
    jobs > 1 spreads the rows over that many processes, at most one per CPU."""
    if max_side < 1:
        raise ValueError("max_side must be >= 1")
    workers = worker_count(jobs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        bounds = list(range(1, max_side + 2))
        chunks = [
            (bounds[i], bounds[min(i + 8, len(bounds) - 1)], max_side)
            for i in range(0, len(bounds) - 1, 8)
        ]
        hits: set[tuple[int, int, int, int]] = set()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_search_chunk, chunks):
                hits |= part
    else:
        hits = search_quads_range(1, max_side + 1, max_side)
    results = []
    for sides in sorted(hits, key=lambda t: (sum(t), t)):
        quad = Quadrilateral(*sides)
        results.append((quad, n_ratio(quad)))
    return results


def _search_chunk(args: tuple[int, int, int]) -> set[tuple[int, int, int, int]]:
    return search_quads_range(*args)
