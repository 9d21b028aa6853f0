"""Bicentric-quadrilateral geometry over exact rationals.

A quadrilateral with sides a, b, c, d (cyclic order) that has both an
incircle and a circumcircle satisfies a + c = b + d and carries the
radius ratio

    N = R/r = s / (4abcd) * sqrt((ab+cd)(ac+bd)(ad+bc)),   s = a + c.

This module computes N exactly, maps quadrilaterals with rational N to
rational points on the family curve (and back), builds the isosceles
trapezoid family, and searches integer-sided quadrilaterals.

The search fixes the least side a and walks b <= d only, since swapping b
and d reflects the quadrilateral.  For each (a, b) it ANDs one bitset over c
per small modulus m, with bit c set when the triple (ab+cd)(ac+bd)(ad+bc) is
a square modulo m, and tests only the surviving c exactly with isqrt.  A
non-square modulo m is not a square, so the masks never drop a hit.  The
moduli follow from the size alone: ten up to 31 always, and 37-47 only for
searches large enough to repay their tables.  The whole search runs in one
process; at the 2000 cap it takes about 3 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import cycle
from math import gcd, isqrt, lcm
from operator import and_

from .arith import rational_sqrt
from .curves import Point
from .errors import (
    IrrationalN,
    NotPitot,
    NotRealizable,
    OutOfRange,
    PointNotOnCurve,
    SizeCapExceeded,
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

# Largest max_side that search_quads accepts.  The search is O(max_side^3):
# search-quads --max-side 2000 takes about 3 s on one core of a 2-core host.
MAX_SIDE_CAP = 2000

# Moduli of the residue masks, chosen by timing.  Over the c of a search at
# max side 248, 2, 4 and 8 remove none, 16 removes 13%, 9 no more than 3 and
# 25 more than 5.  Each prime past 31 roughly halves the candidates left, but
# its mask table costs m^3 steps (28-58 ms, against about 48 ms for all ten
# before it), so _row_masks takes it only for a search large enough to repay
# that.
_MASK_MODULI = (3, 25, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _triple(a: int, b: int, c: int, d: int) -> int:
    """(ab+cd)(ac+bd)(ad+bc): the radius ratio is rational exactly when this
    is a square."""
    return (a * b + c * d) * (a * c + b * d) * (a * d + b * c)


@cache
def _mask_table(m: int) -> tuple[int, ...]:
    """Entry (a % m) * m + b % m has bit c (0 <= c < m) set when the triple
    of the sides (a, b, c, a + c - b) is a square modulo m."""
    square = [False] * m
    for x in range(m):
        square[x * x % m] = True
    return tuple(
        sum(1 << c for c in range(m) if square[_triple(a, b, c, a + c - b) % m])
        for a in range(m)
        for b in range(m)
    )


def _row_masks(max_side: int) -> list[tuple[int, list[list[int]]]]:
    """Each modulus m that a search up to max_side uses, with its cycles:
    entry r lists, for a % m == r and b running over r .. r + m - 1, the
    bitset of the table repeated along c and shifted so that bit j stands for
    c = 2b - a + j, for c up to max_side.  A modulus past 31 is used only from
    max_side 20m on (37 from 740, 47 from 940)."""
    rows = []
    for m in _MASK_MODULI:
        if m > 31 and max_side < 20 * m:
            continue
        spread = ((1 << (m * (max_side // m + 2))) - 1) // ((1 << m) - 1)  # a bit every m places
        table = _mask_table(m)
        rows.append((m, [[(table[r * m + b % m] * spread) >> ((2 * b - r) % m) for b in range(r, r + m)]
                         for r in range(m)]))
    return rows


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
    """Canonical integer quadruples (a, b, c, d), a + c = b + d, with least
    side a in [a_lo, a_hi), every side <= max_side and rational radius ratio.
    The kernel of search_quads.

    Swapping b and d reflects the quadrilateral and keeps the triple, so only
    b <= d is searched: c runs over [2b - a, max_side].  For each (a, b) the
    residue masks of every modulus _row_masks picks for max_side are AND-ed,
    and only the c whose triple is a square modulo all of them get the exact
    isqrt test.
    """
    hits: set[tuple[int, int, int, int]] = set()
    masks = _row_masks(max_side)
    below = [(1 << n) - 1 for n in range(max_side + 2)]  # bits 0 .. n-1 set
    for a in range(a_lo, a_hi):
        b_hi = (a + max_side) // 2
        # row b - a holds bit j for c = 2b - a + j <= max_side
        rows = below[max_side + 1 - a:0:-2]
        for m, cycles in masks:
            rows = map(and_, rows, cycle(cycles[a % m]))
        for b, row in zip(range(a, b_hi + 1), rows):
            low_c = 2 * b - a
            while row:
                bit = row & -row
                row ^= bit
                c = low_c + bit.bit_length() - 1
                d = a + c - b
                triple = _triple(a, b, c, d)
                root = isqrt(triple)
                if root * root == triple:
                    hits.add(_canonical((a, b, c, d)))
    return hits


def search_quads(max_side: int) -> list[tuple[Quadrilateral, Fraction]]:
    """All integer-sided quadrilaterals with sides <= max_side, incircle
    condition satisfied and rational N, deduplicated under rotation,
    reflection and scaling; sorted by perimeter then lexicographically."""
    if max_side < 1:
        raise ValueError("max_side must be >= 1")
    if max_side > MAX_SIDE_CAP:
        raise SizeCapExceeded(f"max side {max_side} exceeds the cap {MAX_SIDE_CAP}")
    results = []
    for sides in sorted(search_quads_range(1, max_side + 1, max_side), key=lambda t: (sum(t), t)):
        quad = Quadrilateral(*sides)
        results.append((quad, n_ratio(quad)))
    return results
