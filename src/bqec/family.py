"""The one-parameter curve family behind bicentric quadrilaterals.

For a rational parameter a (the normalized quadrilateral side), the curve

    y^2 = x^3 + (a^4 - 4a^3 - 2a^2 - 4a + 1) x^2 + 16 a^4 x

carries the quadrilateral correspondence.  This module builds those
curves, their standard torsion points, the two-isogenous companion
curve, eight rank-one subfamilies parametrized by k, the parameter map
coming from an auxiliary rank-two curve, geometric progressions of
x-coordinates, and the embedded reference tables used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import rational_sqrt
from .curves import INFINITY, Curve, CurvePoint, Point
from .errors import (
    ExcludedParameter,
    MapPole,
    NotASquare,
    PointNotOnCurve,
    SingularParameter,
)


def _check_parameter(a: Fraction) -> Fraction:
    a = Fraction(a)
    if a in (0, 1, -1) or a * a - 6 * a + 1 == 0:
        raise SingularParameter(f"a = {a} gives a singular curve")
    return a


def family_coefficients(a: Fraction) -> tuple[Fraction, Fraction]:
    a = Fraction(a)
    A = a ** 4 - 4 * a ** 3 - 2 * a ** 2 - 4 * a + 1
    B = 16 * a ** 4
    return A, B


def family_curve(a: Fraction) -> Curve:
    """The family curve at parameter a; raises SingularParameter off-domain."""
    a = _check_parameter(a)
    A, B = family_coefficients(a)
    return Curve.from_ab(A, B)


def family_discriminant(a: Fraction) -> Fraction:
    """Closed form 4096 a^8 (a+1)^2 (a-1)^4 (a^2 - 6a + 1)."""
    a = Fraction(a)
    return 4096 * a ** 8 * (a + 1) ** 2 * (a - 1) ** 4 * (a * a - 6 * a + 1)


def family_torsion_points(a: Fraction) -> list[tuple[Point, int]]:
    """The standard torsion points with their orders (both sign choices).

    One point of order 2 at (0,0), two of order 4 at x = 4a^2, and four of
    order 8 at x = 4a and x = 4a^3; all validated on the curve.
    """
    a = _check_parameter(a)
    curve = family_curve(a)
    points = [(Point(0, 0), 2)]
    for x, y, order in (
        (4 * a * a, 4 * a * a * (a - 1) ** 2, 4),
        (4 * a, 4 * a * (a * a - 1), 8),
        (4 * a ** 3, 4 * a ** 3 * (a * a - 1), 8),
    ):
        for sign in (1, -1):
            P = Point(x, sign * y)
            curve.require(P)
            points.append((P, order))
    return points


def has_full_two_torsion(a: Fraction) -> bool:
    """True iff a^2 - 6a + 1 is a rational square, i.e. the curve has three
    rational points of order 2."""
    a = _check_parameter(a)
    return rational_sqrt(a * a - 6 * a + 1) is not None


def product_torsion_parameter(r: Fraction) -> Fraction:
    """Parameter a = -(r+1)/(r(r-1)) whose curve has torsion Z/2 x Z/8.

    Valid for r outside {0, 1, -1}; every a with three rational two-torsion
    points arises this way.
    """
    r = Fraction(r)
    if r in (0, 1, -1):
        raise ExcludedParameter(f"r = {r} is outside the parametrization domain")
    return -(r + 1) / (r * (r - 1))


def product_torsion_parameter_from_slope(k: Fraction) -> Fraction:
    """Equivalent line-slope form a = 2(k+3)/(1-k^2); k = 2r - 1 recovers
    product_torsion_parameter(r)."""
    k = Fraction(k)
    if k in (1, -1):
        raise ExcludedParameter(f"k = {k} is outside the parametrization domain")
    return 2 * (k + 3) / (1 - k * k)


# ----------------------------------------------------------------------
# rank-one subfamilies

# a(k) = num(k)/den(k), quadratics stored as (c2, c1, c0)
_SUBFAMILY_A: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    1: ((1, -8, 11), (1, 0, -5)),
    2: ((1, 0, 12), (2, 0, -8)),
    3: ((0, -2, 3), (1, 0, -1)),
    4: ((0, -2, 0), (1, 0, -1)),
    5: ((1, -4, 5), (1, 0, -1)),
    6: ((0, -4, 4), (1, 0, 3)),
    7: ((-1, 0, -1), (0, 2, -2)),
    8: ((0, -2, 4), (1, 0, 1)),
}

_SUBFAMILY_X = {
    1: lambda a: Fraction(4),
    2: lambda a: 8 * a - 4,
    3: lambda a: a * (a + 1) ** 2,
    4: lambda a: 2 * a * (a * a + 1),
    5: lambda a: a * a + 4 * a - 1,
    6: lambda a: -4 * a ** 3 * (a - 2),
    7: lambda a: 2 * (a * a + 2 * a - 1),
    8: lambda a: a * a * (-a * a + 4 * a + 1),
}

SUBFAMILY_INDICES = tuple(sorted(_SUBFAMILY_A))


@dataclass(frozen=True)
class SubfamilyInstance:
    index: int
    k: Fraction
    a: Fraction
    x_candidate: Fraction
    point: Point


def _eval_quadratic(coeffs: tuple[int, int, int], k: Fraction) -> Fraction:
    c2, c1, c0 = coeffs
    return (c2 * k + c1) * k + c0


def subfamily_parameter(index: int, k: Fraction) -> Fraction:
    """The parameter a of subfamily `index` at k; raises SingularParameter
    when k lands on the subfamily's singular locus."""
    if index not in _SUBFAMILY_A:
        raise ValueError(f"subfamily index must be in {SUBFAMILY_INDICES}")
    k = Fraction(k)
    num_c, den_c = _SUBFAMILY_A[index]
    den = _eval_quadratic(den_c, k)
    if den == 0:
        raise SingularParameter(f"subfamily {index}: k = {k} is a pole of a(k)")
    a = _eval_quadratic(num_c, k) / den
    return _check_parameter(a)


def _rational_roots(c2: Fraction, c1: Fraction, c0: Fraction) -> list[Fraction]:
    if c2 == 0:
        if c1 == 0:
            return []
        return [Fraction(-c0, c1)]
    disc = c1 * c1 - 4 * c2 * c0
    root = rational_sqrt(disc)
    if root is None:
        return []
    return sorted({(-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)})


def singular_k_values(index: int) -> tuple[Fraction, ...]:
    """The rational k excluded from a subfamily: poles of a(k) and the k
    with a(k) in {0, 1, -1}, found by exact root extraction."""
    if index not in _SUBFAMILY_A:
        raise ValueError(f"subfamily index must be in {SUBFAMILY_INDICES}")
    (n2, n1, n0), (d2, d1, d0) = _SUBFAMILY_A[index]
    bad: set[Fraction] = set(_rational_roots(Fraction(d2), Fraction(d1), Fraction(d0)))
    for v in (0, 1, -1):
        bad.update(
            _rational_roots(
                Fraction(n2 - v * d2), Fraction(n1 - v * d1), Fraction(n0 - v * d0)
            )
        )
    return tuple(sorted(bad))


def subfamily(index: int, k: Fraction) -> SubfamilyInstance:
    """Build the subfamily member at k and its guaranteed rational point.

    The cubic at the row's x-candidate is a rational square by construction
    of the parametrization; a NotASquare here means a transcription fault.
    """
    k = Fraction(k)
    a = subfamily_parameter(index, k)
    curve = family_curve(a)
    x = _SUBFAMILY_X[index](a)
    y = rational_sqrt(x ** 3 + curve.A * x * x + curve.B * x)
    if y is None:
        raise NotASquare(
            f"subfamily {index} at k = {k}: cubic at x = {x} is not a square"
        )
    return SubfamilyInstance(index=index, k=k, a=a, x_candidate=x, point=Point(x, y))


def subfamily1_cleared(k: Fraction) -> tuple[Curve, Point]:
    """Denominator-cleared model of subfamily 1 and its rational point.

    Valid for k outside {1, 2, 3}.  Consistent with subfamily(1, k) up to
    the coordinate scaling that clears denominators (equal j-invariants).
    """
    k = Fraction(k)
    if k in (1, 2, 3):
        raise SingularParameter(f"subfamily 1 cleared model is singular at k = {k}")
    A = -2 * (
        k ** 8
        - 16 * k ** 7
        + 76 * k ** 6
        - 16 * k ** 5
        - 1226 * k ** 4
        + 5456 * k ** 3
        - 11348 * k ** 2
        + 11984 * k
        - 5167
    )
    B = (k * k - 8 * k + 11) ** 4 * (k * k - 5) ** 4
    curve = Curve.from_ab(A, B)
    P = Point((k * k - 5) ** 4, 16 * (k - 2) * (k * k - 4 * k + 5) * (k * k - 5) ** 4)
    curve.require(P)
    return curve, P


def subfamily1_singular_locus_value(k: Fraction) -> Fraction:
    """A(k)^2 - 4B(k) of the cleared subfamily-1 model, in factored form."""
    k = Fraction(k)
    return (
        -4096
        * (k - 1) ** 2
        * (k - 2) ** 4
        * (k - 3) ** 2
        * (k * k + 2 * k - 7)
        * (k * k - 10 * k + 17)
    )


# ----------------------------------------------------------------------
# the two-isogenous companion curve

def dual_curve(a: Fraction) -> Curve:
    """The companion curve y^2 = x^3 - 2A x^2 + (A^2 - 4B) x."""
    a = _check_parameter(a)
    A, B = family_coefficients(a)
    return Curve.from_ab(-2 * A, A * A - 4 * B)


def isogeny_to_dual(a: Fraction, P: CurvePoint) -> CurvePoint:
    """Degree-2 isogeny onto dual_curve(a): (x, y) -> (y^2/x^2, y(B - x^2)/x^2).

    The kernel {O, (0,0)} maps to INFINITY.  The image is checked against
    the companion curve equation.
    """
    a = _check_parameter(a)
    curve = family_curve(a)
    curve.require(P)
    if P is INFINITY or P.x == 0:
        return INFINITY
    B = curve.B
    x, y = P.x, P.y
    image = Point(y * y / (x * x), y * (B - x * x) / (x * x))
    target = dual_curve(a)
    if not target.contains(image):
        raise PointNotOnCurve(f"isogeny image {image} missed the companion curve")
    return image


# ----------------------------------------------------------------------
# geometric progressions of x-coordinates

def geometric_progression_points(a: Fraction) -> list[tuple[int, Point | None]]:
    """Points with x = 4a^i for i = 0..4, where they exist.

    i = 1, 2, 3 are always present (the torsion x-coordinates); i = 0 and
    i = 4 are present together, exactly when 5a^2 + 6a + 5 is a square.
    """
    a = _check_parameter(a)
    curve = family_curve(a)
    out: list[tuple[int, Point | None]] = []
    for i in range(5):
        x = 4 * a ** i
        y = rational_sqrt(x ** 3 + curve.A * x * x + curve.B * x)
        out.append((i, Point(x, y) if y is not None else None))
    return out


# ----------------------------------------------------------------------
# auxiliary rank-two curve feeding extra-point parameters

def auxiliary_curve() -> Curve:
    """The curve q^2 = p^3 + 7668 p + 361881 whose rational points produce
    parameters a for which x = -a^3 lifts to a point on the family curve."""
    return Curve(a4=Fraction(7668), a6=Fraction(361881))


def parameter_from_auxiliary_point(p: Fraction, q: Fraction) -> tuple[Fraction, Fraction]:
    """Map a point of the auxiliary curve to (a, b) with
    b^2 = a^4 - 5a^3 - 2a^2 - 20a + 1 (b returned nonnegative)."""
    p, q = Fraction(p), Fraction(q)
    aux = auxiliary_curve()
    aux.require(Point(p, q))
    if 12 * p - 819 == 0:
        raise MapPole(f"p = {p} is a pole of the parameter map")
    a = (15 * p + 2 * q + 1170) / (12 * p - 819)
    b = rational_sqrt(a ** 4 - 5 * a ** 3 - 2 * a ** 2 - 20 * a + 1)
    if b is None:
        raise NotASquare(f"quartic value at a = {a} is not a rational square")
    return a, b


# ----------------------------------------------------------------------
# embedded reference tables (verification corpora, exact data)

# r-values of the 26 published rank-3 curves with torsion Z/2 x Z/8 that the
# product_torsion_parameter map reaches.  Rank claims are published values,
# not re-proved here; only the torsion structure is verified.
RANK3_PRODUCT_TORSION_R: tuple[Fraction, ...] = tuple(
    Fraction(n, d)
    for n, d in (
        (12, 17),
        (47, 18),
        (133, 86),
        (201, 239),
        (299, 589),
        (247, 160),
        (281, 138),
        (281, 133),
        (439, 17),
        (569, 159),
        (923, 230),
        (247, 419),
        (200, 99),
        (337, 65),
        (1017, 352),
        (999, 76),
        (412, 697),
        (349, 230),
        (217, 425),
        (440, 217),
        (309, 470),
        (496, 319),
        (585, 391),
        (219, 313),
        (336, 191),
        (257, 287),
    )
)


@dataclass(frozen=True)
class SieveTableRow:
    subfamily: int
    k: Fraction
    note: str = ""


# Published high-rank specializations of the subfamilies ("rank 5" per the
# source; only sieve scores and torsion are reproduced here).  rank-window:
# the published rank is conditional (4 <= rank <= 5).  shared-curve: the two
# rows reduce to one and the same curve.
HIGH_RANK_SIEVE_ROWS: tuple[SieveTableRow, ...] = (
    SieveTableRow(1, Fraction(257, 134)),
    SieveTableRow(1, Fraction(311, 129)),
    SieveTableRow(4, Fraction(115, 28)),
    SieveTableRow(4, Fraction(301, 396)),
    SieveTableRow(4, Fraction(12, 233), note="rank-window"),
    SieveTableRow(5, Fraction(79, 50), note="shared-curve"),
    SieveTableRow(8, Fraction(113, 129), note="shared-curve"),
)

# Per-subfamily sieve thresholds: {prime bound: required score}.
SIEVE_THRESHOLDS: dict[int, dict[int, float]] = {
    1: {523: 10.0, 1979: 14.0},
    4: {523: 8.0, 1979: 10.0},
    5: {523: 10.0, 1979: 14.0},
    8: {523: 10.0, 1979: 14.0},
}

# The single minimal model the two shared-curve rows above reduce to.
SHARED_HIGH_RANK_CURVE = Curve(
    a1=Fraction(1),
    a4=Fraction(-304241169811532712979315990),
    a6=Fraction(2065986446448965089594679105215890328100),
)
