"""Exact elliptic-curve arithmetic over Q.

Models are long Weierstrass equations

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

with Fraction coefficients.  The shape y^2 = x^3 + A*x^2 + B*x
(a1 = a3 = a6 = 0) is the one the quadrilateral correspondence lives on; it
gets a dedicated constructor, A/B accessors, integral models and point
counting.  Everything is a pure function of immutable values and no
operation ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import PRIME_CAP, factorize
from .errors import BadPrime, BadReduction, PointNotOnCurve, SingularCurve

_ROOT_COUNTS: dict[int, bytes] = {}


def _root_counts(p: int) -> bytes:
    """Entry r is the number of y in F_p with y^2 = r, for an odd prime p."""
    table = _ROOT_COUNTS.get(p)
    if table is None:
        counts = bytearray(p)
        counts[0] = 1
        for y in range(1, (p + 1) // 2):
            counts[y * y % p] = 2
        table = bytes(counts)
        if p <= PRIME_CAP:  # all of them take about 5.8 MB
            _ROOT_COUNTS[p] = table
    return table


def _count_points(p: int, c2: int, c1: int, c0: int) -> int:
    """Points of Y^2 = 4x^3 + c2*x^2 + c1*x + c0 over F_p, infinity included."""
    roots = _root_counts(p)
    return 1 + sum([roots[(((4 * x + c2) * x + c1) * x + c0) % p] for x in range(p)])


class _Infinity:
    """The point at infinity (the group identity); a singleton."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class Point:
    """An affine point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


CurvePoint = Point | _Infinity


@dataclass(frozen=True)
class Curve:
    """A nonsingular Weierstrass model; construction rejects discriminant 0."""

    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)
    a4: Fraction = Fraction(0)
    a6: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.discriminant == 0:
            raise SingularCurve(f"singular model: {self}")

    @classmethod
    def from_ab(cls, A, B) -> "Curve":
        """The curve y^2 = x^3 + A*x^2 + B*x."""
        return cls(a2=Fraction(A), a4=Fraction(B))

    @property
    def is_ab_form(self) -> bool:
        return self.a1 == 0 and self.a3 == 0 and self.a6 == 0

    @property
    def A(self) -> Fraction:
        if not self.is_ab_form:
            raise ValueError("not a y^2 = x^3 + A*x^2 + B*x model")
        return self.a2

    @property
    def B(self) -> Fraction:
        if not self.is_ab_form:
            raise ValueError("not a y^2 = x^3 + A*x^2 + B*x model")
        return self.a4

    def __repr__(self) -> str:
        if self.is_ab_form:
            return f"Curve(y^2 = x^3 + ({self.a2})x^2 + ({self.a4})x)"
        return (
            f"Curve(y^2 + ({self.a1})xy + ({self.a3})y = "
            f"x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6}))"
        )

    # ------------------------------------------------------------------
    # invariants

    @cached_property
    def b_invariants(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    @cached_property
    def discriminant(self) -> Fraction:
        """Discriminant of the model as given (no minimalization)."""
        b2, b4, b6, b8 = self.b_invariants
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @cached_property
    def j_invariant(self) -> Fraction:
        b2, b4, _, _ = self.b_invariants
        c4 = b2 * b2 - 24 * b4
        return c4 ** 3 / self.discriminant

    # ------------------------------------------------------------------
    # group law

    def _residual(self, P: Point) -> Fraction:
        x, y = P.x, P.y
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
        return lhs - rhs

    def contains(self, P: CurvePoint) -> bool:
        """True iff P is the identity or satisfies the equation exactly."""
        return P is INFINITY or self._residual(P) == 0

    def require(self, P: CurvePoint) -> None:
        if not self.contains(P):
            raise PointNotOnCurve(f"{P} is not on {self}")

    def negate(self, P: CurvePoint) -> CurvePoint:
        if P is INFINITY:
            return INFINITY
        return Point(P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P: CurvePoint, Q: CurvePoint, check: bool = True) -> CurvePoint:
        """Chord-tangent sum with INFINITY as identity (full a1..a6 formulas)."""
        if check:
            self.require(P)
            self.require(Q)
        if P is INFINITY:
            return Q
        if Q is INFINITY:
            return P
        a1, a2, a3 = self.a1, self.a2, self.a3
        if P.x == Q.x:
            if P.y + Q.y + a1 * Q.x + a3 == 0:
                return INFINITY
            # same x and not opposite: tangent at P = Q
            x, y = P.x, P.y
            denom = 2 * y + a1 * x + a3
            lam = (3 * x * x + 2 * a2 * x + self.a4 - a1 * y) / denom
            nu = (-(x ** 3) + self.a4 * x + 2 * self.a6 - a3 * y) / denom
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
            nu = (P.y * Q.x - Q.y * P.x) / (Q.x - P.x)
        x3 = lam * lam + a1 * lam - a2 - P.x - Q.x
        y3 = -(lam + a1) * x3 - nu - a3
        return Point(x3, y3)

    def multiply(self, n: int, P: CurvePoint, check: bool = True) -> CurvePoint:
        """n*P by double-and-add; negative n negates first."""
        if check:
            self.require(P)
        if P is INFINITY or n == 0:
            return INFINITY
        if n < 0:
            n, P = -n, self.negate(P)
        result: CurvePoint = INFINITY
        addend: CurvePoint = P
        while n:
            if n & 1:
                result = self.add(result, addend, check=False)
            n >>= 1
            if n:
                addend = self.add(addend, addend, check=False)
        return result

    # ------------------------------------------------------------------
    # integral models and reduction mod p

    @cached_property
    def _integral_ab(self) -> tuple[int, int, int]:
        A, B = self.A, self.B
        exponents: dict[int, int] = {}
        for den, power in ((A.denominator, 2), (B.denominator, 4)):
            for prime, e in factorize(den).items():
                need = -(-e // power)  # ceil(e / power)
                exponents[prime] = max(exponents.get(prime, 0), need)
        lam = 1
        for prime, e in exponents.items():
            lam *= prime ** e
        A_int = A * lam * lam
        B_int = B * lam ** 4
        assert A_int.denominator == 1 and B_int.denominator == 1
        return A_int.numerator, B_int.numerator, lam

    def integral_model(self) -> tuple["Curve", int]:
        """Integer-coefficient model of an AB-form curve and the minimal scale.

        The scale lam is the least positive integer with lam^2*A and lam^4*B
        both integral; (x, y) -> (lam^2*x, lam^3*y) carries points over.
        """
        A_int, B_int, lam = self._integral_ab
        return Curve.from_ab(A_int, B_int), lam

    def count_points_mod_p(self, p: int) -> int:
        """#E(F_p) for an odd prime p of good reduction, in O(p) table lookups.

        The model is put in the shape Y^2 = 4x^3 + c2*x^2 + c1*x + c0 (Y =
        2y + a1*x + a3) and #E(F_p) = 1 + sum over x of the number of square
        roots of the right-hand side, read from a per-prime table.
        AB-form curves are counted on their integral model (c2, c1, c0 =
        4A, 4B, 0); general models are reduced coefficient-wise and use
        (b2, 2*b4, b6), which needs p > 3.
        """
        if self.is_ab_form:
            if p < 3:
                raise BadPrime(f"p = {p} is too small to count points")
            A_int, B_int, _ = self._integral_ab
            if (16 * B_int * B_int * (A_int * A_int - 4 * B_int)) % p == 0:
                raise BadReduction(f"p = {p} divides the integral-model discriminant")
            return _count_points(p, 4 * A_int % p, 4 * B_int % p, 0)

        if p <= 3:
            raise BadPrime(f"p = {p} is too small to reduce a general model")
        reduced = []
        for coeff in (self.a1, self.a2, self.a3, self.a4, self.a6):
            if coeff.denominator % p == 0:
                raise BadPrime(f"p = {p} divides a coefficient denominator")
            reduced.append(coeff.numerator * pow(coeff.denominator, -1, p) % p)
        if self.discriminant.numerator % p == 0:
            raise BadReduction(f"p = {p} divides the discriminant")
        a1, a2, a3, a4, a6 = reduced
        b2 = (a1 * a1 + 4 * a2) % p
        b4 = (2 * a4 + a1 * a3) % p
        b6 = (a3 * a3 + 4 * a6) % p
        return _count_points(p, b2, 2 * b4, b6)
