"""Orders of rational points and torsion-subgroup classification.

The classifier never claims more than it can certify.  It exhibits an
actual subgroup (from caller hints, exact two-torsion, and a bounded
divisor-shaped point search), bounds the torsion order by the gcd of
#E(F_p) over good primes 3 < p <= arith.PRIME_CAP (a curve with none is
refused with SizeCapExceeded), and marks the result proven only when the
exhibited group exhausts every order that bound and the short list of
torsion shapes possible over Q still allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import PRIME_CAP, SMALL_PRIMES, divisors_bounded, factorize, rational_sqrt
from .curves import INFINITY, Curve, CurvePoint, Point
from .errors import BadPrime, BadReduction, SizeCapExceeded

# Orders a rational torsion group can have: cyclic Z/n, or Z/2 x Z/2n of
# order 4n (n = 1..4).
MAZUR_CYCLIC_ORDERS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12})
MAZUR_PRODUCT_ORDERS = frozenset({4, 8, 12, 16})
MAX_FINITE_ORDER = 12
# Good primes the order bound reduces at, at most.
BOUND_PRIME_COUNT = 12
# The divisor-shaped search tries x = +-d for divisors d <= X_BOUND of the
# integral B, and at most MAX_DIVISORS of them.
X_BOUND = 10 ** 6
MAX_DIVISORS = 10 ** 4

_BOUND_PRIMES = SMALL_PRIMES[2:]  # 3 < p <= PRIME_CAP


@dataclass(frozen=True)
class TorsionStructure:
    """A classified torsion subgroup.

    shape is "Z/n" or "Z/2xZ/n"; order is the group order; bound is the
    divisibility bound the torsion order was checked against.  proven is
    True when no strictly larger group is compatible with the bound.
    """

    shape: str
    order: int
    generators: tuple[Point, ...]
    proven: bool
    bound: int


def point_order(curve: Curve, P: CurvePoint, check: bool = True) -> int | None:
    """Least n <= 12 with n*P = O, or None: order exceeds the rational
    maximum, hence P has infinite order over Q."""
    if P is INFINITY:
        return 1
    if check:
        curve.require(P)
    R: CurvePoint = P
    for n in range(2, MAX_FINITE_ORDER + 1):
        R = curve.add(R, P, check=False)
        if R is INFINITY:
            return n
    return None


def two_torsion_points(curve: Curve) -> list[Point]:
    """All rational points of order 2 on y^2 = x^3 + A*x^2 + B*x.

    Always contains (0, 0); the other two roots of x^2 + A*x + B join it
    exactly when A^2 - 4B is a rational square.  Length is 1 or 3.
    """
    A, B = curve.A, curve.B
    points = [Point(0, 0)]
    root = rational_sqrt(A * A - 4 * B)
    if root is not None and root != 0:
        points.append(Point((-A - root) / 2, 0))
        points.append(Point((-A + root) / 2, 0))
    points.sort(key=lambda P: P.x)
    return points


def torsion_order_bound(curve: Curve, prime_count: int = BOUND_PRIME_COUNT) -> int:
    """gcd of #E(F_p) over the first prime_count good primes 3 < p <= PRIME_CAP.

    The rational torsion order divides the result (torsion injects into
    E(F_p) at every odd prime of good reduction).  Raises SizeCapExceeded
    when no prime up to PRIME_CAP is good.
    """
    bound = 0
    used = 0
    for p in _BOUND_PRIMES:
        try:
            n = curve.count_points_mod_p(p)
        except (BadPrime, BadReduction):
            continue
        bound = gcd(bound, n)
        used += 1
        if used >= prime_count or bound == 1:
            return bound
    if bound == 0:
        raise SizeCapExceeded(f"no prime of good reduction up to {PRIME_CAP}")
    return bound


def _closure(curve: Curve, points: set[CurvePoint]) -> set[CurvePoint]:
    group: set[CurvePoint] = {INFINITY} | points
    while True:
        members = list(group)
        new = set()
        for P in members:
            for Q in members:
                R = curve.add(P, Q, check=False)
                if R not in group:
                    new.add(R)
        if not new:
            return group
        group |= new
        if len(group) > 16:
            raise RuntimeError("torsion closure exceeded order 16; non-torsion input?")


def _element_order(curve: Curve, P: CurvePoint) -> int:
    order = point_order(curve, P, check=False)
    if order is None:
        raise RuntimeError(f"{P} has infinite order inside a torsion closure")
    return order


def _sorted_affine(points) -> list[Point]:
    return sorted((P for P in points if isinstance(P, Point)), key=lambda P: (P.x, P.y))


def _classify(curve: Curve, group: set[CurvePoint]) -> tuple[str, int, tuple[Point, ...]]:
    n = len(group)
    if n == 1:
        return "Z/1", 1, ()
    orders = {P: _element_order(curve, P) for P in group}
    max_order = max(orders.values())
    gens_pool = _sorted_affine(P for P, o in orders.items() if o == max_order)
    if max_order == n:
        return f"Z/{n}", n, (gens_pool[0],)
    # not cyclic: over Q this forces Z/2 x Z/(n/2)
    if 2 * max_order != n:
        raise RuntimeError(f"group of order {n} with exponent {max_order} is impossible over Q")
    gen = gens_pool[0]
    span = {curve.multiply(k, gen, check=False) for k in range(max_order)}
    extra = _sorted_affine(P for P, o in orders.items() if o == 2 and P not in span)
    return f"Z/2xZ/{max_order}", n, (gen, extra[0])


def _possible_orders(bound: int, exact_two_torsion: int | None) -> set[int]:
    """Group orders compatible with the mod-p bound, the rational torsion
    classification, and (when known exactly) the rational two-torsion count."""
    divisors = {d for d in range(1, bound + 1) if bound % d == 0}
    if exact_two_torsion is None:
        allowed = MAZUR_CYCLIC_ORDERS | MAZUR_PRODUCT_ORDERS
    elif exact_two_torsion == 1:
        # exactly one rational point of order 2: cyclic of even order
        allowed = {d for d in MAZUR_CYCLIC_ORDERS if d % 2 == 0}
    elif exact_two_torsion == 3:
        allowed = set(MAZUR_PRODUCT_ORDERS)
    else:
        raise ValueError(f"impossible two-torsion count {exact_two_torsion}")
    return divisors & allowed


def _divisor_candidates(curve: Curve) -> list[Point]:
    """Divisor-shaped integral points on the integral model, mapped back.

    Torsion x-coordinates on the curves handled here divide the integral
    B coefficient, so candidates are x = +-d with d | B, |d| <= X_BOUND.
    """
    integral, lam = curve.integral_model()
    B_int = integral.B.numerator
    if B_int == 0:
        return []
    divisors, _ = divisors_bounded(factorize(B_int), bound=X_BOUND, max_count=MAX_DIVISORS)
    found = []
    A, B = integral.A, integral.B
    for d in divisors:
        for x in (Fraction(d), Fraction(-d)):
            y = rational_sqrt(x * x * x + A * x * x + B * x)
            if y is None:
                continue
            # (x, y) lives on the integral model; undo the scaling
            P = Point(x / lam ** 2, y / lam ** 3)
            found.append(P)
            if y != 0:
                found.append(Point(P.x, -P.y))
    return found


def torsion_subgroup(
    curve: Curve,
    hints: tuple[CurvePoint, ...] | list[CurvePoint] = (),
) -> TorsionStructure:
    """Classify the rational torsion subgroup.

    Combines the mod-p order bound with whatever torsion points can be
    exhibited: validated caller hints, the exact two-torsion (AB form),
    and a bounded divisor-structured search on the integral model (AB
    form).  General models use hints only.
    """
    for P in hints:
        curve.require(P)
    bound = torsion_order_bound(curve)

    exact_t2: int | None = None
    seeds: set[CurvePoint] = set()
    if curve.is_ab_form:
        t2 = two_torsion_points(curve)
        exact_t2 = len(t2)
        seeds.update(t2)
    for P in hints:
        if point_order(curve, P, check=False) is not None:
            seeds.add(P)
            seeds.add(curve.negate(P))

    def build(with_search: bool) -> tuple[str, int, tuple[Point, ...], bool]:
        pool = set(seeds)
        if with_search and curve.is_ab_form:
            for P in _divisor_candidates(curve):
                if point_order(curve, P, check=False) is not None:
                    pool.add(P)
        group = _closure(curve, pool)
        shape, order, gens = _classify(curve, group)
        proven = order == max(_possible_orders(bound, exact_t2))
        return shape, order, gens, proven

    shape, order, gens, proven = build(with_search=False)
    if not proven:
        shape, order, gens, proven = build(with_search=True)
    return TorsionStructure(shape=shape, order=order, generators=gens, proven=proven, bound=bound)
