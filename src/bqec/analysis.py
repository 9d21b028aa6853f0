"""Real-valued analytics over exact points: heights, regulators, sieve scores.

Canonical heights are computed as the doubling limit h(2^n P) / 4^n by one
exact integer x-only doubling loop (the b-invariant duplication formula),
run on the integral model for AB-form curves and on the given model
otherwise, with a single float conversion at the end.  h is the log height
of x, so the value is twice Silverman's normalisation of the canonical
height.  Each step's numerator and denominator are quartic forms in the
coprime pair (U, V), so their gcd divides the forms' resultant, one
integer per model (about 400 bits for the published rank-2 pair).  The
gcd is found modulo it, never between the full numerator and denominator
(5 * 10^5 digits for the pair's sum after 8 doublings), and is exact.
The only approximation is the truncation of the limit; the reported
error_bound, C / 4^n with C the log size of that model's discriminant,
is an estimate of it, not a proven bound.
Sieve scores follow the convention: natural logarithm, primes p <= 3 and
primes of bad reduction (on the integral model) skipped.  Each #E(F_p) is
an exact count read from a cached per-prime table of square-root counts
(Curve.count_points_mod_p), so a score costs O(sum of p) lookups and
prime bounds above curves.PRIME_CAP are refused.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import SMALL_PRIMES, digits10, divisors_bounded, factorize, map_jobs, rational_sqrt
from .curves import INFINITY, PRIME_CAP, Curve, CurvePoint, Point
from .errors import (
    BadPrime,
    BadReduction,
    DigitCapExceeded,
    InfinityPoint,
    SingularParameter,
    SizeCapExceeded,
)
from .family import SIEVE_THRESHOLDS, family_curve, subfamily

DIGIT_CAP_ENV = "BQEC_DIGIT_CAP"
DEFAULT_DIGIT_CAP = 10 ** 6
# The largest cap sys.set_int_max_str_digits accepts (a C int).
_MAX_DIGIT_CAP = 2 ** 31 - 1

_DEFAULT_THRESHOLDS = {523: 10.0, 1979: 14.0}


def digit_cap() -> int:
    """Decimal-digit cap on exact coordinates (env BQEC_DIGIT_CAP overrides).

    Raises ValueError when the variable is set to anything but an integer
    in 1 .. 2^31 - 1.
    """
    value = os.environ.get(DIGIT_CAP_ENV)
    if not value:
        return DEFAULT_DIGIT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if not 1 <= cap <= _MAX_DIGIT_CAP:
        raise ValueError(f"{DIGIT_CAP_ENV}={value!r} is not an integer in 1..{_MAX_DIGIT_CAP}")
    return cap


def naive_height(P: CurvePoint) -> float:
    """log max(|numerator|, denominator) of the x-coordinate."""
    if P is INFINITY:
        raise InfinityPoint("naive height needs an affine point")
    return math.log(max(abs(P.x.numerator), P.x.denominator))


@dataclass(frozen=True)
class HeightResult:
    value: float
    doublings_used: int
    error_bound: float


def canonical_height(curve: Curve, P: CurvePoint, doublings: int = 8) -> HeightResult:
    """Canonical height h(2^n P) / 4^n with exact x-only doubling.

    h is the log height of x, so the limit is twice Silverman's h-hat.
    AB-form curves are doubled on their integral model, other models as
    given.  Each step divides the new x = num/den by gcd(num, den), found
    as gcd(gcd(num mod R, R), den) with R the resultant of the two forms
    (_doubling_resultant), which the gcd divides.  error_bound is the
    estimate C / 4^n, with C the log size of that model's discriminant;
    it is not a proven bound.  Exactly 0 (with error bound 0) when some
    2^k P hits infinity, i.e. for 2-power torsion.  Raises
    DigitCapExceeded if coordinates outgrow the digit cap, and ValueError
    when the requested doublings leave an error bound above 0.01.
    """
    if P is INFINITY:
        raise InfinityPoint("canonical height needs an affine point")
    curve.require(P)
    if not 1 <= doublings <= 10:
        raise ValueError("doublings must be between 1 and 10")
    cap = digit_cap()

    if curve.is_ab_form:
        model, lam = curve.integral_model()
        x = P.x * lam * lam
    else:
        model, x = curve, P.x
    disc = model.discriminant
    constant = math.log(max(abs(disc.numerator), disc.denominator, 2))
    b2, b4, b6, _ = model.b_invariants
    D = math.lcm(b2.denominator, b4.denominator, b6.denominator)
    c2, c4, c6 = (int(b * D) for b in (b2, b4, b6))
    R = _doubling_resultant(D, c2, c4, c6)
    U, V = x.numerator, x.denominator
    for step in range(doublings):
        # x(2P) = ((2x^2 - b4)^2 - b6 (8x + b2)) / (4 (4x^3 + b2 x^2 + 2 b4 x + b6))
        # at x = U/V, b_i = c_i/D; a zero denominator means 2y + a1 x + a3 = 0,
        # so the next double is the identity
        UU, VV = U * U, V * V
        num = (2 * D * UU - c4 * VV) ** 2 - c6 * V * VV * (8 * D * U + c2 * V)
        den = 4 * D * V * ((4 * D * U + c2 * V) * UU + 2 * c4 * U * VV + c6 * V * VV)
        if den == 0:
            return HeightResult(0.0, step + 1, 0.0)
        # U and V are coprime, so gcd(num, den) divides R: these two small
        # gcds give exactly gcd(num, den)
        g = gcd(num % R, R)
        g = gcd(g, den % g)
        U, V = num // g, den // g
        if V < 0:
            U, V = -U, -V
        if digits10(U) > cap or digits10(V) > cap:
            raise DigitCapExceeded(
                f"x-coordinate exceeded {cap} digits after {step + 1} doublings"
            )
    value = math.log(max(abs(U), V)) / 4 ** doublings

    error_bound = constant / 4 ** doublings
    if error_bound >= 0.01:
        raise ValueError(
            f"error bound {error_bound:.3g} at {doublings} doublings is too "
            "coarse; increase doublings"
        )
    return HeightResult(value, doublings, error_bound)


def _doubling_resultant(D: int, c2: int, c4: int, c6: int) -> int:
    """Resultant of the doubling loop's num and den as binary quartics in
    (U, V): 4096 D^8 q^2 = 2^16 D^16 Delta^2, with Delta the discriminant
    of the model whose b-invariants are c2/D, c4/D, c6/D.  Positive for a
    nonsingular model."""
    q = (108 * D * D * c6 * c6 - 36 * D * c2 * c4 * c6 + 32 * D * c4 ** 3
         + c2 ** 3 * c6 - c2 * c2 * c4 * c4)
    return 4096 * D ** 8 * q * q


def _height_value(curve: Curve, P: CurvePoint, doublings: int) -> float:
    if P is INFINITY:
        return 0.0
    return canonical_height(curve, P, doublings).value


def regulator(curve: Curve, points, doublings: int = 8) -> float:
    """Determinant of the Gram matrix of the canonical-height pairing
    <P, Q> = (h(P+Q) - h(P) - h(Q)) / 2."""
    points = list(points)
    heights = [_height_value(curve, P, doublings) for P in points]
    n = len(points)
    gram = [[0.0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = heights[i]
    for i in range(n):
        for j in range(i + 1, n):
            pair_sum = _height_value(curve, curve.add(points[i], points[j]), doublings)
            gram[i][j] = gram[j][i] = (pair_sum - heights[i] - heights[j]) / 2
    return _det(gram)


def _det(matrix: list[list[float]]) -> float:
    """Gaussian elimination with partial pivoting; matrices here are tiny."""
    m = [row[:] for row in matrix]
    n = len(m)
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for row in range(col + 1, n):
            factor = m[row][col] / m[col][col]
            for k in range(col, n):
                m[row][k] -= factor * m[col][k]
    return det


# A regulator above this counts as evidence of independence.
INDEPENDENCE_TOL = 1e-4


def is_probably_independent(curve: Curve, points, doublings: int = 8,
                            tol: float = INDEPENDENCE_TOL) -> bool:
    """True when the regulator of the points exceeds tol."""
    return regulator(curve, points, doublings) > tol


# ----------------------------------------------------------------------
# sieve scores

def mestre_nagao_sums(curve: Curve, bounds) -> dict[int, float]:
    """Partial sums sum_{p <= n} (1 - (p-1)/#E(F_p)) log p at each bound.

    One walk over SMALL_PRIMES that stops at the largest bound; p <= 3 and
    bad primes skipped.  Raises SizeCapExceeded, before any counting, for a
    bound above PRIME_CAP.
    """
    bounds = sorted(set(int(b) for b in bounds))
    if not bounds:
        return {}
    if bounds[-1] > PRIME_CAP:
        raise SizeCapExceeded(f"prime bound {bounds[-1]} exceeds the cap {PRIME_CAP}")
    sums: dict[int, float] = {}
    total = 0.0
    idx = 0
    for p in SMALL_PRIMES[2:]:  # from 5: p <= 3 is skipped
        while idx < len(bounds) and p > bounds[idx]:
            sums[bounds[idx]] = total
            idx += 1
        if idx == len(bounds):
            break
        try:
            count = curve.count_points_mod_p(p)
        except (BadPrime, BadReduction):
            continue
        total += (1 - (p - 1) / count) * math.log(p)
    for bound in bounds[idx:]:  # at or past the last prime below PRIME_CAP
        sums[bound] = total
    return sums


def mestre_nagao(curve: Curve, bound: int) -> float:
    """The sieve score S(bound) = sum_{p <= bound} (1 - (p-1)/#E(F_p)) log p."""
    return mestre_nagao_sums(curve, [bound])[bound]


@dataclass(frozen=True, eq=False)
class SieveRecord:
    subfamily: int
    k: Fraction
    sums: dict[int, float]
    passed: bool
    singular: bool = False


def sieve(subfamily_index: int, k_values, thresholds: dict[int, float] | None = None,
          jobs: int = 1) -> list[SieveRecord]:
    """Score the subfamily members at the given k values.

    thresholds maps prime bounds to required scores; defaults are the
    per-subfamily shipped values.  Output order matches input order;
    singular parameters produce flagged records rather than failures.
    The k values are spread over processes by arith.map_jobs.
    """
    if thresholds is None:
        thresholds = SIEVE_THRESHOLDS.get(subfamily_index, _DEFAULT_THRESHOLDS)
    args = [(subfamily_index, Fraction(k), dict(thresholds)) for k in k_values]
    return map_jobs(_sieve_one, args, jobs)


def _sieve_one(arg: tuple[int, Fraction, dict[int, float]]) -> SieveRecord:
    index, k, thresholds = arg
    try:
        instance = subfamily(index, k)
    except SingularParameter:
        return SieveRecord(index, k, {}, passed=False, singular=True)
    curve = family_curve(instance.a)
    sums = mestre_nagao_sums(curve, thresholds.keys())
    passed = all(sums[bound] > need for bound, need in thresholds.items())
    return SieveRecord(index, k, sums, passed=passed)


# ----------------------------------------------------------------------
# divisor-shaped point search

def point_search(curve: Curve, numerator_bound: int,
                 max_divisors: int = 10 ** 4) -> tuple[list[Point], bool]:
    """Search an integral AB-form model for points with divisor-shaped x.

    Candidates are x = +-d m^2 / e^2 with d a squarefree divisor of B and
    coprime m, e <= numerator_bound (squares fold into m^2, so squarefree
    divisors lose nothing).  Returns the points found, both y signs, plus
    a flag set when the divisor enumeration was truncated.
    """
    A, B = curve.A, curve.B
    if A.denominator != 1 or B.denominator != 1:
        raise ValueError("point_search needs an integral model")
    squarefree = {p: 1 for p in factorize(B.numerator)}
    divisors, truncated = divisors_bounded(squarefree, max_count=max_divisors)
    found: set[Point] = {Point(0, 0)}
    for d in divisors:
        for e in range(1, numerator_bound + 1):
            for m in range(1, numerator_bound + 1):
                if gcd(m, e) != 1:
                    continue
                base = Fraction(d * m * m, e * e)
                for x in (base, -base):
                    y = rational_sqrt(x ** 3 + A * x * x + B * x)
                    if y is None:
                        continue
                    found.add(Point(x, y))
                    if y != 0:
                        found.add(Point(x, -y))
    return sorted(found, key=lambda P: (P.x, P.y)), truncated
