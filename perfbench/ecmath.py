"""Elliptic-curve arithmetic written for the benchmark alone.

The input generator and the output oracles use these functions instead of
bqec, so that an oracle never shares code with the program it checks.
Models are y^2 = x^3 + a2*x^2 + a4*x + a6 (a1 = a3 = 0) over Q, given as a
tuple (a2, a4, a6) of Fractions; a point is a tuple (x, y) of Fractions and
None is the identity.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

AUX_MODEL = (Fraction(0), Fraction(7668), Fraction(361881))
AUX_GENERATOR = (Fraction(-38), Fraction(125))

# a(k) = num(k)/den(k) of the eight rank-one subfamilies, quadratics as
# (c2, c1, c0); transcribed from the source paper's table.
SUBFAMILY_QUADRATICS = {
    1: ((1, -8, 11), (1, 0, -5)),
    2: ((1, 0, 12), (2, 0, -8)),
    3: ((0, -2, 3), (1, 0, -1)),
    4: ((0, -2, 0), (1, 0, -1)),
    5: ((1, -4, 5), (1, 0, -1)),
    6: ((0, -4, 4), (1, 0, 3)),
    7: ((-1, 0, -1), (0, 2, -2)),
    8: ((0, -2, 4), (1, 0, 1)),
}

# Orders of rational torsion groups (Mazur): Z/n and Z/2 x Z/2n.
MAZUR_ORDERS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16})


def family_model(a: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """y^2 = x^3 + (a^4 - 4a^3 - 2a^2 - 4a + 1) x^2 + 16 a^4 x."""
    return (a ** 4 - 4 * a ** 3 - 2 * a ** 2 - 4 * a + 1, 16 * a ** 4, Fraction(0))


def family_discriminant(a: Fraction) -> Fraction:
    return 4096 * a ** 8 * (a + 1) ** 2 * (a - 1) ** 4 * (a * a - 6 * a + 1)


def family_torsion(a: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The seven standard nontrivial torsion points (orders 2, 4, 4, 8, 8, 8, 8)."""
    points = [(Fraction(0), Fraction(0))]
    for x, y in (
        (4 * a * a, 4 * a * a * (a - 1) ** 2),
        (4 * a, 4 * a * (a * a - 1)),
        (4 * a ** 3, 4 * a ** 3 * (a * a - 1)),
    ):
        points += [(x, y), (x, -y)]
    return points


def shift(model, t):
    """The model in x' = x - t, isomorphic to the given one (same heights)."""
    a2, a4, a6 = model
    return (a2 + 3 * t, a4 + (2 * a2 + 3 * t) * t, a6 + ((a2 + t) * t + a4) * t)


def subfamily_a(index: int, k: Fraction) -> Fraction:
    (n2, n1, n0), (d2, d1, d0) = SUBFAMILY_QUADRATICS[index]
    return ((n2 * k + n1) * k + n0) / ((d2 * k + d1) * k + d0)


def on_curve(model, P) -> bool:
    if P is None:
        return True
    a2, a4, a6 = model
    x, y = P
    return y * y == ((x + a2) * x + a4) * x + a6


def add(model, P, Q):
    """Chord-tangent sum on a model with a1 = a3 = 0."""
    if P is None:
        return Q
    if Q is None:
        return P
    a2, a4, _ = model
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - a2 - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def negate(P):
    return None if P is None else (P[0], -P[1])


def multiply(model, m: int, P):
    result = None
    addend = P if m >= 0 else negate(P)
    m = abs(m)
    while m:
        if m & 1:
            result = add(model, result, addend)
        addend = add(model, addend, addend)
        m >>= 1
    return result


def naive_height(q: Fraction) -> float:
    return math.log(max(abs(q.numerator), q.denominator))


def height_estimate(model, x: Fraction, doublings: int) -> float:
    """h(2^n P) / 4^n by x-only duplication (b-invariant formula); 0.0 when
    a double reaches the identity."""
    a2, a4, a6 = model
    b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
    for _ in range(doublings):
        den = ((4 * x + b2) * x + 2 * b4) * x + b6
        if den == 0:
            return 0.0
        x = (((x * x - b4) * x - 2 * b6) * x - b8) / den
    return naive_height(x) / 4 ** doublings


def small_factors(n: int) -> dict[int, int]:
    """Trial-division factorization of |n| (n != 0); inputs here are small."""
    n = abs(n)
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def integral_ab(A: Fraction, B: Fraction) -> tuple[int, int]:
    """Least scaling lam with lam^2 A and lam^4 B integral; returns them."""
    lam = 1
    primes = set(small_factors(A.denominator)) | set(small_factors(B.denominator))
    for q in primes:
        e = max(-(-_valuation(A.denominator, q) // 2), -(-_valuation(B.denominator, q) // 4))
        lam *= q ** e
    A_int, B_int = A * lam ** 2, B * lam ** 4
    return A_int.numerator, B_int.numerator


def _valuation(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


@functools.lru_cache(maxsize=None)
def primes_upto(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1)))


def count_ab_mod_p(A: int, B: int, p: int) -> int:
    """#E(F_p) of y^2 = x^3 + A x^2 + B x over an odd prime, from a table of
    the squares mod p."""
    import numpy as np  # imported only when checking, after the timed phase

    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    f = ((x + A % p) * x % p + B % p) * x % p
    return p + 1 + int(chi[f].sum())


def sieve_sum(a: Fraction, bound: int) -> float:
    """sum_{5 <= p <= bound, good} (1 - (p-1)/#E(F_p)) log p on the integral model."""
    A, B = integral_ab(*family_model(a)[:2])
    disc = 16 * B * B * (A * A - 4 * B)
    total = 0.0
    for p in primes_upto(bound):
        if p > 3 and disc % p:
            total += (1 - (p - 1) / count_ab_mod_p(A, B, p)) * math.log(p)
    return total


def torsion_bound(A: Fraction, B: Fraction, primes: int = 12) -> int:
    """gcd of #E(F_p) over the first good primes p >= 5; the rational
    torsion order divides it."""
    disc = 16 * B * B * (A * A - 4 * B)
    bound, used, p = 0, 0, 5
    while used < primes:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            if A.denominator % p and B.denominator % p and disc.numerator % p:
                Ap = A.numerator * pow(A.denominator, -1, p) % p
                Bp = B.numerator * pow(B.denominator, -1, p) % p
                bound = math.gcd(bound, count_ab_mod_p(Ap, Bp, p))
                used += 1
        p += 2
    return bound


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return n * n == q.numerator and d * d == q.denominator
