"""Small helpers: rational I/O, square roots, primes, factoring, --jobs.

Everything here uses only the standard library.  The package's one prime
list, SMALL_PRIMES (every prime up to PRIME_CAP), is sieved at import.
factorize is a bounded factorizer: trial division by that list, integer
k-th roots for perfect powers, the Baillie-PSW probable-prime test
(Baillie and Wagstaff, Math. Comp. 35, 1980) and Pollard-Brent rho
(Brent, BIT 20, 1980).  Rho is capped at RHO_STEP_CAP steps per cofactor,
so a number with two prime factors above about 10^12 may raise
SizeCapExceeded instead of running without end.  map_jobs is the one
place a --jobs value becomes processes: in process for one worker, a
ProcessPoolExecutor of at most one worker per CPU otherwise.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from fractions import Fraction

from .errors import DigitCapExceeded, SizeCapExceeded

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as 'p' or 'p/q' (optional sign, no whitespace)."""
    if not _RATIONAL.match(text):
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # well formed, so longer than the int<->str limit
        raise DigitCapExceeded(str(exc)) from None


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: 'p' for integers, 'p/q' otherwise."""
    try:
        return str(q)
    except ValueError as exc:  # longer than the int<->str limit
        raise DigitCapExceeded(str(exc)) from None


def isqrt_exact(n: int) -> int | None:
    """Nonnegative integer square root of n, or None if n is not a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Nonnegative exact square root of q, or None if q is not a rational square."""
    if q < 0:
        return None
    num = isqrt_exact(q.numerator)
    if num is None:
        return None
    den = isqrt_exact(q.denominator)
    if den is None:
        return None
    return Fraction(num, den)


def is_rational_square(q: Fraction | int) -> bool:
    return rational_sqrt(Fraction(q)) is not None


def primes_up_to(n: int) -> list[int]:
    """All primes <= n (plain sieve; the bounds used here are tiny)."""
    if n < 2:
        return []
    flags = bytearray(b"\x01" * (n + 1))
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, n + 1, i))
    return [i for i, f in enumerate(flags) if f]


# Largest prime the package works with: factorize trial-divides up to it,
# curves caches root-count tables up to it, sieve prime bounds may not pass
# it and the torsion order bound reduces only at primes below it.
PRIME_CAP = 10 ** 4
SMALL_PRIMES = tuple(primes_up_to(PRIME_CAP))

# Pollard-Brent rho steps allowed per composite cofactor: about 3 s on a
# 71-digit cofactor (one core of a 2-core host).  A prime factor below
# about 10^12 is found inside it; a cofactor with two larger ones may not be.
RHO_STEP_CAP = 1 << 22
_RHO_BATCH = 128  # steps whose differences share one gcd


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0), primes in increasing order.

    Raises SizeCapExceeded when a cofactor needs more than RHO_STEP_CAP
    rho steps to split.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    # Every prime factor left exceeds PRIME_CAP, so a number below its square is prime.
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, e = pending.pop()
        if m >= PRIME_CAP * PRIME_CAP:
            m, k = _perfect_power(m)
            e *= k
            if not _is_probable_prime(m):
                d = _rho_divisor(m)
                pending += [(d, e), (m // d, e)]
                continue
        factors[m] = factors.get(m, 0) + e
    return dict(sorted(factors.items()))


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton steps from above (no floats)."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with r**k == n and k largest, for n with no prime factor <= PRIME_CAP."""
    power = 1
    for k in SMALL_PRIMES:
        if PRIME_CAP ** k > n:  # a k-th root would be at most PRIME_CAP
            break
        r = _iroot(n, k)
        while r ** k == n:
            n, power = r, power * k
            r = _iroot(n, k)
    return n, power


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == n % 4 == 3:  # quadratic reciprocity
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW, for odd n > 3 that is not a perfect square: a strong
    base-2 test, then a strong Lucas test with P = 1 and Selfridge's D."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    U, V, Qk = 1, 1, Q % n  # U_k, V_k and Q^k at k = 1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n by Pollard-Brent rho, x -> x^2 + c
    for c = 1, 2, ...; raises SizeCapExceeded past RHO_STEP_CAP steps."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEP_CAP:
                digits = digits10(n)
                digits -= n < 10 ** (digits - 1)  # digits10 may count one too many
                raise SizeCapExceeded(f"factoring gave up on a {digits}-digit cofactor "
                                      f"after {RHO_STEP_CAP} Pollard rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def divisors_bounded(
    factors: dict[int, int],
    bound: int | None = None,
    max_count: int | None = None,
) -> tuple[list[int], bool]:
    """Positive divisors from a factorization, optionally only those <= bound.

    Returns (sorted divisors, truncated); truncated is set when max_count cut
    the enumeration short.
    """
    primes = sorted(factors)
    out: list[int] = []
    truncated = False

    def walk(i: int, d: int) -> bool:
        nonlocal truncated
        if max_count is not None and len(out) >= max_count:
            truncated = True
            return False
        if i == len(primes):
            out.append(d)
            return True
        p = primes[i]
        val = d
        for _ in range(factors[p] + 1):
            if bound is not None and val > bound:
                break
            if not walk(i + 1, val):
                return False
            val *= p
        return True

    walk(0, 1)
    return sorted(out), truncated


def digits10(n: int) -> int:
    """Decimal digit count of |n|, within one digit (used only for size caps)."""
    return max(1, (abs(n).bit_length() * 30103) // 100000 + 1)


def worker_count(jobs: int) -> int:
    """Processes to use when a caller asks for jobs: at least 1, at most the CPU count."""
    return max(1, min(jobs, os.cpu_count() or 1))


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in order, over worker_count(jobs)
    processes (in this process when that is 1).  fn must be picklable."""
    workers = worker_count(jobs)
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
