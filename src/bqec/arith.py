"""Small helpers: rational I/O, square roots, primes, factoring, worker counts."""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction

from .errors import DigitCapExceeded

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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| (n != 0)."""
    if n == 0:
        raise ValueError("cannot factor 0")
    from sympy import factorint  # deferred import keeps startup light

    return {int(p): int(e) for p, e in factorint(abs(n)).items()}


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
