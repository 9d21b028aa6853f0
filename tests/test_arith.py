"""Rational I/O, square roots, primes, factoring helpers."""

import math
import os
import random
from fractions import Fraction as F

import pytest

from bqec.arith import (
    divisors_bounded,
    factorize,
    is_rational_square,
    parse_rational,
    primes_up_to,
    rational_sqrt,
    worker_count,
)
from bqec.errors import SizeCapExceeded


def test_parse_rational():
    assert parse_rational("3/5") == F(3, 5)
    assert parse_rational("-7") == -7
    assert parse_rational("+2/4") == F(1, 2)
    for bad in ("1/0", "3 / 5", "1.5", "a", "", "2/-3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rational_sqrt():
    assert rational_sqrt(F(49, 4)) == F(7, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-4)) is None
    assert is_rational_square(F(451584, 625) ** 2)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(1979)) == 299


def test_factorize():
    assert factorize(160000) == {2: 8, 5: 4}
    assert factorize(-12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def _trial_division(n):
    """Reference factorization for the factorize tests: divide by 2, then by every odd d."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_factorize_matches_trial_division():
    for n in range(1, 10 ** 5 + 1):
        assert factorize(n) == _trial_division(n), n
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(10 ** 5, 10 ** 12)
        assert factorize(n) == _trial_division(n), n


MERSENNE_PRIMES = (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1)


def test_factorize_round_trips_mersenne_products_and_powers():
    m31, m61, m89, m127 = MERSENNE_PRIMES
    cases = [{m: 1} for m in MERSENNE_PRIMES]
    cases += [{m: e} for m in MERSENNE_PRIMES for e in (2, 3, 5)]
    cases += [
        {m31: 1, m61: 1},
        {m31: 2, m89: 1},
        {m31: 1, m127: 3},
        {2: 7, 3: 1, 9973: 2, m31: 3, m61: 1},
        {10007: 1, m89: 2},
    ]
    for factors in cases:
        n = math.prod(p ** e for p, e in factors.items())
        assert factorize(n) == factors
        assert factorize(-n) == factors


def test_factorize_splits_strong_pseudoprimes():
    # 3215031751 passes the strong test to bases 2, 3, 5 and 7; psi_13 to
    # every prime base up to 41.  Neither may come back as a prime.
    psi13 = 3317044064679887385961981
    assert factorize(3215031751) == {151: 1, 751: 1, 28351: 1}
    assert factorize(psi13) == {1287836182261: 1, 2575672364521: 1}
    assert factorize(psi13 ** 2 * 3215031751) == {
        151: 1, 751: 1, 28351: 1, 1287836182261: 2, 2575672364521: 2,
    }


def test_factorize_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(90)
    corpus = [rng.getrandbits(rng.randint(2, 90)) or 1 for _ in range(300)]
    corpus += [sympy.nextprime(rng.getrandbits(rng.randint(2, 30)))
               * sympy.nextprime(rng.getrandbits(30)) * rng.randint(1, 10 ** 6) for _ in range(60)]
    checked = 0
    for n in corpus:
        try:
            got = factorize(n)
        except SizeCapExceeded:
            continue
        assert got == {int(p): e for p, e in sympy.factorint(n).items()}, n
        checked += 1
    assert checked >= len(corpus) - 5


def test_divisors_bounded():
    divisors, truncated = divisors_bounded({2: 3, 3: 1})
    assert divisors == [1, 2, 3, 4, 6, 8, 12, 24]
    assert not truncated
    small, _ = divisors_bounded({2: 3, 3: 1}, bound=6)
    assert small == [1, 2, 3, 4, 6]
    capped, truncated = divisors_bounded({2: 10}, max_count=3)
    assert truncated and len(capped) == 3


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [worker_count(jobs) for jobs in (-3, 0, 1, 2, 3, 10 ** 6)] == [1, 1, 1, 2, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert worker_count(8) == 1
