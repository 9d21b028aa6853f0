"""Rational I/O, square roots, primes, factoring helpers."""

import os
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
