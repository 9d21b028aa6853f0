"""Quadrilateral geometry, the curve correspondence, and the integer search."""

import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest

import bqec.quad
from bqec.curves import Point
from bqec.errors import (
    IrrationalN,
    NotPitot,
    NotRealizable,
    OutOfRange,
    PointNotOnCurve,
    SizeCapExceeded,
    ZeroU,
)
from bqec.family import family_curve
from bqec.quad import (
    MAX_SIDE_CAP,
    Quadrilateral,
    _canonical,
    _mask_table,
    bicentric_data,
    n_ratio,
    point_to_quad,
    point_to_semiperimeter,
    quad_to_point,
    search_quads,
    semiperimeter_quartic,
    trapezoid,
)

from conftest import sample_parameters

EXAMPLE = Quadrilateral(21, 28, 12, 5)


def test_quadrilateral_validation():
    with pytest.raises(ValueError):
        Quadrilateral(1, 2, 0, 3)
    with pytest.raises(ValueError):
        Quadrilateral(1, 2, -1, 3)


def test_bicentric_data_example():
    data = bicentric_data(EXAMPLE)
    assert data.s == 33
    assert data.n == F(99, 40)
    assert data.n_sq == F(99, 40) ** 2
    assert data.area_sq == 21 * 28 * 12 * 5


def test_bicentric_data_square():
    data = bicentric_data(Quadrilateral(1, 1, 1, 1))
    assert data.n_sq == 2
    assert data.n is None


def test_not_pitot():
    with pytest.raises(NotPitot):
        bicentric_data(Quadrilateral(1, 2, 1, 1))


def test_n_ratio():
    assert n_ratio(Quadrilateral(2530, 2511, 234, 253)) == F(21437584, 3753945)
    with pytest.raises(IrrationalN):
        n_ratio(Quadrilateral(1, 1, 1, 1))


def test_n_ratio_oracle():
    # independent evaluation of the defining radius-ratio formula
    a, b, c, d = 273, 280, 72, 65
    triple = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
    root = isqrt(triple)
    assert root * root == triple
    expected = F((a + c) * root, 4 * a * b * c * d)
    assert n_ratio(Quadrilateral(a, b, c, d)) == expected


def test_scaling_invariance():
    base = n_ratio(EXAMPLE)
    for scale in (F(2), F(7), F(3, 4), F(11, 6)):
        scaled = Quadrilateral(*(side * scale for side in EXAMPLE.sides))
        assert n_ratio(scaled) == base


def test_quartic_values():
    assert semiperimeter_quartic(F(21, 5), F(33, 5)) == F(10584, 125) ** 2
    assert semiperimeter_quartic(1, 2) == 8
    value = semiperimeter_quartic(10, F(2764, 253))
    assert isqrt(value.numerator) ** 2 == value.numerator
    assert isqrt(value.denominator) ** 2 == value.denominator


def test_quad_to_point_example():
    a, u, v = quad_to_point(EXAMPLE)
    assert a == F(21, 5)
    assert u == 1764
    assert abs(v) == F(366912, 5)
    assert family_curve(a).contains(Point(u, v))
    with pytest.raises(IrrationalN):
        quad_to_point(Quadrilateral(1, 1, 1, 1))


def test_point_to_semiperimeter():
    assert point_to_semiperimeter(F(21, 5), F(756, 125), F(532224, 3125)) == F(69, 13)
    with pytest.raises(ZeroU):
        point_to_semiperimeter(10, 0, 0)
    with pytest.raises(PointNotOnCurve):
        point_to_semiperimeter(10, 3, 3)
    # at the order-8 point x = 4a the map degenerates to s = a
    for a in sample_parameters(401, 10):
        assert point_to_semiperimeter(a, 4 * a, 4 * a * (a * a - 1)) == a


def test_point_to_quad():
    quad = point_to_quad(F(21, 5), F(756, 125), F(532224, 3125))
    assert quad.sides == (273, 280, 72, 65)
    quad10 = point_to_quad(10, 8464, 1010160)
    assert quad10.sides == (2530, 2511, 234, 253)


def test_point_to_quad_unrealizable():
    with pytest.raises(NotRealizable) as info:
        point_to_quad(F(21, 5), F(9604, 225), F(7990528, 16875))
    assert info.value.side_name == "c"
    assert info.value.value == F(-8, 15)


def test_trapezoid():
    quad, n = trapezoid(F(1, 2))
    assert quad.sides == (F(5, 4), 1, F(5, 4), F(3, 2))
    assert n == F(35, 24)
    assert n_ratio(quad) == n
    with pytest.raises(OutOfRange):
        trapezoid(1)
    with pytest.raises(OutOfRange):
        trapezoid(0)
    quad3, n3 = trapezoid(F(1, 3))
    assert quad3.sides == (F(10, 9), F(4, 3), F(10, 9), F(8, 9))
    assert n_ratio(quad3) == n3
    rng = random.Random(402)
    for _ in range(20):
        k = F(rng.randint(1, 19), 20)
        if k == 1:
            continue
        quad_k, n_k = trapezoid(k)
        assert n_ratio(quad_k) == n_k
        assert n_k >= 1  # rational N of a real trapezoid is positive


def test_search_quads_small():
    assert search_quads(1) == []
    results = search_quads(28)
    table = {tuple(int(x) for x in quad.sides): n for quad, n in results}
    assert table[_canonical((21, 28, 12, 5))] == F(99, 40)


def test_search_quads_scaled_example():
    results = search_quads(280)
    table = {tuple(int(x) for x in quad.sides): n for quad, n in results}
    key = _canonical((273, 280, 72, 65))
    assert key in table
    assert table[key] == n_ratio(Quadrilateral(273, 280, 72, 65))


def test_search_quads_properties():
    results = search_quads(60)
    seen = set()
    last_perimeter = 0
    for quad, n in results:
        sides = tuple(int(x) for x in quad.sides)
        assert sides == _canonical(sides)  # canonical and primitive
        assert sides not in seen
        seen.add(sides)
        assert quad.a + quad.c == quad.b + quad.d
        assert n == n_ratio(quad)
        perimeter = sum(sides)
        assert perimeter >= last_perimeter
        last_perimeter = perimeter


def test_search_quads_matches_brute_force():
    # every quadruple with a + c = b + d, judged by bicentric_data alone and
    # reduced by its own least rotation/reflection of the primitive sides
    max_side = 40
    found = set()
    for a in range(1, max_side + 1):
        for b in range(1, max_side + 1):
            for c in range(1, max_side + 1):
                d = a + c - b
                if 1 <= d <= max_side and bicentric_data(Quadrilateral(a, b, c, d)).n is not None:
                    g = gcd(a, b, c, d)
                    t = (a // g, b // g, c // g, d // g)
                    found.add(min(seq[i:] + seq[:i] for seq in (t, t[::-1]) for i in range(4)))
    expected = sorted(found, key=lambda sides: (sum(sides), sides))
    assert [tuple(int(x) for x in quad.sides) for quad, _ in search_quads(max_side)] == expected


def test_residue_masks_are_sound():
    # the masks may only drop c whose triple is a non-square modulo m
    for m in bqec.quad._MASK_MODULI:
        squares = {x * x % m for x in range(m)}
        table = _mask_table(m)
        dropped = 0
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    d = (a + c - b) % m
                    triple = (a * b + c * d) * (a * c + b * d) * (a * d + b * c) % m
                    set_bit = table[a * m + b] >> c & 1
                    if triple in squares:
                        assert set_bit, (m, a, b, c)
                    dropped += not set_bit
        assert dropped  # each modulus filters something


def test_search_quads_cap(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched past the cap")

    monkeypatch.setattr(bqec.quad, "search_quads_range", no_search)
    with pytest.raises(SizeCapExceeded):
        search_quads(MAX_SIDE_CAP + 1)


def test_toth_inequality_on_corpus():
    for quad, _ in search_quads(60):
        data = bicentric_data(quad)
        assert data.n_sq >= 2
        assert data.n_sq > 2  # the square (the only equality case) has irrational N


def test_round_trip_on_corpus():
    for quad, _ in search_quads(100):
        a, u, v = quad_to_point(quad)
        curve = family_curve(a)
        assert curve.contains(Point(u, v))
        recovered = point_to_quad(a, u, v)
        assert recovered.sides == quad.sides


def test_quad_to_point_on_curve_everywhere():
    for quad, _ in search_quads(40):
        a, u, v = quad_to_point(quad)
        assert family_curve(a).contains(Point(u, v))
        # the mirror point is the other square-root choice
        assert family_curve(a).contains(Point(u, -v))


def test_semiperimeter_interval_cross_check():
    # for a > 1, s > a puts u in (0, 4a) or (4a^3, inf) with v above the
    # line v = (a^2 - 1)u through the two order-8 points
    for quad, _ in search_quads(40):
        a, u, v = quad_to_point(quad)
        if a <= 1:
            continue
        s = point_to_semiperimeter(a, u, v)
        point_to_quad(a, u, v)  # realizable by construction
        assert s > a
        assert u > 0 and v > (a * a - 1) * u
        assert 0 < u < 4 * a or u > 4 * a ** 3
