"""Curve construction, group law, invariants, integral models, point counts."""

from fractions import Fraction as F

import pytest

from bqec.arith import primes_up_to
from bqec.curves import INFINITY, Curve, Point
from bqec.errors import BadPrime, BadReduction, PointNotOnCurve, SingularCurve
from bqec.family import family_curve, family_discriminant, family_torsion_points, subfamily

from conftest import sample_parameters

E10 = family_curve(10)
GENERAL = Curve(a1=-12, a2=-6, a3=-8, a4=124, a6=-744)
SUB1 = family_curve(subfamily(1, F(257, 134)).a)  # integral-model scale > 1


def test_ab_construction():
    curve = Curve.from_ab(5761, 160000)
    assert curve.is_ab_form
    assert (curve.A, curve.B) == (5761, 160000)


def test_singular_rejected():
    with pytest.raises(SingularCurve):
        Curve.from_ab(7, 0)  # discriminant 16 B^2 (A^2 - 4B) vanishes
    with pytest.raises(SingularCurve):
        Curve.from_ab(2, 1)  # A^2 = 4B


def test_general_model_accepts_published_points():
    assert GENERAL.contains(Point(-18, -96))
    assert GENERAL.contains(Point(F(-366, 25), F(-9632, 125)))
    assert not GENERAL.contains(Point(-18, -95))


def test_contains():
    assert E10.contains(Point(-32, -864))
    assert E10.contains(INFINITY)
    assert not E10.contains(Point(-32, 864 + 1))


def test_add_worked_example():
    curve = family_curve(F(21, 5))
    total = curve.add(Point(1764, F(366912, 5)), Point(F(84, 5), F(34944, 125)))
    assert total == Point(F(756, 125), F(532224, 3125))


def test_add_identity_and_inverse():
    G = Point(-32, -864)
    assert E10.add(G, INFINITY) == G
    assert E10.add(INFINITY, G) == G
    assert E10.add(G, E10.negate(G)) is INFINITY


def test_add_rejects_off_curve():
    with pytest.raises(PointNotOnCurve):
        E10.add(Point(1, 1), Point(-32, -864))


def test_doubling():
    assert E10.add(Point(-32, -864), Point(-32, -864)) == Point(8464, -1010160)
    assert E10.multiply(2, Point(-32, -864)) == Point(8464, -1010160)


def test_multiply_edge_cases():
    G = Point(-32, -864)
    assert E10.multiply(0, G) is INFINITY
    assert E10.multiply(-1, G) == E10.negate(G)
    assert E10.multiply(-3, G) == E10.negate(E10.multiply(3, G))
    # order-8 torsion point at x = 4a on the a = 3 curve
    curve3 = family_curve(3)
    assert curve3.multiply(8, Point(12, 96)) is INFINITY
    assert curve3.multiply(4, Point(12, 96)) is not INFINITY


def test_group_axioms_on_small_multiples():
    for a in sample_parameters(101, 8):
        curve = family_curve(a)
        base = [P for P, _ in family_torsion_points(a)]
        P, Q, R = base[1], base[3], base[5]
        assert curve.add(P, Q) == curve.add(Q, P)
        assert curve.add(curve.add(P, Q), R) == curve.add(P, curve.add(Q, R))
        assert curve.add(P, curve.negate(P)) is INFINITY
        for S in (curve.add(P, Q), curve.multiply(3, R)):
            assert curve.contains(S)
    G = Point(-32, -864)
    for n in range(1, 6):
        assert E10.contains(E10.multiply(n, G))


def test_discriminant_values():
    assert E10.discriminant == 4096 * 10 ** 8 * 121 * 6561 * 41
    assert family_curve(6).discriminant == 4096 * 6 ** 8 * 49 * 625
    assert family_discriminant(1) == 0


def test_discriminant_matches_closed_form():
    for a in sample_parameters(102, 50):
        curve = family_curve(a)
        ab_form = 16 * curve.B ** 2 * (curve.A ** 2 - 4 * curve.B)
        assert curve.discriminant == ab_form == family_discriminant(a)


def test_j_invariant_oracle():
    # independent arithmetic: c4 = 16(A^2 - 3B), delta = 16 B^2 (A^2 - 4B)
    c4 = 16 * (5761 ** 2 - 3 * 160000)
    delta = 16 * 160000 ** 2 * (5761 ** 2 - 4 * 160000)
    assert E10.j_invariant == F(c4 ** 3, delta)


def test_j_invariant_scaling_invariance():
    for a in sample_parameters(103, 10):
        curve = family_curve(a)
        integral, _ = curve.integral_model()
        assert integral.j_invariant == curve.j_invariant


def test_integral_model():
    curve = family_curve(F(21, 5))
    integral, lam = curve.integral_model()
    assert lam == 25
    assert (integral.A, integral.B) == (-22664, 1944810000)

    quarter, lam2 = Curve.from_ab(F(1, 4), F(1, 16)).integral_model()
    assert lam2 == 2
    assert (quarter.A, quarter.B) == (1, 1)

    same, lam1 = E10.integral_model()
    assert lam1 == 1
    assert (same.A, same.B) == (E10.A, E10.B)


def test_integral_model_minimality():
    for a in sample_parameters(104, 12):
        curve = family_curve(a)
        _, lam = curve.integral_model()
        assert (curve.A * lam * lam).denominator == 1
        assert (curve.B * lam ** 4).denominator == 1
        for p in {2, 3, 5, 7, 11, 13}:
            if lam % p:
                continue
            smaller = lam // p
            assert (
                (curve.A * smaller * smaller).denominator != 1
                or (curve.B * smaller ** 4).denominator != 1
            )


def test_integral_model_point_transport():
    curve = family_curve(F(21, 5))
    integral, lam = curve.integral_model()
    for P, _ in family_torsion_points(F(21, 5)):
        moved = Point(P.x * lam * lam, P.y * lam ** 3)
        assert integral.contains(moved)


def _brute_force_count(A, B, p):
    total = 1  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y - (x ** 3 + A * x * x + B * x)) % p == 0:
                total += 1
    return total


def _brute_force_count_general(curve, p):
    vals = []
    for coeff in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6):
        vals.append(coeff.numerator * pow(coeff.denominator, -1, p) % p)
    a1, a2, a3, a4, a6 = vals
    total = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0:
                total += 1
    return total


def test_count_small_curve():
    assert Curve.from_ab(0, 1).count_points_mod_p(3) == 4


def test_count_matches_brute_force_and_hasse():
    assert SUB1.integral_model()[1] > 1
    for curve in (E10, SUB1):
        integral, _ = curve.integral_model()
        A, B = int(integral.A), int(integral.B)
        for p in (7, 13, 17, 19, 23, 29, 31, 37, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
            if integral.discriminant % p == 0:
                continue
            count = curve.count_points_mod_p(p)
            assert count == _brute_force_count(A, B, p)
            assert (count - p - 1) ** 2 <= 4 * p


def test_count_is_two_isogeny_invariant():
    # E: y^2 = x^3 + A x^2 + B x and E': y^2 = x^3 - 2A x^2 + (A^2 - 4B) x are
    # 2-isogenous, so they have the same number of points at every good p
    integral, _ = SUB1.integral_model()
    A, B = int(integral.A), int(integral.B)
    isogenous = Curve.from_ab(-2 * A, A * A - 4 * B)
    good = [p for p in primes_up_to(1979)[1:] if B * (A * A - 4 * B) % p]
    assert len(good) > 280
    for p in good:
        assert SUB1.count_points_mod_p(p) == isogenous.count_points_mod_p(p)


def test_count_general_matches_brute_force():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        if GENERAL.discriminant.numerator % p == 0:
            continue
        assert GENERAL.count_points_mod_p(p) == _brute_force_count_general(GENERAL, p)


def test_count_bad_inputs():
    with pytest.raises((BadPrime, BadReduction)):
        E10.count_points_mod_p(2)
    with pytest.raises(BadReduction):
        E10.count_points_mod_p(5)  # 5 divides the discriminant
    with pytest.raises(BadPrime):
        GENERAL.count_points_mod_p(3)
    fractional = Curve(a1=F(1, 5), a4=1, a6=1)
    with pytest.raises(BadPrime):
        fractional.count_points_mod_p(5)
