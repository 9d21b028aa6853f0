"""Heights, regulators, sieve scores, and the divisor-shaped point search."""

import math
from fractions import Fraction as F

import pytest

from bqec.analysis import (
    canonical_height,
    is_probably_independent,
    mestre_nagao,
    mestre_nagao_sums,
    naive_height,
    point_search,
    regulator,
    sieve,
)
from bqec.arith import primes_up_to
from bqec.curves import INFINITY, Curve, Point
from bqec.errors import DigitCapExceeded, InfinityPoint, PointNotOnCurve, SizeCapExceeded
from bqec.family import (
    auxiliary_curve,
    dual_curve,
    family_curve,
    family_torsion_points,
    isogeny_to_dual,
    subfamily,
    subfamily1_cleared,
)
from bqec.torsion import point_order

E0, P0 = subfamily1_cleared(0)
E10 = family_curve(10)
G10 = Point(-32, -864)
PAIR_CURVE = family_curve(F(101, 341))
PAIR = (
    Point(4, F(879360, 116281)),
    Point(F(31684, 116281), F(1907106240, 13521270961)),
)


def test_naive_height():
    assert naive_height(Point(625, 100000)) == math.log(625)
    assert naive_height(Point(F(756, 125), 1)) == math.log(756)
    assert naive_height(Point(-32, -864)) == math.log(32)
    with pytest.raises(InfinityPoint):
        naive_height(INFINITY)


def test_canonical_height_published_value():
    result = canonical_height(E0, P0, 8)
    assert abs(result.value - 2.34275900093414) < 1e-3
    assert result.doublings_used == 8
    assert result.error_bound < 1e-3


def test_canonical_height_input_checks():
    with pytest.raises(PointNotOnCurve):
        canonical_height(E0, Point(1, 1), 8)
    with pytest.raises(ValueError):
        canonical_height(E0, P0, 0)
    with pytest.raises(ValueError):
        canonical_height(E0, P0, 11)
    with pytest.raises(ValueError):
        canonical_height(E0, P0, 4)  # error bound above the reporting cutoff


def test_canonical_height_torsion_is_exact_zero():
    for P in (Point(0, 0), Point(40, 3960), Point(400, 32400)):
        result = canonical_height(E10, P, 8)
        assert result.value == 0.0
        assert result.error_bound == 0.0
    # odd-order torsion never collapses through doubling but still shrinks
    from bqec.family import auxiliary_curve

    aux = auxiliary_curve()
    result = canonical_height(aux, Point(12, 675), 8)
    assert abs(result.value) < 1e-3


def test_canonical_height_quadraticity():
    h1 = canonical_height(E0, P0, 8)
    h2 = canonical_height(E0, E0.multiply(2, P0), 8)
    assert abs(h2.value - 4 * h1.value) < 4 * h1.error_bound + h2.error_bound


def _changed_model(curve, P, u, r, s, t):
    """The model and point under x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    model = Curve(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * t) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6,
    )
    image = Point((P.x - r) / u ** 2, (P.y - s * (P.x - r) - t) / u ** 3)
    assert model.contains(image)
    return model, image


def test_canonical_height_matches_chord_tangent_doubling():
    # oracle: h(2^n P) / 4^n with 2^n P from Fraction chord-tangent arithmetic
    aux = auxiliary_curve()
    rational, P = _changed_model(aux, Point(-24, 405), F(3, 2), F(1, 3), F(1), F(-5, 2))
    assert rational.a1 and rational.a3 and rational.a6.denominator > 1
    shift = 5
    shifted = Curve(a2=3 * shift, a4=3 * shift ** 2 + 7668,
                    a6=shift ** 3 + 7668 * shift + 361881)
    cases = [(rational, P, 7), (shifted, Point(-38 - shift, 125), 7), (aux, Point(12, 675), 6)]
    for curve, point, n in cases:
        assert not curve.is_ab_form
        expected = naive_height(curve.multiply(2 ** n, point)) / 4 ** n
        assert canonical_height(curve, point, n).value == expected


def test_canonical_height_two_torsion_on_general_model():
    model, T = _changed_model(E10, Point(0, 0), F(2), F(1), F(1), F(3))
    assert model.a1 and model.a3
    assert canonical_height(model, T, 8) == canonical_height(E10, Point(0, 0), 8)


def _full_gcd_height(curve, P, n):
    """h(2^n P) / 4^n by the doubling loop with a full gcd at every step,
    restated here as the reference for canonical_height's reduced gcd."""
    if curve.is_ab_form:
        model, lam = curve.integral_model()
        x = P.x * lam * lam
    else:
        model, x = curve, P.x
    b2, b4, b6, _ = model.b_invariants
    D = math.lcm(b2.denominator, b4.denominator, b6.denominator)
    c2, c4, c6 = (int(b * D) for b in (b2, b4, b6))
    U, V = x.numerator, x.denominator
    for _ in range(n):
        num = (2 * D * U * U - c4 * V * V) ** 2 - c6 * V ** 3 * (8 * D * U + c2 * V)
        den = 4 * D * V * (4 * D * U ** 3 + c2 * U * U * V + 2 * c4 * U * V * V + c6 * V ** 3)
        if den == 0:
            return 0.0
        g = math.gcd(num, den)
        U, V = num // g, den // g
        if V < 0:
            U, V = -U, -V
    return math.log(max(abs(U), V)) / 4 ** n


def test_canonical_height_matches_full_gcd_loop():
    member = subfamily(4, F(3, 11))
    translate_curve = family_curve(member.a)
    order_eight = next(T for T, order in family_torsion_points(member.a) if order == 8)
    cases = [
        (E0, P0),
        *((PAIR_CURVE, P) for P in (*PAIR, PAIR_CURVE.add(*PAIR))),
        (auxiliary_curve(), Point(-38, 125)),  # general model
        (translate_curve, translate_curve.add(member.point, order_eight)),
        (E10, Point(0, 0)),  # 2-torsion: exact zero
    ]
    for curve, P in cases:
        assert canonical_height(curve, P, 8).value == _full_gcd_height(curve, P, 8)


def test_isogeny_doubles_canonical_height():
    # phi: E_a -> dual_curve(a) has degree 2, so h(phi(P)) = 2 h(P); the
    # tolerance is the sum of the reported error bounds
    members = [(1, F(3, 2)), (2, F(2, 3)), (3, F(3)), (4, F(1, 3)),
               (5, F(5, 2)), (6, F(0)), (7, F(1, 2)), (8, F(3))]
    for index, k in members:
        member = subfamily(index, k)
        a = member.a
        curve, dual = family_curve(a), dual_curve(a)
        assert point_order(curve, member.point) is None
        for T in [INFINITY] + [T for T, _ in family_torsion_points(a)]:
            P = curve.add(member.point, T)
            h = canonical_height(curve, P, 8)
            h_dual = canonical_height(dual, isogeny_to_dual(a, P), 8)
            assert abs(h_dual.value - 2 * h.value) <= h_dual.error_bound + 2 * h.error_bound


def test_digit_cap(monkeypatch):
    monkeypatch.setenv("BQEC_DIGIT_CAP", "100")
    with pytest.raises(DigitCapExceeded):
        canonical_height(E0, P0, 8)
    monkeypatch.delenv("BQEC_DIGIT_CAP")
    canonical_height(E0, P0, 8)  # default cap is roomy enough


def test_regulator_published_pair():
    for P in PAIR:
        assert PAIR_CURVE.contains(P)
    value = regulator(PAIR_CURVE, PAIR, 8)
    assert abs(value - 29.1615800873524) < 5e-2
    assert is_probably_independent(PAIR_CURVE, PAIR)


def test_regulator_dependent_sets():
    dependent = regulator(E10, [G10, E10.multiply(2, G10)], 8)
    assert abs(dependent) < 1e-2
    assert not is_probably_independent(E10, [G10, E10.multiply(3, G10)])
    assert not is_probably_independent(E10, [Point(40, 3960)])  # torsion


def test_regulator_single_point_is_height():
    single = regulator(E10, [G10], 8)
    assert single == canonical_height(E10, G10, 8).value
    assert single > 0


def test_height_pairing_symmetry_and_determinism():
    first = regulator(PAIR_CURVE, PAIR, 8)
    second = regulator(PAIR_CURVE, list(reversed(PAIR)), 8)
    assert abs(first - second) < 1e-9
    assert regulator(PAIR_CURVE, PAIR, 8) == first  # bit-identical on recompute
    assert mestre_nagao(E10, 523) == mestre_nagao(E10, 523)


def test_mestre_nagao_conventions():
    assert mestre_nagao(E10, 4) == 0.0  # p <= 3 always skipped
    sums = mestre_nagao_sums(E10, [100, 523])
    assert 0 < sums[100] < sums[523]
    assert mestre_nagao(E10, 523) == sums[523]


def test_mestre_nagao_prime_walk(monkeypatch):
    A, B = int(E10.A), int(E10.B)

    def oracle(bound):
        total = 0.0
        for p in primes_up_to(bound):
            if p <= 3 or B * (A * A - 4 * B) % p == 0:  # too small, or bad reduction
                continue
            total += (1 - (p - 1) / E10.count_points_mod_p(p)) * math.log(p)
        return total

    bounds = [1979, 7, 5, 6, 2, 523, 524, 7]
    expected = {bound: oracle(bound) for bound in sorted(set(bounds))}
    counted = []
    count = Curve.count_points_mod_p

    def counting(self, p):
        counted.append(p)
        return count(self, p)

    monkeypatch.setattr(Curve, "count_points_mod_p", counting)
    assert mestre_nagao_sums(E10, bounds) == expected
    # one count per prime 5 <= p <= 1979: the walk stops at the largest bound
    assert counted == primes_up_to(1979)[2:]
    assert len(counted) == 297


def test_sieve_rows():
    records = sieve(1, [F(257, 134), F(311, 129)])
    assert [record.k for record in records] == [F(257, 134), F(311, 129)]
    assert all(record.passed for record in records)
    assert all(record.sums[523] > 10 and record.sums[1979] > 14 for record in records)
    # the sums are exact counts fed to one fixed float sum: they never move by a bit
    assert records[0].sums == {523: 13.86560178255197, 1979: 20.617573161932143}

    lower = sieve(4, [F(115, 28)])
    assert lower[0].passed  # subfamily 4 uses the lower thresholds
    assert lower[0].sums == {523: 10.015385362256353, 1979: 13.353907527672067}


def test_sieve_singular_parameter():
    records = sieve(1, [2, F(257, 134)])
    assert records[0].singular and not records[0].passed and records[0].sums == {}
    assert records[1].passed


def test_sieve_custom_thresholds():
    records = sieve(1, [F(257, 134)], thresholds={523: 1000.0})
    assert not records[0].passed


def test_sieve_prime_bound_cap(monkeypatch):
    def no_counting(self, p):
        raise AssertionError("counted points past the cap check")

    monkeypatch.setattr(Curve, "count_points_mod_p", no_counting)
    with pytest.raises(SizeCapExceeded):
        mestre_nagao_sums(E10, [523, 10007])
    with pytest.raises(SizeCapExceeded):
        sieve(1, [F(257, 134)], thresholds={10007: 1.0})


def test_point_search_finds_generators():
    points, truncated = point_search(E10, 32)
    assert not truncated
    assert Point(-32, -864) in points and Point(-32, 864) in points
    assert all(E10.contains(P) for P in points)

    e0_points, _ = point_search(E0, 30)
    assert Point(625, 100000) in e0_points and Point(625, -100000) in e0_points


def test_point_search_rank_zero_curves_yield_torsion_only():
    for a in range(2, 10):
        curve = family_curve(a)
        points, _ = point_search(curve, 2 * a * a + 2)
        assert points
        for P in points:
            assert point_order(curve, P) is not None


def test_point_search_truncation_flag():
    _, truncated = point_search(E10, 4, max_divisors=2)
    assert truncated


def test_point_search_requires_integral_model():
    with pytest.raises(ValueError):
        point_search(family_curve(F(21, 5)), 10)
