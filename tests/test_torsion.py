"""Point orders, two-torsion, order bounds, and subgroup classification."""

from fractions import Fraction as F

import pytest

from bqec.cli import main
from bqec.curves import INFINITY, Curve, Point
from bqec.errors import BadReduction, PointNotOnCurve, SizeCapExceeded
from bqec.family import (
    SHARED_HIGH_RANK_CURVE,
    auxiliary_curve,
    family_curve,
    family_torsion_points,
    product_torsion_parameter,
)
from bqec.torsion import (
    point_order,
    torsion_order_bound,
    torsion_subgroup,
    two_torsion_points,
)

from conftest import sample_parameters

E10 = family_curve(10)
E6 = family_curve(6)


def test_point_order_examples():
    assert point_order(E10, Point(0, 0)) == 2
    assert point_order(family_curve(3), Point(12, 96)) == 8
    assert point_order(E10, Point(-32, -864)) is None
    assert point_order(E10, INFINITY) == 1
    with pytest.raises(PointNotOnCurve):
        point_order(E10, Point(1, 1))


def test_standard_orders_across_parameters():
    for a in sample_parameters(201, 50):
        curve = family_curve(a)
        orders = sorted(point_order(curve, P) for P, _ in family_torsion_points(a))
        assert orders == [2, 4, 4, 8, 8, 8, 8]


def test_two_torsion_counts():
    assert two_torsion_points(E10) == [Point(0, 0)]
    points = two_torsion_points(E6)
    assert [P.x for P in points] == [-256, -81, 0]
    # a = -(r+1)/(r(r-1)) at r = 2
    assert len(two_torsion_points(family_curve(F(-3, 2)))) == 3
    for a in sample_parameters(202, 20):
        points = two_torsion_points(family_curve(a))
        assert len(points) in (1, 3)
        curve = family_curve(a)
        for P in points:
            assert P.y == 0 and curve.contains(P)


def test_torsion_order_bound():
    assert torsion_order_bound(E10) % 8 == 0
    assert torsion_order_bound(E6) % 16 == 0
    # with a single prime the bound is just that prime's point count
    assert torsion_order_bound(E10, prime_count=1) == E10.count_points_mod_p(7)


def test_torsion_order_bound_needs_a_good_prime(monkeypatch, capsys):
    primes = []

    def all_bad(self, p):
        primes.append(p)
        raise BadReduction(f"p = {p} is bad")

    monkeypatch.setattr(Curve, "count_points_mod_p", all_bad)
    with pytest.raises(SizeCapExceeded):
        torsion_order_bound(E10)
    assert primes[0] == 5 and primes[-1] == 9973  # the largest prime below 10^4
    assert main(["curve", "--a", "10"]) == 4
    assert '"error": "size-cap-exceeded"' in capsys.readouterr().out


def test_torsion_subgroup_families():
    cyclic = torsion_subgroup(E10)
    assert cyclic.shape == "Z/8" and cyclic.order == 8 and cyclic.proven
    assert cyclic.order <= cyclic.bound and cyclic.bound % cyclic.order == 0

    product = torsion_subgroup(E6)
    assert product.shape == "Z/2xZ/8" and product.order == 16 and product.proven

    hinted = torsion_subgroup(E10, hints=[P for P, _ in family_torsion_points(10)])
    assert (hinted.shape, hinted.proven) == ("Z/8", True)


def test_torsion_subgroup_rejects_bad_hint():
    with pytest.raises(PointNotOnCurve):
        torsion_subgroup(E10, hints=[Point(3, 7)])


def test_torsion_subgroup_product_parameter():
    a = product_torsion_parameter(F(12, 17))
    assert a == F(493, 60)
    curve = family_curve(a)
    hints = [P for P, _ in family_torsion_points(a)] + two_torsion_points(curve)
    structure = torsion_subgroup(curve, hints=hints)
    assert structure.shape == "Z/2xZ/8"
    assert structure.proven
    assert len(structure.generators) == 2
    orders = sorted(point_order(curve, g) for g in structure.generators)
    assert orders == [2, 8]


def test_torsion_subgroup_general_model():
    aux = auxiliary_curve()
    structure = torsion_subgroup(aux, hints=[Point(12, 675)])
    assert structure.shape == "Z/3"
    assert structure.order == 3


def test_torsion_subgroup_bound_only_on_huge_curve():
    structure = torsion_subgroup(SHARED_HIGH_RANK_CURVE)
    assert structure.bound % 8 == 0
    assert not structure.proven  # no points exhibited without hints
    assert structure.order in (1, 2, 4, 8)


def test_mazur_conformance():
    allowed_cyclic = {f"Z/{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)}
    allowed_product = {f"Z/2xZ/{n}" for n in (2, 4, 6, 8)}
    for a in sample_parameters(203, 15):
        curve = family_curve(a)
        structure = torsion_subgroup(curve, hints=[P for P, _ in family_torsion_points(a)])
        assert structure.shape in allowed_cyclic | allowed_product
        assert structure.bound % structure.order == 0
