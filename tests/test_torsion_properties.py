"""Property tests: torsion_subgroup against the classifier restated plainly.

The oracle closes the seeds under addition of ordered pairs, round by
round, and finds every order by repeated addition; it shares with the
library only the group law, the two-torsion points, the order bound and
the divisor candidates.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from bqec import torsion  # noqa: E402
from bqec.curves import INFINITY, Point  # noqa: E402
from bqec.family import (  # noqa: E402
    auxiliary_curve,
    family_curve,
    family_torsion_points,
    product_torsion_parameter,
)

MAZUR_SHAPES = {f"Z/{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)} | {
    f"Z/2xZ/{n}" for n in (2, 4, 6, 8)
}
CYCLIC_ORDERS = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}
PRODUCT_ORDERS = {4, 8, 12, 16}


def _order(curve, P):
    """Order of P by repeated addition, or None past 12."""
    n, R = 1, P
    while R is not INFINITY:
        if n == 12:
            return None
        R, n = curve.add(R, P, check=False), n + 1
    return n


def _closure(curve, points):
    group = {INFINITY, *points}
    while True:
        new = {curve.add(P, Q, check=False) for P in group for Q in group} - group
        if not new:
            return group
        group |= new
        assert len(group) <= 16


def _classify(curve, group):
    n = len(group)
    if n == 1:
        return "Z/1", 1, ()
    orders = {P: _order(curve, P) for P in group}
    exponent = max(orders.values())

    def key(P):
        return (P.x, P.y)

    gen = min((P for P in group if orders[P] == exponent), key=key)
    if exponent == n:
        return f"Z/{n}", n, (gen,)
    assert 2 * exponent == n
    span, R = set(), gen
    while R is not INFINITY:
        span.add(R)
        R = curve.add(R, gen, check=False)
    extra = min((P for P in group if orders[P] == 2 and P not in span), key=key)
    return f"Z/2xZ/{exponent}", n, (gen, extra)


def _largest_possible_order(bound, two_torsion):
    if two_torsion is None:
        allowed = CYCLIC_ORDERS | PRODUCT_ORDERS
    elif two_torsion == 1:
        allowed = {d for d in CYCLIC_ORDERS if d % 2 == 0}
    else:
        allowed = PRODUCT_ORDERS
    return max(d for d in allowed if bound % d == 0)


def _oracle(curve, hints):
    bound = torsion.torsion_order_bound(curve)
    seeds, two_torsion = set(), None
    if curve.is_ab_form:
        points = torsion.two_torsion_points(curve)
        seeds.update(points)
        two_torsion = len(points)
    for P in hints:
        if _order(curve, P) is not None:
            seeds.update((P, curve.negate(P)))
    for search in (False, True):
        pool = set(seeds)
        if search and curve.is_ab_form:
            pool.update(P for P in torsion._divisor_candidates(curve) if _order(curve, P) is not None)
        shape, order, gens = _classify(curve, _closure(curve, pool))
        proven = order == _largest_possible_order(bound, two_torsion)
        if proven:
            break
    return shape, order, gens, proven, bound


def _check(curve, hints):
    structure = torsion.torsion_subgroup(curve, hints)
    got = (structure.shape, structure.order, structure.generators, structure.proven,
           structure.bound)
    assert got == _oracle(curve, hints)
    assert structure.shape in MAZUR_SHAPES
    return structure


def _rationals(numerators, denominators):
    return st.builds(Fraction, numerators, denominators).filter(lambda q: q not in (0, 1, -1))


@given(_rationals(st.integers(-200, 200), st.integers(1, 60)))
def test_family_torsion_matches_oracle(a):
    structure = _check(family_curve(a), [P for P, _ in family_torsion_points(a)])
    assert structure.order in (8, 16)  # the family always carries Z/8


@given(_rationals(st.integers(-60, 60), st.integers(1, 40)))
def test_product_torsion_matches_oracle(r):
    a = product_torsion_parameter(r)
    structure = _check(family_curve(a), [P for P, _ in family_torsion_points(a)])
    assert (structure.shape, structure.proven) == ("Z/2xZ/8", True)


def test_general_model_matches_oracle():
    structure = _check(auxiliary_curve(), [Point(12, 675)])
    assert structure.shape == "Z/3"
