"""Property tests: the group law on a general Weierstrass model, and the
round trip between family-curve points and quadrilaterals."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from bqec.curves import INFINITY, Curve, Point  # noqa: E402
from bqec.errors import NotRealizable, ZeroU  # noqa: E402
from bqec.family import (  # noqa: E402
    SUBFAMILY_INDICES,
    family_curve,
    family_torsion_points,
    singular_k_values,
    subfamily,
)
from bqec.quad import point_to_quad, point_to_semiperimeter, quad_to_point  # noqa: E402

# a model with every a-invariant nonzero, and a point of infinite order on it
GENERAL = Curve(a1=-12, a2=-6, a3=-8, a4=124, a6=-744)
P = Point(-18, -96)

multiples = st.integers(min_value=-4, max_value=4)


@given(multiples, multiples, multiples)
def test_group_law_on_general_model(i, j, k):
    iP, jP, kP = (GENERAL.multiply(n, P) for n in (i, j, k))
    assert GENERAL.add(GENERAL.add(iP, jP), kP) == GENERAL.add(iP, GENERAL.add(jP, kP))
    assert GENERAL.add(iP, jP) == GENERAL.multiply(i + j, P)
    assert GENERAL.add(iP, GENERAL.negate(iP)) is INFINITY


@st.composite
def subfamily_members(draw):
    """A subfamily member at a rational k off the subfamily's singular set."""
    index = draw(st.sampled_from(SUBFAMILY_INDICES))
    k = draw(st.fractions(min_value=-12, max_value=12, max_denominator=12))
    assume(k not in singular_k_values(index))
    return subfamily(index, k)


@given(subfamily_members())
def test_point_quad_round_trip(member):
    # the guaranteed point shifted by each standard torsion point, or by none
    a, curve = member.a, family_curve(member.a)
    for T in [INFINITY] + [T for T, _ in family_torsion_points(a)]:
        Q = curve.add(member.point, T)
        if Q is INFINITY:
            continue
        try:
            quad = point_to_quad(a, Q.x, Q.y)
        except (NotRealizable, ZeroU):
            continue
        a_back, u, v = quad_to_point(quad)
        assert a_back == a
        assert point_to_quad(a, u, v) == quad
        assert point_to_semiperimeter(a, u, v) == point_to_semiperimeter(a, Q.x, Q.y)
