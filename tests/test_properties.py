"""Property tests: the group law on a general Weierstrass model, the
round trip between family-curve points and quadrilaterals, and the
resultant that bounds the height loop's gcd."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from bqec.analysis import _doubling_resultant  # noqa: E402
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


def _sylvester_resultant(f, g):
    """Resultant of two binary quartics given by their coefficients, the
    determinant of their 8x8 Sylvester matrix by Bareiss elimination."""
    m = [[0] * i + f + [0] * (3 - i) for i in range(4)]
    m += [[0] * i + g + [0] * (3 - i) for i in range(4)]
    sign, prev = 1, 1
    for k in range(7):
        pivot = next((i for i in range(k, 8) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, 8):
            for j in range(k + 1, 8):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[7][7]


coefficients = st.integers(min_value=-10 ** 4, max_value=10 ** 4)


@given(st.integers(min_value=1, max_value=60), coefficients, coefficients, coefficients,
       st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_doubling_gcd_divides_resultant(D, c2, c4, c6, U, V):
    # num and den of one height doubling step at x = U/V, as quartics in
    # (U, V), on the model with b-invariants c2/D, c4/D, c6/D
    num_coeffs = [4 * D * D, 0, -4 * D * c4, -8 * D * c6, c4 * c4 - c2 * c6]
    den_coeffs = [0, 16 * D * D, 4 * D * c2, 8 * D * c4, 4 * D * c6]
    R = _doubling_resultant(D, c2, c4, c6)
    assert R == _sylvester_resultant(num_coeffs, den_coeffs)
    assume(R != 0 and gcd(U, V) == 1)  # a nonsingular model, x in lowest terms
    num, den = (sum(c * U ** (4 - i) * V ** i for i, c in enumerate(coeffs))
                for coeffs in (num_coeffs, den_coeffs))
    assert R % gcd(num, den) == 0
