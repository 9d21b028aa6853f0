"""Exception types shared across the package.

The CLI maps these onto its exit codes: invalid input (2), domain
rejection (3), size-cap violations (4).
"""


class SingularCurve(ValueError):
    """A Weierstrass model with vanishing discriminant."""


class SingularParameter(SingularCurve):
    """A family or subfamily parameter that lands on a singular curve."""


class ExcludedParameter(ValueError):
    """A parameter outside the domain of a parametrization."""


class PointNotOnCurve(ValueError):
    """An affine point that does not satisfy the curve equation exactly."""


class BadPrime(ValueError):
    """A prime unusable for reduction (too small, or divides a denominator)."""


class BadReduction(ValueError):
    """A prime dividing the discriminant of the model being reduced."""


class NotPitot(ValueError):
    """A quadrilateral whose opposite sides do not satisfy a+c = b+d."""


class IrrationalN(ValueError):
    """A quadrilateral whose circumradius/inradius ratio is irrational."""


class NotRealizable(ValueError):
    """A curve point whose recovered quadrilateral has a non-positive side."""

    def __init__(self, side_name, value):
        self.side_name = side_name
        self.value = value
        super().__init__(f"side {side_name} = {value} is not positive")


class ZeroU(ValueError):
    """The x = 0 point, where the semiperimeter map has a pole."""


class MapPole(ValueError):
    """A point at a pole of a rational map."""


class NotASquare(ArithmeticError):
    """A quantity that should have been a rational square but is not."""


class OutOfRange(ValueError):
    """A parameter outside the interval a construction is valid on."""


class InfinityPoint(ValueError):
    """The point at infinity where an affine point is required."""


class DigitCapExceeded(OverflowError):
    """Exact coordinates outgrew the configured decimal-digit cap."""


class SizeCapExceeded(OverflowError):
    """A request for work beyond a fixed size cap, such as the sieve's prime bound."""
