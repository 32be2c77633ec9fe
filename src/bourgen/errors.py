"""Exception hierarchy for bourgen.

Every error raised by the library derives from BourgenError, so callers
(and the CLI) can distinguish library failures from programming errors.
"""


class BourgenError(Exception):
    """Base class for all bourgen errors."""


class DomainError(BourgenError):
    """A point lies outside the declared chart domain (or a finite-difference
    stencil / swept region exits it)."""


class SingularMetricError(BourgenError):
    """Metric determinant is not positive at an evaluated point."""


class DegenerateGradientError(BourgenError):
    """The volume-function gradient vanishes where it must not."""


class TransversalityError(BourgenError):
    """Cauchy data is (nearly) tangent to a characteristic."""


class NewtonDivergenceError(BourgenError):
    """Chart inversion did not converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankDeficiencyError(BourgenError):
    """The (x1,x2) -> (omega,theta) Jacobian is numerically rank deficient."""


class DegenerateParametrizationError(BourgenError):
    """Curve is tangent to the orbits: E - F^2/G is not positive."""


class RadicandNegativeError(BourgenError):
    """The profile ODE radicand went negative: the target metric is not
    realizable at this parameter value.  Carries s and the radicand."""

    def __init__(self, message, s=None, radicand=None):
        super().__init__(message)
        self.s = s
        self.radicand = radicand


class RectExitError(BourgenError):
    """An evaluation point left the declared (omega, theta) rectangle."""


class StepTooLargeError(BourgenError):
    """An integrator stage point left the rectangle although the accepted
    nodes are inside; reduce the step."""


class NotInvariantError(BourgenError):
    """A member map moves x1 or x2 with t: it is not invariant under the
    symmetry flow, which moves x3 only."""


class GridMismatchError(BourgenError):
    """Two objects that must share an s-grid do not."""


class NonConstantVolumeError(BourgenError):
    """The chart's volume function is not constant (or not 1) where a
    constant-volume construction was requested."""


class DomainViolationError(BourgenError):
    """A closed-form radicand or positivity condition fails; carries the
    first failing s and the name of the violated condition."""

    def __init__(self, message, s=None, condition=None):
        super().__init__(message)
        self.s = s
        self.condition = condition


class RangeError(BourgenError):
    """Requested evaluation outside a member's (s,t) range."""


class SpecError(BourgenError):
    """Invalid built-in space specification."""


class ConfigError(BourgenError):
    """Invalid run configuration."""


class ParseError(BourgenError):
    """Expression syntax error; carries the byte offset and the expected
    token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)
