"""Exception types shared by every module in the package."""


class NormalShiftError(Exception):
    """Base class for all errors raised by this package."""


class DimensionTooSmall(NormalShiftError):
    """Chart dimension is below 3, where the theory does not apply."""


class AsymmetricMetric(NormalShiftError):
    """Metric closure returned a matrix whose asymmetry exceeds tolerance."""


class NotPositiveDefinite(NormalShiftError):
    """Metric matrix failed its Cholesky factorization."""


class ZeroVelocity(NormalShiftError):
    """Velocity modulus fell below the speed floor (excluded point v = 0)."""


class EvaluationFailure(NormalShiftError):
    """A scalar or force field produced a non-finite value."""


class DegenerateWv(NormalShiftError):
    """The speed derivative of the generating scalar is numerically zero."""


class NonMonotoneGauge(NormalShiftError):
    """Gauge reparametrization is not strictly monotone on the needed range."""


class QuadratureFailure(NormalShiftError):
    """Speed quadrature for a generating scalar could not be evaluated."""


class RootNotBracketed(NormalShiftError):
    """No sign change found for the initial-speed equation inside the bracket."""


class DegenerateTangents(NormalShiftError):
    """Surface tangent vectors are linearly dependent at the evaluated point."""


class GridTooCoarse(NormalShiftError):
    """Parameter grid cannot carry the deviation stencil: a range with fewer
    than five points, or one of zero width (lo = hi), whose spacing is 0."""


class TrajectoryEscaped(NormalShiftError):
    """A trajectory left the declared chart box during integration."""


class NonFinite(NormalShiftError):
    """Integration produced a non-finite state."""


class ConfigError(NormalShiftError):
    """Scenario configuration is missing, malformed, or inconsistent."""
