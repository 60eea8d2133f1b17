"""Exception types shared across the package."""


class SampledOcpError(Exception):
    """Base class for all package-specific errors."""


class ProblemLookupError(SampledOcpError, LookupError):
    """Unknown catalog problem name."""


class ConfigFormatError(SampledOcpError, ValueError):
    """Malformed problem configuration file.

    The message carries the file path and, when available, the offending
    line or key so scripts can surface an anchored diagnostic.
    """


class MembershipError(SampledOcpError, ValueError):
    """A control value lies outside the control set beyond tolerance."""


class GridAlignmentError(SampledOcpError, ValueError):
    """A time grid does not contain the required sampling times, or
    cannot be built for them."""


class CoverageError(SampledOcpError, ValueError):
    """A control signal does not cover the required time interval."""


class IntegrationDivergedError(SampledOcpError, RuntimeError):
    """State blow-up during ODE propagation."""

    def __init__(self, message, t_bad=None):
        super().__init__(message)
        self.t_bad = t_bad


class TrivialLiftError(SampledOcpError, ValueError):
    """Costate pair (p, p0) is trivial: p(T) = 0 and p0 = 0."""


class SolverError(SampledOcpError, RuntimeError):
    """Base class for sampled-solver failures."""


class InfeasibleStalledError(SolverError):
    """Terminal feasibility stopped improving; the target may be
    unreachable with piecewise-constant controls on this partition."""


class MaxIterationsError(SolverError):
    """Iteration budget exhausted before reaching tolerances."""


class MultiplierDivergedError(SolverError):
    """Constraint multiplier diverged; possible abnormality or
    unreachable target."""


class OracleError(SampledOcpError, RuntimeError):
    """Base class for reference-oracle failures."""


class UnreachableTargetError(OracleError):
    """Shooting/KKT system singular or hopelessly ill-conditioned."""


class SurrogateRejectedError(OracleError):
    """Fine-partition surrogate failed its self-consistency check."""
