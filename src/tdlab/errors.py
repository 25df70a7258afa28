"""Exception taxonomy shared across the package.

Two families: validation errors mean the inputs violate a documented
contract and the computation never started; compute errors mean a
numerical procedure ran and failed, or produced something unusable.
The command-line layer maps the families to exit codes 1 and 2.
"""


class TDLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TDLabError):
    """Input or configuration violates a documented contract."""


class ComputeError(TDLabError):
    """A numerical procedure failed at runtime."""


class NotStochastic(ValidationError):
    """A transition-matrix row does not sum to one, or has entries outside [0, 1]."""


class NotIrreducible(ValidationError):
    """The support digraph of the transition matrix is not strongly connected."""


class Periodic(ValidationError):
    """The chain has period greater than one."""


class AssumptionViolated(ValidationError):
    """The feature-scaling condition required for contraction does not hold."""


class InfeasibleStart(ValidationError):
    """The requested start index does not satisfy the bound's feasibility condition."""


class ConfigError(ValidationError):
    """A problem configuration file failed to parse or cross-validate."""


class SolverFailure(ComputeError):
    """A linear solve was singular, ill-conditioned, or left a large residual."""


class NonFinite(ComputeError):
    """An iterate overflowed or became NaN; carries the step index in the message."""


class WorkerDied(ComputeError):
    """A worker process of an ensemble ended abruptly; the message names its exit code."""


class SeriesDivergence(ComputeError):
    """An infinite tail sum has non-decaying terms and cannot be truncated."""


class InsufficientTailData(ComputeError):
    """Every empirical tail frequency is 0 or 1, so no exponent can be fit."""
