"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericalError -> 4.  OverflowGuardError, a NumericalError, is raised only by
``poisson.poisson_loglik`` and ``poisson.loglik_grad_hess``; the fit kernel
flags such rows for its ridge fallback instead, so no command exits 4
through the guard.
"""


class CitetrajError(Exception):
    """Base class for all package errors."""


class ConfigError(CitetrajError):
    """Invalid configuration: bad flag values, inconsistent options."""


class DataError(CitetrajError):
    """Invalid input data: malformed files, violated invariants."""


class NumericalError(CitetrajError):
    """Numerical failure: singular systems, divergence, overflow."""


class OverflowGuardError(NumericalError):
    """Linear predictor exceeded the exp() overflow guard (eta > 700).

    Raised only by ``poisson.poisson_loglik`` and ``poisson.loglik_grad_hess``;
    the fits flag such rows for the ridge fallback instead of raising.
    """


class StageError(CitetrajError):
    """Pipeline stage failure; wraps the original error with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
