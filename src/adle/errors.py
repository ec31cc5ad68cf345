"""Exception types shared across the library."""

from __future__ import annotations


class AdleError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(AdleError):
    """A noise covariance matrix is not symmetric positive definite."""

    def __init__(self, agent: int, min_eigenvalue: float, reason: str = ""):
        self.agent = agent
        self.min_eigenvalue = min_eigenvalue
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"noise covariance of agent {agent} is not positive definite: "
            f"smallest eigenvalue {min_eigenvalue:.6g}{detail}"
        )


class NotGloballyObservable(AdleError):
    """The pooled observation model has a singular normalized Grammian."""

    def __init__(self, min_eigenvalue: float, max_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        self.max_eigenvalue = max_eigenvalue
        super().__init__(
            "observation model is not globally observable: normalized Grammian "
            f"has smallest eigenvalue {min_eigenvalue:.6g} "
            f"(largest {max_eigenvalue:.6g})"
        )


class NotMeanConnected(AdleError):
    """The mean Laplacian of a random topology has no spectral gap."""

    def __init__(self, fiedler: float):
        self.fiedler = fiedler
        super().__init__(
            f"topology is not connected on average: lambda_2 of the mean "
            f"Laplacian is {fiedler:.6g}"
        )


class ScheduleViolation(AdleError):
    """One or more weight-sequence constraints are violated.

    ``violations`` lists ``(description, slack)`` pairs; a negative slack
    quantifies by how much the corresponding inequality fails.
    """

    def __init__(self, violations: list[tuple[str, float]]):
        self.violations = violations
        lines = "; ".join(f"{desc} (slack {slack:.6g})" for desc, slack in violations)
        super().__init__(f"invalid weight schedule: {lines}")


class TrialDiverged(AdleError):
    """A trial broke down numerically: its estimates or Grammians, or the
    checkpoint diagnostics computed from them, became non-finite
    (overflow or NaN), or a gain solve met an exactly singular matrix.

    ``trial`` is the trial index ``k`` (its random stream derives from
    ``(master_seed, k)``); ``step`` is the first checkpoint at which a
    non-finite value was seen, or the step whose state held the singular
    matrix; ``cause`` says which of the two it was.
    """

    NON_FINITE = "non-finite estimates, Grammians or diagnostics at checkpoint"
    SINGULAR = "singular matrix in the gain solve at"

    def __init__(self, trial: int, step: int, cause: str = NON_FINITE):
        self.trial = trial
        self.step = step
        self.cause = cause
        super().__init__(trial, step, cause)  # picklable across worker processes

    def __str__(self) -> str:
        return f"trial {self.trial} diverged: {self.cause} step {self.step}"


class InvalidExponent(AdleError):
    """Exponent or coefficient outside the admissible range of a recursion."""


class ParseError(AdleError):
    """A scenario file could not be read or parsed."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}" if where else message)


class ValidationError(AdleError):
    """A parsed scenario failed validation; collects every failure found."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__(
            "invalid scenario configuration:\n" + "\n".join(f"  - {e}" for e in errors)
        )
