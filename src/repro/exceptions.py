"""Exception hierarchy for the ``repro`` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from geometric or
protocol-level failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A system configuration violates a structural requirement.

    Examples: a negative number of processes, a dimension of zero, or a fault
    bound larger than the process count.
    """


class ResilienceError(ConfigurationError):
    """The (n, f, d) configuration does not meet the resilience bound required
    by the algorithm being instantiated.

    The paper's bounds (Theorems 1, 3, 4, 5 and 6) are enforced at
    construction time by the protocol classes; violating them raises this
    error unless the caller explicitly opts into an under-provisioned run
    (which the impossibility experiments do).
    """


class GeometryError(ReproError):
    """A geometric computation failed or was called with invalid input."""


class EmptyIntersectionError(GeometryError):
    """The requested intersection of convex hulls is empty.

    Raised by safe-area computations when ``Gamma(Y)`` is empty, which the
    paper proves can only happen when ``|Y| < (d+1)f + 1``.
    """


class LinearProgramError(GeometryError):
    """An underlying linear program terminated abnormally.

    Carries the solver status message so callers can distinguish genuine
    infeasibility (often a meaningful geometric answer) from numerical
    failure.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ProtocolError(ReproError):
    """A protocol run reached an inconsistent internal state."""


class AgreementViolation(ProtocolError):
    """Non-faulty processes decided on different values.

    Only raised by the *verification* layer (:mod:`repro.core.validity`), never
    swallowed by the algorithms themselves.
    """


class TerminationError(ProtocolError):
    """A protocol failed to terminate within the simulator's step budget."""


class ByzantineBehaviorError(ReproError):
    """An adversary strategy was asked to act in a state it cannot handle."""


class SchedulerError(ReproError):
    """The asynchronous scheduler was driven into an invalid state."""
