"""Exception types shared across the package."""


class SipmError(Exception):
    """Base class for all errors raised by this package."""


class NotInterior(SipmError):
    """A point sits on or outside a finite bound where strict interiority is required."""


class EmptyNeighborhood(SipmError):
    """The requested inner neighborhood margin leaves no feasible points."""


class HorizonExceeded(SipmError):
    """A schedule was evaluated outside its iteration horizon."""


class InvalidMu1(SipmError):
    """The initial barrier parameter is below the terminal floor."""


class InvalidTheta0(SipmError):
    """The initial neighborhood margin is not positive, or too large for the box."""


class NotInPriorNeighborhood(SipmError):
    """The iterate violates the previous iteration's neighborhood contract."""


class InfeasibleStart(SipmError):
    """The starting point is outside the initial inner neighborhood."""


class ThetaTooLarge(SipmError):
    """theta_0 must be strictly smaller than half the box range."""


class InvariantViolation(SipmError):
    """A per-iteration solver invariant failed while auditing was enabled."""

    def __init__(self, k, message):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


class InvalidBudget(SipmError, ValueError):
    """An experiment's iteration budget or batch fraction is out of range."""


class InvalidChoice(SipmError, ValueError):
    """A string option names none of its allowed values."""

    def __init__(self, name, value, allowed):
        super().__init__(f"{name}={value!r} is not one of {', '.join(map(repr, allowed))}")


class InvalidExponents(SipmError, ValueError):
    """A power schedule's exponents lie outside the admissible region of the run's mode."""


class NonFiniteGradient(SipmError):
    """The gradient oracle returned a NaN or infinite entry."""

    def __init__(self, k, message):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


class ThetaLinkViolation(SipmError):
    """The simplified variant requires theta <= c * mu."""


class DomainError(SipmError):
    """An argument leaves the mathematical domain of the operation."""


class DimensionMismatch(SipmError):
    """Array shapes are inconsistent with the model dimensions."""


class BatchTooLarge(SipmError):
    """Mini-batch size must lie in [1, sample count]."""


class MalformedLine(SipmError):
    """A data line could not be parsed."""

    def __init__(self, line_number, reason):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class NonIncreasingIndex(SipmError):
    """Feature indices within a data line must be strictly increasing."""

    def __init__(self, line_number):
        super().__init__(f"line {line_number}: feature indices must be strictly increasing")
        self.line_number = line_number


class NotBinary(SipmError):
    """The dataset does not carry a usable binary label set."""


class LabelMismatch(SipmError):
    """A test label value does not occur in the training data."""
