"""Exception types shared across the package."""


class AporbitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(AporbitError):
    """Inputs whose dimensions disagree (point vs grid vs map)."""


class OutOfRange(AporbitError):
    """A coordinate lies outside [-1, 1] beyond the clamp band."""


class RangeViolation(AporbitError):
    """A map output (or orbit iterate) left [-1, 1]^d.

    Carries the step index when raised during orbit generation.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ParseError(AporbitError):
    """Malformed expression source; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(ParseError):
    """Identifier that is neither a variable x1..xd nor a known function."""


class ArityError(ParseError):
    """Function called with the wrong number of arguments."""


class EvaluationError(AporbitError):
    """Expression evaluation failed (division by a near-zero denominator,
    or sin/cos of an infinite value)."""


class DanglingState(AporbitError):
    """The chain reached a state with no recorded outgoing transition."""

    def __init__(self, message, state=None, t=None):
        super().__init__(message)
        self.state = state
        self.t = t


class NotPeriodic(AporbitError):
    """An operation requiring a certified periodic chain got none."""


class BeforePhaseOrigin(AporbitError):
    """Trigonometric form evaluated at t below its phase origin."""


class Overflow(AporbitError):
    """An integer quantity (e.g. an lcm of periods) exceeded sane limits."""


class RootFindingFailed(AporbitError):
    """Characteristic roots failed the residual test or the conjugate pairing."""


class IllConditioned(AporbitError):
    """Linear solve refused; carries the condition estimate."""

    def __init__(self, message, condition):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class RefusedUnbounded(AporbitError):
    """Decomposition refused because the recurrence is classified unbounded."""
