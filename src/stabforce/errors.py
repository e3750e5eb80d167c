"""Exception types shared across the package."""


class OrdinalSyntaxError(ValueError):
    """Input text does not match the ordinal grammar."""


class NonCanonicalError(ValueError):
    """Input text is grammatical but not the canonical spelling of its value."""


class EmptySetError(ValueError):
    """sup / has_max queried on an empty interval set."""


class OutOfBoundsError(ValueError):
    """Ordinal argument lies outside a system's universe [0, top]."""


class InvalidConditionError(ValueError):
    """Operation requires valid stability systems."""


class OutOfRangeError(ValueError):
    """Extension target below the current top, or at/beyond kappa."""


class NotDescendingError(ValueError):
    """Chain presentation is not a descending sequence of conditions."""


class BadTargetError(ValueError):
    """Chain target is not a limit at or above the last condition's top."""


class TargetNotReachableError(ValueError):
    """Requested value does not sit below the new top in the required tree order."""


class BudgetExhaustedError(RuntimeError):
    """meet_dense ran out of budget before satisfying every dense set."""


class InvalidIntermediateError(RuntimeError):
    """A construction stage produced an invalid stability system."""


class BoundTooLargeError(ValueError):
    """Brute-force oracle only handles bounds below w*M."""
