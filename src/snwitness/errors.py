"""Exception types shared across the package."""


class SnWitnessError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SnWitnessError):
    """Shapes or dimension metadata of the operands do not match."""


class DegenerateStateError(SnWitnessError):
    """An operation that needs a nonzero state vector received the zero vector."""


class NotHermitianError(SnWitnessError):
    """A Hermitian operator was required but the input is not Hermitian."""


class ParameterError(SnWitnessError):
    """A scalar argument is outside its admissible range."""


class PreconditionError(SnWitnessError):
    """An input violates a precondition of the computation it was passed to."""
