"""Exception types shared across the package."""


class SubflowError(Exception):
    """Base class for all package errors."""


class ShapeError(SubflowError):
    """Operand shapes are incompatible with the requested operation."""


class NumericsError(SubflowError):
    """A computation produced NaN/Inf or an otherwise invalid numeric state."""


class FormatError(SubflowError):
    """A binary or text artifact violates its declared layout."""


class StateError(SubflowError):
    """An optimizer step found a parameter with no gradient (`Adam.step`)."""
