"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when inputs violate a documented precondition (shape, range, emptiness)."""


class NotFittedError(InvalidInputError):
    """Raised when a model is used before ``fit``."""


class ContractViolationError(RuntimeError):
    """Raised when structural invariants between objects are broken (e.g. a
    strategy that no run of the decision loop could have produced)."""


class StreamParseError(InvalidInputError):
    """Raised on malformed stream or results CSV input; carries the offending row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row

