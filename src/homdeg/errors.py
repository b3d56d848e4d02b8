"""Exception types shared across the package."""


class HomdegError(Exception):
    """Base class for all package errors."""


class RingMismatchError(HomdegError):
    """Operands live over different rings or ambients."""


class InhomogeneousError(HomdegError):
    """Graded computations require homogeneous input."""

    def __init__(self, what="input"):
        super().__init__(
            f"graded surrogate requires homogeneous data: {what} is not homogeneous"
        )


class DegreeCapError(HomdegError):
    """A Groebner computation exceeded the configured degree cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"computation exceeded the degree cap {cap}")


class EngineBugError(HomdegError):
    """Two independent computations of the same value disagree, or a proven
    inequality failed.  This always signals a bug in the engine, never bad
    user input."""


class DslError(HomdegError):
    """Input script error with position information."""

    def __init__(self, msg, line, col):
        self.msg = msg
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {msg}")
