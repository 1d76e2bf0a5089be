"""The failures with exit codes of their own, apart so the CLI can catch them cheaply."""


class PreconditionError(ValueError):
    """An arithmetic precondition of a family does not hold for these parameters."""


class VerificationError(RuntimeError):
    """A result failed its independent check (a family run or a density count)."""
