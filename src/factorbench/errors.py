"""Shared exception types."""


class GraphFormatError(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CapExceeded(RuntimeError):
    """An enumeration cap was exceeded.  Caps are explicit per-call limits;
    exceeding one is an error, never a silent skip."""


class SearchBudgetExceeded(RuntimeError):
    """Raised by nothing any more: every factor is now built in polynomial
    time.  It stays defined and exported because bench/workloads.py and
    bench/layertrace.py name it."""
