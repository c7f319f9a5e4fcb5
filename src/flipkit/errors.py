"""Shared exception types."""


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class CapExceeded(RuntimeError):
    """A size cap guarding an exhaustive computation was exceeded.

    This is a refusal, not a silent truncation: the caller must either
    shrink the input or raise the cap.  The part cap is raised per call by
    ``max_parts`` (CLI: ``dist --max-parts``, ``break --part-cap``) or by
    ``FLIPKIT_MAX_PARTS``; a cap that is not an integer >= 1 is a
    ``DomainError``.  Every one is raised by ``graphs._check_cap``.
    """
