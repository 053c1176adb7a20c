"""Exception types shared across the package, and the memory check.

The CLI maps these onto exit codes: DomainError (and subclasses) exit with 3,
I/O problems with 4, argparse usage errors with 2.
"""

import os


class DomainError(ValueError):
    """A precondition on an operation's arguments was violated."""


class MissingSignError(DomainError):
    """An explicit sign assignment was queried at a prime it does not cover."""


class ResourceError(RuntimeError):
    """An allocation exceeded what the host can provide."""

    def __init__(self, message: str, requested_bytes: int | None = None):
        super().__init__(message)
        self.requested_bytes = requested_bytes


def physical_memory() -> int | None:
    """The host's physical memory in bytes, as os.sysconf reports it; None
    where there is no sysconf, and so nothing to check against."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(requested: int, what: str) -> None:
    """Raise ResourceError if `what` needs more bytes than the host's
    physical memory; called before allocating."""
    physical = physical_memory()
    if physical is not None and requested > physical:
        raise ResourceError(
            f"{what} needs {requested} bytes, more than the {physical} bytes of physical memory",
            requested_bytes=requested,
        )
