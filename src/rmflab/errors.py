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


def require_memory(requested: int, what: str) -> None:
    """Raise ResourceError if `what` needs more bytes than the host's
    physical memory, as os.sysconf reports it; called before allocating."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no sysconf on this platform: nothing to check against
    if requested > physical:
        raise ResourceError(
            f"{what} needs {requested} bytes, more than the {physical} bytes of physical memory",
            requested_bytes=requested,
        )
