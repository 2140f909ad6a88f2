"""Thread-scoped cooperative deadlines for compilation jobs.

:func:`deadline` records a monotonic expiry for the current thread;
:func:`check_deadline`, polled by the compiler's long loops, raises
:class:`~repro.exceptions.JobTimeoutError` once it has passed.  Nothing
is delivered asynchronously, so the budget holds on every thread and
executor and never interrupts an import or a half-updated structure; a
job stops at its next check.  A leaf module (it imports only the
exception taxonomy from :mod:`repro`), so the hot loops can poll without
an import cycle through the batch engine.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .exceptions import JobTimeoutError

__all__ = ["check_deadline", "deadline"]


class _Scope(threading.local):
    """The current thread's open budget (``expiry is None``: none)."""

    expiry: Optional[float] = None
    seconds: float = 0.0


_scope = _Scope()


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound the work on this thread to ``seconds`` of wall clock.

    ``None`` opens no budget.  A nested scope replaces the enclosing
    budget until it closes.
    """
    previous = (_scope.expiry, _scope.seconds)
    if seconds is not None:
        _scope.expiry, _scope.seconds = time.monotonic() + seconds, seconds
    try:
        yield
    finally:
        _scope.expiry, _scope.seconds = previous


def check_deadline() -> None:
    """Raise :class:`JobTimeoutError` if this thread's budget has passed.

    With no budget open this is one attribute read.
    """
    expiry = _scope.expiry
    if expiry is not None and time.monotonic() >= expiry:
        raise JobTimeoutError(
            f"job exceeded the per-job timeout of {_scope.seconds:g}s")
