"""Concurrency annotations and the project-wide lock factory.

This module is the shared vocabulary between the static concurrency
pass (:mod:`repro.analysis.concurrency`, rules LNT006–LNT010) and the
dynamic lockset sanitizer (:mod:`repro.testing.lockset`):

- :func:`shared_state` marks a class as touched by multiple threads.
  The static pass then requires every attribute mutation outside
  ``__init__`` to happen while the class's guard lock is held, and the
  sanitizer instruments the class's ``__setattr__`` when armed.
- :func:`guarded_by` declares "callers invoke this with the named lock
  already held" on internal ``_locked``-style helpers, so both halves
  treat the body as protected instead of flagging it.
- :func:`new_lock` / :func:`new_rlock` are the lock constructors every
  annotated class uses.  They return plain :mod:`threading` primitives
  in production; while the sanitizer is armed they return instrumented
  ``SanitizedLock`` objects so lockset intersection and the lock-order
  watchdog see every acquisition.

Everything here is dependency-free and costs nothing at runtime unless
the sanitizer arms itself: decorators only attach metadata, and the
factory indirection is a single module-global check per lock
*construction* (never per acquisition).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class ConcurrencyAnnotation:
    """Metadata :func:`shared_state` attaches to a class."""

    guard: Optional[str] = None
    exempt: Tuple[str, ...] = ()


#: Classes registered via :func:`shared_state`, for the sanitizer to
#: instrument at arm time.  Keyed by the class object itself.
SHARED_CLASSES: Dict[type, ConcurrencyAnnotation] = {}

#: Hook the sanitizer installs; ``None`` means plain threading locks.
_lock_factory: Optional[Callable[[str, bool], Any]] = None


def shared_state(cls: Optional[type] = None, *, guard: Optional[str] = None,
                 exempt: Tuple[str, ...] = ()):
    """Mark a class as mutated from multiple threads.

    Args:
        guard: attribute name of the lock protecting the class's state
            (default: the single lock-named attribute assigned in
            ``__init__``, as discovered by the static pass).
        exempt: attribute names excluded from lock-discipline checking —
            per-thread state (``threading.local`` holders) and
            self-synchronizing primitives (``threading.Event``).

    Usable bare (``@shared_state``) or configured
    (``@shared_state(guard="_lock", exempt=("_local",))``).
    """

    def mark(klass: type) -> type:
        annotation = ConcurrencyAnnotation(guard=guard, exempt=tuple(exempt))
        SHARED_CLASSES[klass] = annotation
        klass.__concurrency__ = annotation
        return klass

    if cls is not None:
        return mark(cls)
    return mark


def guarded_by(lock_attr: str):
    """Declare that callers hold ``self.<lock_attr>`` around this call.

    Decorate internal helpers that are only reached from inside a
    ``with self._lock:`` block; the static pass treats their bodies as
    already protected and the deadlock watchdog inherits the claim.
    """

    def mark(func):
        func.__guarded_by__ = lock_attr
        return func

    return mark


def new_lock(name: str = "lock") -> Any:
    """A mutex for one annotated class instance.

    Plain ``threading.Lock`` in production; a ``SanitizedLock`` while
    :mod:`repro.testing.lockset` is armed.  ``name`` labels the lock in
    sanitizer reports (conventionally ``"subsystem.ClassName"``).
    """
    factory = _lock_factory
    if factory is not None:
        return factory(name, False)
    return threading.Lock()


def new_rlock(name: str = "rlock") -> Any:
    """Reentrant variant of :func:`new_lock` (same instrumentation)."""
    factory = _lock_factory
    if factory is not None:
        return factory(name, True)
    return threading.RLock()


def require_fork_start_method(feature: str) -> None:
    """Fail fast when the platform cannot ``fork``.

    The serving process pool relies on copy-on-write ``fork``
    semantics: workers inherit the live model builder and its numpy
    arrays without pickling.  Under ``spawn`` (the only method on some
    platforms) a child re-imports the world instead, so none of that
    state would exist and the worker would serve a different model
    than the parent thinks it launched.

    Args:
        feature: human-readable name of the subsystem asking, used in
            the error message.

    Raises:
        RuntimeError: when ``fork`` is not among the platform's
            available multiprocessing start methods.
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if "fork" not in available:
        raise RuntimeError(
            f"{feature} requires the 'fork' multiprocessing start method, "
            f"but this platform only offers {available}; run with the "
            "in-process 'thread' backend (or on a fork-capable OS) instead"
        )


def set_lock_factory(
    factory: Optional[Callable[[str, bool], Any]]
) -> Optional[Callable[[str, bool], Any]]:
    """Install (or clear, with ``None``) the lock factory hook.

    Returns the previous factory so callers can restore it.  Only the
    sanitizer should need this.
    """
    global _lock_factory
    previous, _lock_factory = _lock_factory, factory
    return previous


__all__ = [
    "ConcurrencyAnnotation",
    "SHARED_CLASSES",
    "guarded_by",
    "new_lock",
    "new_rlock",
    "require_fork_start_method",
    "set_lock_factory",
    "shared_state",
]
