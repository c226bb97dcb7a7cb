"""Per-layer ledger built by wrapping public functions from outside.

A :class:`Ledger` replaces chosen attributes (methods, module-level
functions) with timing wrappers for the traced run only, and restores
the originals on :meth:`Ledger.restore`.  Each wrapped call is a span on
the calling thread's stack: its *busy* time is its duration, its *self*
time is the duration minus the time of wrapped calls nested inside it.
Only threads registered with :meth:`Ledger.thread` are traced; calls on
other threads (the pool supervisor's heartbeats, say) pass through
untouched, so every recorded span belongs to a traced thread whose
whole lifetime is one root span.  Root self time is the time no layer
claimed: ``unattributed_s``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Ledger:
    """Busy/self times and call counts per layer name."""

    ROOT = "unattributed"

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.thread_wall = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> Optional[List[_Frame]]:
        return getattr(self._local, "stack", None)

    def active(self) -> bool:
        return bool(self._stack())

    def in_span(self, name: str) -> bool:
        stack = self._stack()
        return bool(stack) and any(frame.name == name for frame in stack)

    def _close(self, frame: _Frame, end: float, stack: List[_Frame]) -> float:
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.busy[frame.name] = self.busy.get(frame.name, 0.0) + duration
            self.self_time[frame.name] = (
                self.self_time.get(frame.name, 0.0) + duration - frame.child
            )
            self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        return duration

    @contextmanager
    def span(self, name: str):
        """Time a block as layer ``name`` (no-op off traced threads)."""
        stack = self._stack()
        if not stack:
            yield
            return
        frame = _Frame(name, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            stack.pop()
            self._close(frame, time.perf_counter(), stack)

    @contextmanager
    def thread(self):
        """Register the calling thread as a traced thread for the block.

        The block is the thread's root span; its wall time adds to
        :attr:`thread_wall`, the total the ledger rows must sum to.
        """
        frame = _Frame(self.ROOT, time.perf_counter())
        self._local.stack = [frame]
        try:
            yield
        finally:
            self._local.stack = None
            duration = self._close(frame, time.perf_counter(), [])
            with self._lock:
                self.thread_wall += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` is a layer name or a callable ``(args, kwargs) -> name``
        for layers whose name depends on the caller's context.  Inside
        the span, ``before(args, kwargs)`` runs ahead of the call and
        ``after(result, args, kwargs)`` behind it, for counters read off
        the call.
        """
        original = owner.__dict__.get(attr, _MISSING)
        function = getattr(owner, attr)
        ledger = self

        def wrapper(*args, **kwargs):
            if not ledger.active():
                return function(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            with ledger.span(label):
                if before is not None:
                    before(args, kwargs)
                result = function(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = function
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_iterator(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a method returning an iterator so each ``next`` is a span."""
        ledger = self
        original = owner.__dict__.get(attr, _MISSING)
        function = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            if not ledger.active():
                return iterator
            return _TimedIterator(ledger, name, iterator)

        wrapper.__wrapped__ = function
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def rows(self) -> Dict[str, float]:
        """Self time per layer, ``unattributed`` included."""
        return dict(sorted(self.self_time.items()))

    def check_sum(self, tolerance: float = 0.05) -> Tuple[bool, float]:
        """Rows must sum to the traced threads' wall time within
        ``tolerance``; returns (ok, relative error)."""
        total = sum(self.self_time.values())
        if self.thread_wall <= 0:
            return False, float("inf")
        error = abs(total - self.thread_wall) / self.thread_wall
        return error <= tolerance, error


class _TimedIterator:
    __slots__ = ("_ledger", "_name", "_iterator")

    def __init__(self, ledger: Ledger, name: str, iterator: Any) -> None:
        self._ledger = ledger
        self._name = name
        self._iterator = iterator

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        with self._ledger.span(self._name):
            return next(self._iterator)
