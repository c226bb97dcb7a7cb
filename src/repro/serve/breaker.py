"""Circuit breaker guarding the live-scoring path.

Classic three-state design (closed → open → half-open):

- **closed** — requests flow; ``failure_threshold`` *consecutive*
  failures trip the breaker open;
- **open** — requests are rejected without touching the model, shielding
  a struggling backend from pile-on load; after ``recovery_time``
  seconds the breaker moves to half-open;
- **half-open** — up to ``half_open_probes`` trial requests are let
  through; if all succeed the breaker closes, any failure re-opens it
  (and restarts the recovery clock).

The clock is injectable so tests drive transitions deterministically,
and every transition is reported through ``on_transition`` so the
serving layer can count them (`serve.breaker.*` counters).

Thread safety: one reentrant mutex serialises the whole
allow/record/transition protocol — ``allow`` in half-open is a
check-then-act on the probe budget (two unsynchronised probes could
both pass a ``half_open_probes=1`` gate), and the consecutive-failure
counter must not lose increments under concurrent scoring threads.
``on_transition`` fires while the lock is held; callbacks must not call
back into the breaker (counter bumps, the only production use, do not).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..concurrency import guarded_by, new_rlock, shared_state

#: Breaker state names (also used in health reports and counters).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpen(RuntimeError):
    """Raised internally when the breaker rejects a request."""


@shared_state(guard="_lock")
class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed recovery.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        recovery_time: seconds the breaker stays open before probing.
        half_open_probes: successful probes required to close again.
        clock: monotonic time source (injectable for tests).
        on_transition: ``callback(old_state, new_state)`` invoked on
            every state change.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_time: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_time < 0:
            raise ValueError(f"recovery_time must be >= 0, got {recovery_time}")
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._on_transition = on_transition
        self._lock = new_rlock("serve.CircuitBreaker")
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, accounting for recovery-time expiry."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @guarded_by("_lock")
    def _transition(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if new_state == HALF_OPEN:
            self._probes_in_flight = 0
            self._probe_successes = 0
        if new_state == CLOSED:
            self._failures = 0
        if new_state == OPEN:
            self._opened_at = self._clock()
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    @guarded_by("_lock")
    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._transition(HALF_OPEN)

    # ------------------------------------------------------------------
    # request protocol: allow() then record_success()/record_failure()
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the next request may use the live path."""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        """Report a live request that succeeded."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._transition(CLOSED)
            else:
                self._failures = 0

    def record_failure(self) -> None:
        """Report a live request that failed (error or deadline miss)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(OPEN)
                return
            self._failures += 1
            if (
                self._state == CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._transition(OPEN)

    def reset(self) -> None:
        """Force-close the breaker (admin/testing hook)."""
        with self._lock:
            self._transition(CLOSED)
            self._failures = 0
