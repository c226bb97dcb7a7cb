"""Open-loop load generator: a seeded arrival schedule and a few clients.

Requests arrive on a Poisson schedule fixed in advance from the seed,
whatever the system does, so a stall shows as queueing on the requests
behind it.  Each request's latency runs from its *due* time, not from
when a client got round to sending it; how late the clients dispatched
(``lateness``) and how many due requests were waiting for a free client
(``backlog``) are reported so a slow generator cannot pass for a fast
system.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """Which user asks, and when (seconds after the window opens)."""

    users: np.ndarray
    due: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(np.ascontiguousarray(self.users, dtype=np.int64).tobytes())
        hasher.update(np.ascontiguousarray(self.due, dtype=np.float64).tobytes())
        return hasher.hexdigest()

    def repeat_frac(self) -> float:
        """Share of requests whose user already asked earlier."""
        if len(self.users) == 0:
            return 0.0
        return 1.0 - len(np.unique(self.users)) / len(self.users)


def make_schedule(
    num_users: int, rate: float, count: int, skew: float, seed: int
) -> Schedule:
    """``count`` Poisson arrivals at ``rate``/s over Zipf(``skew``) users.

    ``skew = 0`` draws users uniformly.  For ``skew > 0`` the popularity
    ranks are assigned to users by a seeded permutation, so the hot users
    are not simply the lowest ids.
    """
    if rate <= 0 or count < 1:
        raise ValueError("a schedule needs a positive rate and count")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=count)
    due = np.cumsum(gaps) - gaps[0]
    if skew > 0:
        weights = np.arange(1, num_users + 1, dtype=np.float64) ** -skew
        ranks = rng.choice(num_users, size=count, p=weights / weights.sum())
        users = rng.permutation(num_users)[ranks]
    else:
        users = rng.integers(0, num_users, size=count)
    return Schedule(users.astype(np.int64), due)


@dataclass
class LoadResult:
    """Per-request timings (seconds, relative to the window start) and
    whatever each call returned or raised."""

    schedule: Schedule
    dispatch: np.ndarray
    done: np.ndarray
    responses: List[Any] = field(repr=False)
    errors: List[Optional[str]] = field(repr=False)

    @property
    def latency(self) -> np.ndarray:
        return self.done - self.schedule.due

    @property
    def lateness(self) -> np.ndarray:
        return self.dispatch - self.schedule.due

    @property
    def backlog(self) -> np.ndarray:
        """Due-but-unsent requests at each dispatch (this one excluded)."""
        due_by = np.searchsorted(self.schedule.due, self.dispatch, side="right")
        return due_by - np.arange(1, len(self.dispatch) + 1)


def run_open_loop(
    call: Callable[[int], Any],
    schedule: Schedule,
    threads: int,
    ledger: Any = None,
) -> LoadResult:
    """Drive ``call(user)`` over ``schedule`` with ``threads`` clients.

    Clients take requests in schedule order, sleep until each is due,
    and call synchronously.  An exception is recorded against its
    request and the client carries on.  With a ledger, each client is a
    traced thread and its sleeps are the ``loadgen.idle`` row.
    """
    count = len(schedule)
    dispatch = np.zeros(count)
    done = np.zeros(count)
    responses: List[Any] = [None] * count
    errors: List[Optional[str]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.005

    def idle(seconds: float) -> None:
        if ledger is None:
            time.sleep(seconds)
        else:
            with ledger.span("loadgen.idle"):
                time.sleep(seconds)

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= count:
                return
            wait = start + schedule.due[index] - time.perf_counter()
            if wait > 0:
                idle(wait)
            dispatch[index] = time.perf_counter() - start
            try:
                responses[index] = call(int(schedule.users[index]))
            except Exception as err:  # recorded per request, run goes on
                errors[index] = f"{type(err).__name__}: {err}"
            done[index] = time.perf_counter() - start

    def traced_client() -> None:
        if ledger is None:
            client()
        else:
            with ledger.thread():
                client()

    workers = [
        threading.Thread(target=traced_client, name=f"perfbench-client-{i}")
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return LoadResult(schedule, dispatch, done, responses, errors)
