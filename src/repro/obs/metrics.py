"""Counters, gauges, and exponential-bucket histograms.

:class:`MetricsRegistry` is the metric store behind the observability
layer and the one instrument for counts and timings: counters (work
done: steps, requests, degraded answers), gauges (last-value metrics
such as loss or cluster drift) and histograms (phase and request
latencies, fed by :meth:`MetricsRegistry.timed`), all exported by the
Prometheus and JSONL writers in :mod:`repro.obs.export`.

All mutations are lock-protected, matching the thread-safety contract
the serving stack needs under concurrent traffic.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from ..concurrency import new_lock, shared_state


def exponential_buckets(
    start: float = 0.001, factor: float = 2.0, count: int = 14
) -> List[float]:
    """Upper bounds ``start * factor**i`` for ``i in range(count)``.

    The default ladder spans 1ms to ~8s, a good fit for both per-batch
    training phases and per-request serving latencies.
    """
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [start * factor**i for i in range(count)]


@shared_state(guard="_lock")
class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self.value += amount


@shared_state(guard="_lock")
class Gauge:
    """A last-value metric that can go up and down."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value: float = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount
            self.updates += 1


@shared_state(guard="_lock")
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; a final
    implicit ``+Inf`` bucket equals ``count``.
    """

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self._lock = lock
        self.bounds = sorted(buckets) if buckets else exponential_buckets()
        self._counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1

    def bucket_counts(self) -> List[int]:
        """Cumulative counts per bound (excluding the +Inf bucket)."""
        with self._lock:
            return list(self._counts)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket upper bounds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = math.ceil(q * self.count)
            for bound, cum in zip(self.bounds, self._counts):
                if cum >= target:
                    return bound
            return float("inf")


@shared_state(guard="_lock")
class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock.

    The registry shares its one lock with every instrument it creates:
    instrument mutations and registry snapshots can never interleave,
    and there is a single lock order by construction.
    """

    def __init__(self) -> None:
        self._lock = new_lock("obs.MetricsRegistry")
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            found = self._counters.get(name)
            if found is None:
                found = self._counters[name] = Counter(name, self._lock)
        return found

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            found = self._gauges.get(name)
            if found is None:
                found = self._gauges[name] = Gauge(name, self._lock)
        return found

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            found = self._histograms.get(name)
            if found is None:
                found = self._histograms[name] = Histogram(
                    name, self._lock, buckets
                )
        return found

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Observe the seconds spent inside the block into histogram
        ``name`` (also when the block raises)."""
        histogram = self.histogram(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # counter shorthands
    # ------------------------------------------------------------------
    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (created at zero)."""
        self.counter(name).inc(int(amount))

    def get(self, name: str) -> int:
        with self._lock:
            found = self._counters.get(name)
            return 0 if found is None else found.value

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def rate(self, name: str, seconds: float) -> float:
        """Events per second, 0.0 when no time was spent."""
        return self.get(name) / seconds if seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, int]:
        counts = self.counts()
        return {name: counts[name] for name in sorted(counts)}

    def merge(self, other) -> None:
        """Fold another registry's counters into this one."""
        for name, amount in other.counts().items():
            self.add(name, amount)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in self._gauges.items()}

    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "bounds": list(h.bounds),
                        "bucket_counts": list(h._counts),
                        "count": h.count,
                        "sum": h.sum,
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }
