"""MetricsRegistry: instruments, counter shorthands, timing, threads."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import MetricsRegistry, exponential_buckets

THREADS = 8
INCREMENTS = 2_000


def _run_threads(worker, count=THREADS):
    """Start ``count`` workers behind a barrier and join them all."""
    barrier = threading.Barrier(count)

    def wrapped(index):
        barrier.wait()
        worker(index)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


class TestExponentialBuckets:
    def test_default_ladder(self):
        bounds = exponential_buckets()
        assert len(bounds) == 14
        assert bounds[0] == pytest.approx(0.001)
        assert bounds[-1] == pytest.approx(0.001 * 2**13)
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize(
        "kwargs", [{"start": 0}, {"factor": 1.0}, {"count": 0}]
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            exponential_buckets(**kwargs)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("steps")
        c.inc()
        c.inc(4)
        assert registry.counter("steps").value == 5
        assert registry.counter("steps") is c

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        g = registry.gauge("loss")
        g.set(0.5)
        g.inc(0.25)
        assert g.value == pytest.approx(0.75)
        assert g.updates == 2
        assert registry.gauges() == {"loss": pytest.approx(0.75)}


class TestHistogram:
    def test_cumulative_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.bucket_counts() == [1, 2, 3]
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.mean == pytest.approx(55.55 / 4)

    def test_quantile_from_bounds(self):
        registry = MetricsRegistry()
        h = registry.histogram("q", buckets=[1.0, 2.0, 4.0])
        for value in [0.5] * 50 + [1.5] * 40 + [3.0] * 10:
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(0.9) == pytest.approx(2.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_quantile_above_ladder_is_inf(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0])
        h.observe(100.0)
        assert h.quantile(0.9) == float("inf")

    def test_quantile_empty_and_bad_q(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestTimed:
    def test_observes_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.timed("phase_seconds"):
            time.sleep(0.01)
        with registry.timed("phase_seconds"):
            pass
        hist = registry.histograms()["phase_seconds"]
        assert hist.count == 2
        assert 0.01 <= hist.sum < 1.0

    def test_records_when_the_block_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timed("failing_seconds"):
                raise RuntimeError("boom")
        assert registry.histograms()["failing_seconds"].count == 1


class TestCounterShorthands:
    """``add`` / ``get`` / ``counts`` / ``rate`` / ``merge`` over the
    registry's counters."""

    def test_add_get_counts(self):
        registry = MetricsRegistry()
        registry.add("hits")
        registry.add("hits", 2)
        registry.add("misses")
        assert registry.get("hits") == 3
        assert registry.get("absent") == 0
        assert registry.counts() == {"hits": 3, "misses": 1}

    def test_as_dict_sorted(self):
        registry = MetricsRegistry()
        registry.add("zebra")
        registry.add("aard")
        assert list(registry.as_dict()) == ["aard", "zebra"]

    def test_rate(self):
        registry = MetricsRegistry()
        registry.add("events", 10)
        assert registry.rate("events", 2.0) == pytest.approx(5.0)
        assert registry.rate("events", 0.0) == 0.0

    def test_merge_adds_counts(self):
        worker = MetricsRegistry()
        worker.add("shared", 2)
        worker.add("worker.only")
        worker.histogram("lat").observe(0.1)
        registry = MetricsRegistry()
        registry.add("shared", 1)
        registry.merge(worker)
        assert registry.counts() == {"shared": 3, "worker.only": 1}
        # Only counters merge; the source keeps its own values.
        assert registry.histograms() == {}
        assert worker.get("shared") == 2

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.add("c")
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.1)
        registry.reset()
        assert registry.counts() == {}
        assert registry.gauges() == {}
        assert registry.histograms() == {}


class TestSnapshotAndAbsorb:
    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.add("b.counter")
        registry.add("a.counter")
        registry.gauge("loss").set(0.25)
        registry.histogram("lat", buckets=[1.0]).observe(0.5)
        snap = registry.snapshot()
        json.dumps(snap)
        assert list(snap["counters"]) == ["a.counter", "b.counter"]
        assert snap["gauges"]["loss"] == 0.25
        assert snap["histograms"]["lat"]["count"] == 1


class TestThreadSafety:
    """Hammer one shared registry from many threads: nothing is lost."""

    def test_no_lost_increments_single_name(self):
        registry = MetricsRegistry()

        def worker(_index):
            for _ in range(INCREMENTS):
                registry.add("hits")

        _run_threads(worker)
        assert registry.get("hits") == THREADS * INCREMENTS

    def test_no_lost_increments_mixed_names(self):
        registry = MetricsRegistry()

        def worker(index):
            for step in range(INCREMENTS):
                registry.add("shared")
                registry.add(f"own.{index}", 2)
                if step % 50 == 0:
                    # Concurrent reads must not disturb the counts.
                    registry.counts()

        _run_threads(worker)
        assert registry.get("shared") == THREADS * INCREMENTS
        for index in range(THREADS):
            assert registry.get(f"own.{index}") == 2 * INCREMENTS

    def test_concurrent_merge_into_shared_target(self):
        target = MetricsRegistry()

        def worker(_index):
            local = MetricsRegistry()
            for _ in range(INCREMENTS):
                local.add("events")
            target.merge(local)

        _run_threads(worker)
        assert target.get("events") == THREADS * INCREMENTS

    def test_no_lost_timed_records(self):
        registry = MetricsRegistry()
        rounds = 500

        def worker(_index):
            for _ in range(rounds):
                with registry.timed("phase_seconds"):
                    pass

        _run_threads(worker)
        hist = registry.histograms()["phase_seconds"]
        assert hist.count == THREADS * rounds
        assert hist.bucket_counts()[-1] == THREADS * rounds

    def test_concurrent_mixed_instruments(self):
        registry = MetricsRegistry()
        threads_n, rounds = 8, 1_000
        barrier = threading.Barrier(threads_n)

        def worker(index):
            barrier.wait()
            for step in range(rounds):
                registry.add("shared")
                registry.counter(f"own.{index}").inc()
                registry.gauge("gauge").set(step)
                registry.histogram("hist").observe(0.01)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.get("shared") == threads_n * rounds
        for index in range(threads_n):
            assert registry.counter(f"own.{index}").value == rounds
        assert registry.histograms()["hist"].count == threads_n * rounds
