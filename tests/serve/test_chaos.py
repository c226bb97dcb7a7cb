"""Chaos tests: the service keeps answering under injected failure.

The acceptance contract for :mod:`repro.serve`: with crashes, write
corruption, and latency armed on the ``serve:score`` / ``serve:reload``
fault sites, every request still returns a valid top-N (degradation
level recorded, zero unhandled exceptions), the breaker opens and
recovers half-open → closed, and a corrupt candidate checkpoint never
replaces the live model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs, testing
from repro.ckpt import CheckpointManager
from repro.models import BPRMF
from repro.serve import (
    LEVEL_LIVE,
    LEVELS,
    CheckpointModelProvider,
    CircuitBreaker,
    RecommendationService,
    RetryPolicy,
)

from .test_breaker import FakeClock

NUM_USERS, NUM_ITEMS, DIM = 8, 12, 4


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


def make_model(seed: int = 0) -> BPRMF:
    return BPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=np.random.default_rng(seed))


def make_service(model_or_provider, clock=None, **kwargs):
    clock = clock or FakeClock()
    defaults = dict(
        popularity=np.arange(NUM_ITEMS),
        default_top_n=4,
        retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        breaker=CircuitBreaker(
            failure_threshold=3, recovery_time=1.0, clock=clock
        ),
        clock=clock,
        sleep=lambda seconds: clock.advance(seconds),
    )
    defaults.update(kwargs)
    return RecommendationService(model_or_provider, **defaults), clock


def assert_valid_response(response, exclude=frozenset()):
    """A chaos-proof answer: non-empty, in-range, deduplicated, level
    recorded, excluded items absent."""
    assert response.level in LEVELS
    items = response.items
    assert items.size > 0
    assert items.size == np.unique(items).size
    assert items.min() >= 0 and items.max() < NUM_ITEMS
    assert not set(items.tolist()) & set(exclude)


class TestScoreCrashChaos:
    def test_every_request_answered_and_breaker_recovers(self):
        service, clock = make_service(make_model())
        exclude = {0, 1}

        # Warm the stale cache while healthy.
        for user in range(NUM_USERS):
            assert_valid_response(service.recommend(user, exclude=exclude), exclude)

        # Total scoring outage: every hit on serve:score crashes.
        with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=1) as fault:
            for user in range(NUM_USERS):
                response = service.recommend(user, exclude=exclude)
                assert_valid_response(response, exclude)
                assert response.degraded  # never pretends to be live
            assert fault.triggered
        assert service.counters.get("serve.breaker.open") >= 1
        assert service.breaker.state == "open"

        # Outage over: breaker walks open -> half-open -> closed.
        clock.advance(1.5)
        response = service.recommend(0, exclude=exclude)
        assert response.level == LEVEL_LIVE
        assert response.breaker_state == "closed"
        assert service.counters.get("serve.breaker.half_open") >= 1
        assert service.counters.get("serve.breaker.closed") >= 1
        assert service.counters.get("serve.degraded") == NUM_USERS

    def test_stale_cache_personalises_degraded_answers(self):
        service, _ = make_service(make_model())
        live = service.recommend(3)
        with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=1):
            stale = service.recommend(3)
        assert stale.level == "stale"
        np.testing.assert_array_equal(stale.items, live.items)

    def test_intermittent_failures_ride_on_retry(self):
        # Crash hits 1, 3, 5, ... — every first attempt fails, every
        # retry succeeds, so responses stay live throughout.
        service, _ = make_service(make_model())
        with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=2):
            for user in range(4):
                response = service.recommend(user)
                assert response.level == LEVEL_LIVE
                assert response.retries == 1
        assert service.counters.get("serve.breaker.open", ) == 0


class TestLatencyChaos:
    def test_injected_latency_fires_deadlines(self):
        clock = FakeClock()
        service, _ = make_service(
            make_model(), clock=clock, default_deadline=0.05
        )
        # The armed latency advances the service's own clock, so the
        # deadline genuinely expires mid-request.
        with testing.Latency(
            testing.SERVE_SCORE, seconds=0.2,
            sleep=lambda seconds: clock.advance(seconds),
        ) as fault:
            for user in range(NUM_USERS):
                response = service.recommend(user)
                assert_valid_response(response)
                assert response.degraded
                # Until the breaker opens, every slow attempt burns its
                # deadline; afterwards requests short-circuit untouched.
                if response.breaker_state == "closed":
                    assert response.deadline_hit
            assert fault.hits > 0
        assert service.counters.get("serve.deadline_exceeded") >= 3
        assert service.counters.get("serve.breaker.open") >= 1  # slow is broken

    def test_fast_requests_unaffected_by_armed_deadline(self):
        service, _ = make_service(make_model(), default_deadline=0.05)
        response = service.recommend(0)
        assert response.level == LEVEL_LIVE
        assert not response.deadline_hit


class TestReloadChaos:
    def _provider_with_live_model(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        good = make_model(seed=1)
        manager.save(
            {"fingerprint": "fp", "step": 1, "model": good.state_dict()},
            step=1,
        )
        provider = CheckpointModelProvider(
            str(tmp_path),
            builder=make_model,
        )
        assert provider.poll() == "reloaded"
        return manager, provider, good

    def test_corrupt_candidate_never_replaces_live_model(self, tmp_path):
        manager, provider, good = self._provider_with_live_model(tmp_path)
        service, _ = make_service(provider)
        with testing.FaultyWrites(
            testing.CKPT_PAYLOAD_WRITE, mode="truncate", fraction=0.3
        ):
            manager.save(
                {"fingerprint": "fp", "step": 2,
                 "model": make_model(2).state_dict()},
                step=2,
            )
        with pytest.warns(RuntimeWarning):
            assert service.poll_reload() == "rejected"
        assert service.counters.get("serve.reload.rejected") == 1
        # Serving continues on the pre-corruption model.
        response = service.recommend(0)
        assert response.level == LEVEL_LIVE
        assert response.model_version == "ckpt-step-1"
        np.testing.assert_allclose(
            service.provider.model().all_scores(np.array([0])),
            good.all_scores(np.array([0])),
        )

    def test_crash_during_reload_keeps_serving(self, tmp_path):
        manager, provider, _ = self._provider_with_live_model(tmp_path)
        service, _ = make_service(provider, reload_every=2)
        manager.save(
            {"fingerprint": "fp", "step": 2,
             "model": make_model(2).state_dict()},
            step=2,
        )
        with testing.CrashPoint(testing.SERVE_RELOAD, at=1, every=1):
            with pytest.warns(RuntimeWarning):
                for user in range(4):
                    assert_valid_response(service.recommend(user))
        assert service.counters.get("serve.reload.rejected") == 2
        assert service.provider.version() == "ckpt-step-1"
        # Disarmed: the very next piggybacked poll promotes the update.
        service.recommend(0)
        service.recommend(0)
        assert service.provider.version() == "ckpt-step-2"
        assert service.counters.get("serve.reload.reloaded") == 1


class TestCombinedChaos:
    def test_full_matrix_never_raises(self, tmp_path):
        """Crash + latency + reload corruption armed together."""
        manager, provider, _ = (
            TestReloadChaos()._provider_with_live_model(tmp_path)
        )
        clock = FakeClock()
        service, _ = make_service(
            provider, clock=clock, default_deadline=0.05, reload_every=3
        )
        with testing.FaultyWrites(
            testing.CKPT_PAYLOAD_WRITE, mode="garble", fraction=0.5
        ):
            manager.save(
                {"fingerprint": "fp", "step": 2,
                 "model": make_model(3).state_dict()},
                step=2,
            )
        answered = 0
        with testing.CrashPoint(testing.SERVE_SCORE, at=2, every=3):
            with testing.Latency(
                testing.SERVE_SCORE, seconds=0.2, at=5,
                sleep=lambda seconds: clock.advance(seconds),
            ):
                with pytest.warns(RuntimeWarning):
                    for index in range(12):
                        user = index % NUM_USERS
                        response = service.recommend(user, exclude={2})
                        assert_valid_response(response, exclude={2})
                        answered += 1
        assert answered == 12
        assert service.provider.version() == "ckpt-step-1"
        counters = service.counters
        assert counters.get("serve.reload.rejected") >= 1
        assert counters.get("serve.degraded") >= 1
        assert counters.get("serve.requests") == 12


class TestChaosObservability:
    """Chaos runs must leave an observable record: per-request spans
    tagged with the degradation rung and breaker state, and metrics
    counting every request and transition."""

    def test_outage_spans_record_rungs_and_breaker_walk(
        self, isolated_metrics
    ):
        tracer = obs.Tracer()
        service, clock = make_service(make_model(), tracer=tracer)

        for user in range(NUM_USERS):  # healthy warmup (live rung)
            service.recommend(user)
        with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=1):
            for user in range(NUM_USERS):  # total outage (degraded rungs)
                service.recommend(user)
        clock.advance(1.5)
        service.recommend(0)  # recovery (half-open -> closed, live)

        records = tracer.records()
        assert obs.validate_trace(records) is None
        requests = [r for r in records if r["name"] == "serve:request"]
        assert len(requests) == 2 * NUM_USERS + 1

        # Every degradation rung the service reported is on a span, and
        # the chaos window produced both live and degraded rungs.
        levels = [r["attributes"]["level"] for r in requests]
        assert set(levels) <= set(LEVELS)
        assert LEVEL_LIVE in levels
        assert set(levels) - {LEVEL_LIVE}, "outage produced no degraded rung"
        assert service.counters.get("serve.requests") == len(requests)
        assert service.counters.get("serve.degraded") == sum(
            1 for level in levels if level != LEVEL_LIVE
        )

        # The breaker walk (closed during outage onset, open once it
        # trips, closed again after recovery) is visible on the spans...
        breaker_states = [r["attributes"]["breaker"] for r in requests]
        assert "open" in breaker_states
        assert breaker_states[0] == "closed"
        assert breaker_states[-1] == "closed"
        # ...and each transition is counted.
        assert service.counters.get("serve.breaker.open") >= 1
        assert service.counters.get("serve.breaker.half_open") >= 1
        assert service.counters.get("serve.breaker.closed") >= 1

        # Live-scoring attempts nest under their request span.
        attempts = [r for r in records if r["name"] == "serve:attempt"]
        request_ids = {r["span_id"] for r in requests}
        assert attempts
        assert all(a["parent_id"] in request_ids for a in attempts)

        # Every answered request fed the latency histogram.
        hist = isolated_metrics.histograms()["serve.request_seconds"]
        assert hist.count == len(requests)

    def test_latency_chaos_tags_deadline_hits(self, isolated_metrics):
        tracer = obs.Tracer()
        clock = FakeClock()
        service, _ = make_service(
            make_model(), clock=clock, default_deadline=0.05, tracer=tracer
        )
        with testing.Latency(
            testing.SERVE_SCORE, seconds=0.2,
            sleep=lambda seconds: clock.advance(seconds),
        ):
            for user in range(NUM_USERS):
                service.recommend(user)
        requests = [
            r for r in tracer.records() if r["name"] == "serve:request"
        ]
        assert len(requests) == NUM_USERS
        deadline_hits = [
            r for r in requests if r["attributes"]["deadline_hit"]
        ]
        assert len(deadline_hits) >= 1
        assert all(
            r["attributes"]["level"] != LEVEL_LIVE for r in deadline_hits
        )
        retried = [r for r in requests if r["attributes"]["retries"] > 0]
        assert all(r["attributes"]["retries"] >= 0 for r in requests)
        del retried  # retry counts are config-dependent; range-check only

    def test_disabled_tracer_leaves_no_spans(self):
        tracer = obs.Tracer(enabled=False)
        service, _ = make_service(make_model(), tracer=tracer)
        with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=1):
            for user in range(4):
                assert_valid_response(service.recommend(user))
        assert len(tracer) == 0
