"""RecommendationService tests: deadlines, retry, ladder, probes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    LEVEL_LIVE,
    LEVEL_POPULARITY,
    LEVEL_STALE,
    CircuitBreaker,
    RecommendationService,
    RetryPolicy,
    StaticModelProvider,
)

from .test_breaker import FakeClock

NUM_USERS, NUM_ITEMS = 4, 10
POPULARITY = np.arange(NUM_ITEMS)  # item 9 most popular


class FakeModel:
    """Scriptable model: fail N times, add latency, then answer."""

    num_users = NUM_USERS
    num_items = NUM_ITEMS

    def __init__(self, clock=None, fail_times: int = 0, latency: float = 0.0):
        self.clock = clock
        self.fail_times = fail_times
        self.latency = latency
        self.calls = 0

    def recommend(self, user, top_n=20, exclude=None):
        self.calls += 1
        if self.clock is not None and self.latency:
            self.clock.advance(self.latency)
        if self.calls <= self.fail_times:
            raise RuntimeError("scoring backend down")
        exclude = exclude or set()
        ranked = [i for i in range(NUM_ITEMS - 1, -1, -1) if i not in exclude]
        return np.asarray(ranked[:top_n], dtype=np.int64)


def make_service(model, clock=None, **kwargs):
    clock = clock or FakeClock()
    defaults = dict(
        popularity=POPULARITY,
        default_top_n=3,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        breaker=CircuitBreaker(
            failure_threshold=2, recovery_time=5.0, clock=clock
        ),
        clock=clock,
        sleep=lambda seconds: clock.advance(seconds),
    )
    defaults.update(kwargs)
    return RecommendationService(model, **defaults)


class TestLiveRung:
    def test_happy_path(self):
        service = make_service(FakeModel())
        response = service.recommend(1, exclude={9})
        assert response.level == LEVEL_LIVE
        assert not response.degraded
        assert response.retries == 0
        np.testing.assert_array_equal(response.items, [8, 7, 6])
        assert service.counters.get("serve.responses.live") == 1

    def test_retry_recovers_transient_failure(self):
        model = FakeModel(fail_times=2)
        service = make_service(model)
        response = service.recommend(0)
        assert response.level == LEVEL_LIVE
        assert response.retries == 2
        assert model.calls == 3
        assert service.counters.get("serve.retries") == 2
        assert service.counters.get("serve.score.errors") == 2

    def test_retries_are_bounded(self):
        model = FakeModel(fail_times=99)
        service = make_service(model)
        response = service.recommend(0)
        assert response.degraded
        assert model.calls == 3  # max_attempts, then degrade

    def test_bare_model_is_wrapped(self):
        service = make_service(FakeModel())
        assert isinstance(service.provider, StaticModelProvider)


class TestDeadlines:
    def test_zero_deadline_skips_live_scoring(self):
        model = FakeModel()
        service = make_service(model)
        response = service.recommend(0, deadline=0.0)
        assert model.calls == 0
        assert response.level == LEVEL_POPULARITY
        assert response.deadline_hit
        assert service.counters.get("serve.deadline_exceeded") == 1

    def test_slow_scoring_misses_deadline(self):
        clock = FakeClock()
        model = FakeModel(clock=clock, latency=0.2)
        service = make_service(model, clock=clock)
        response = service.recommend(0, deadline=0.05)
        assert model.calls == 1
        assert response.degraded
        assert response.deadline_hit
        assert service.counters.get("serve.deadline_exceeded") == 1

    def test_no_retry_when_budget_cannot_cover_backoff(self):
        clock = FakeClock()
        # Remaining budget after the attempt (0.005) can never cover the
        # jittered backoff (>= 0.5 * base_delay = 0.005), so no retry.
        model = FakeModel(clock=clock, fail_times=99, latency=0.045)
        service = make_service(model, clock=clock)
        response = service.recommend(0, deadline=0.05)
        assert model.calls == 1  # backoff would overrun the deadline
        assert response.degraded

    def test_default_deadline_applies(self):
        clock = FakeClock()
        model = FakeModel(clock=clock, latency=0.2)
        service = make_service(model, clock=clock, default_deadline=0.1)
        assert service.recommend(0).deadline_hit


class TestDegradationLadder:
    def test_stale_serves_last_good_response(self):
        model = FakeModel()
        service = make_service(model)
        live = service.recommend(2)
        model.fail_times = 99
        model.calls = 0
        stale = service.recommend(2)
        assert stale.level == LEVEL_STALE
        np.testing.assert_array_equal(stale.items, live.items)
        assert service.counters.get("serve.cache.hits") == 1
        assert service.counters.get("serve.degraded") == 1

    def test_stale_respects_exclude(self):
        model = FakeModel()
        service = make_service(model)
        service.recommend(2)  # caches [9, 8, 7]
        model.fail_times = 99
        stale = service.recommend(2, exclude={9})
        assert stale.level == LEVEL_STALE
        assert 9 not in stale.items

    def test_stale_expires_to_popularity(self):
        clock = FakeClock()
        model = FakeModel()
        service = make_service(model, clock=clock, stale_ttl=10.0)
        service.recommend(2)
        model.fail_times = 99
        clock.advance(11.0)
        response = service.recommend(2)
        assert response.level == LEVEL_POPULARITY

    def test_popularity_is_last_resort_and_excludes(self):
        model = FakeModel(fail_times=99)
        service = make_service(model)
        response = service.recommend(1, exclude={9, 8})
        assert response.level == LEVEL_POPULARITY
        np.testing.assert_array_equal(response.items, [7, 6, 5])

    def test_every_request_is_answered_under_total_failure(self):
        model = FakeModel(fail_times=10**9)
        service = make_service(model)
        for user in range(NUM_USERS):
            response = service.recommend(user)
            assert response.items.size > 0
            assert response.degraded


class TestBreakerIntegration:
    def test_opens_and_short_circuits(self):
        model = FakeModel(fail_times=10**9)
        service = make_service(model)
        service.recommend(0)
        service.recommend(0)  # second consecutive failure trips it
        calls = model.calls
        response = service.recommend(0)
        assert model.calls == calls  # live path skipped
        assert response.breaker_state == "open"
        assert service.counters.get("serve.breaker.short_circuit") == 1
        assert service.counters.get("serve.breaker.open") == 1

    def test_recovers_half_open_to_closed(self):
        clock = FakeClock()
        model = FakeModel(fail_times=6)
        service = make_service(model, clock=clock)
        service.recommend(0)
        service.recommend(0)
        assert service.breaker.state == "open"
        clock.advance(6.0)
        model.fail_times = 0  # backend healed
        response = service.recommend(0)
        assert response.level == LEVEL_LIVE
        assert response.breaker_state == "closed"
        assert service.counters.get("serve.breaker.half_open") == 1
        assert service.counters.get("serve.breaker.closed") == 1


class TestRetryJitter:
    def test_same_seed_draws_the_same_backoff_schedule(self):
        first = RetryPolicy(max_attempts=5, base_delay=0.01, seed=42)
        second = RetryPolicy(max_attempts=5, base_delay=0.01, seed=42)
        schedule = [first.backoff(attempt) for attempt in (1, 2, 3, 4)]
        assert schedule == [second.backoff(attempt) for attempt in (1, 2, 3, 4)]

    def test_different_seeds_diverge(self):
        a = RetryPolicy(base_delay=0.01, seed=1)
        b = RetryPolicy(base_delay=0.01, seed=2)
        assert [a.backoff(n) for n in (1, 2, 3)] != [
            b.backoff(n) for n in (1, 2, 3)
        ]

    def test_jitter_stays_within_the_half_to_full_band(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=1.0, seed=7
        )
        for attempt in range(1, 6):
            cap = min(0.01 * 2.0 ** (attempt - 1), 1.0)
            for _ in range(50):
                delay = policy.backoff(attempt)
                assert 0.5 * cap <= delay <= cap

    def test_injected_rng_overrides_the_policy_stream(self):
        policy = RetryPolicy(base_delay=0.01, seed=0)
        rng = np.random.default_rng(123)
        expected_draw = np.random.default_rng(123).random()
        delay = policy.backoff(1, rng)
        assert delay == pytest.approx(0.01 * (0.5 + 0.5 * expected_draw))

    def test_service_backoff_is_reproducible_across_instances(self):
        # Two identically-seeded services retrying the same flaky model
        # sleep for identical jittered durations — chaos traces replay.
        sleeps = [[], []]
        for index in range(2):
            model = FakeModel(fail_times=2)
            service = make_service(
                model, sleep=sleeps[index].append, jitter_seed=9
            )
            assert service.recommend(0).retries == 2
        assert sleeps[0] == sleeps[1]
        assert len(sleeps[0]) == 2


class TestValidationAndProbes:
    def test_rejects_bad_requests(self):
        service = make_service(FakeModel())
        with pytest.raises(ValueError):
            service.recommend(0, top_n=0)
        with pytest.raises(ValueError):
            service.recommend(-1)
        with pytest.raises(ValueError):
            service.recommend(NUM_USERS)  # out of the model's range

    def test_health_ok(self):
        service = make_service(FakeModel())
        service.recommend(0)
        health = service.health()
        assert health["status"] == "ok"
        assert health["ready"]
        assert health["breaker"] == "closed"
        assert health["stale_entries"] == 1
        assert health["counters"]["serve.requests"] == 1

    def test_health_degraded_when_breaker_open(self):
        service = make_service(FakeModel(fail_times=10**9))
        service.recommend(0)
        service.recommend(0)
        assert service.health()["status"] == "degraded"

    def test_health_unready_without_model(self):
        service = make_service(StaticModelProvider(None))
        assert not service.ready()
        assert service.health()["status"] == "unready"
        # Still answers (popularity rung) instead of raising.
        response = service.recommend(0)
        assert response.level == LEVEL_POPULARITY
        assert response.items.size > 0
        assert service.counters.get("serve.unready") == 1


class TestInstrumentation:
    def test_one_request_is_recorded_once(self, isolated_metrics):
        service = make_service(FakeModel(fail_times=1))
        service.recommend(0)
        hists = isolated_metrics.histograms()
        assert hists["serve.request_seconds"].count == 1
        # One observation per scoring attempt (a failure and a retry).
        assert hists["serve.score_seconds"].count == 2
        # Counters stay on the service's own registry.
        assert service.counters.get("serve.requests") == 1
        assert isolated_metrics.counts() == {}


class TestReloadHook:
    def test_reload_every_polls_provider(self):
        class CountingProvider(StaticModelProvider):
            polls = 0

            def poll(self):
                self.polls += 1
                return "unchanged"

        provider = CountingProvider(FakeModel())
        service = make_service(provider, reload_every=3)
        for _ in range(7):
            service.recommend(0)
        assert provider.polls == 2
        assert service.counters.get("serve.reload.unchanged") == 2

    def test_poll_reload_survives_provider_errors(self):
        class BrokenProvider(StaticModelProvider):
            def poll(self):
                raise RuntimeError("manifest exploded")

        service = make_service(BrokenProvider(FakeModel()))
        assert service.poll_reload() == "error"
        assert service.counters.get("serve.reload.error") == 1
