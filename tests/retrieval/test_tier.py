"""Serving integration: RetrievalTier lifecycle, atomic index swap on
hot reload, and chaos with the tier enabled."""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro import testing
from repro.ckpt import CheckpointManager
from repro.models import BPRMF
from repro.obs import MetricsRegistry
from repro.retrieval import RetrievalTier, build_index
from repro.serve import (
    LEVEL_LIVE,
    LEVELS,
    REJECTED,
    RELOADED,
    ROLLED_BACK,
    CheckpointModelProvider,
    CircuitBreaker,
    RecommendationService,
    RetryPolicy,
    StaticModelProvider,
)

from ..serve.test_breaker import FakeClock
from ..serve.test_provider import restore_out_of_range_from

NUM_USERS, NUM_ITEMS, DIM = 8, 30, 4
FINGERPRINT = "fp-serving"


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


def make_model(seed: int = 0) -> BPRMF:
    return BPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=np.random.default_rng(seed))


def make_tier(**kwargs) -> RetrievalTier:
    defaults = dict(
        n_probe=2,
        num_partitions=4,
        popularity=np.arange(NUM_ITEMS, dtype=np.float64),
        popular_head=5,
        counters=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return RetrievalTier(**defaults)


class TestTierLifecycle:
    def test_builds_once_then_reuses_for_same_version(self):
        provider = StaticModelProvider(make_model())
        tier = make_tier()
        for user in range(4):
            items = tier.recommend(provider, user, top_n=3)
            assert items is not None and items.size == 3
        assert tier.counters.get("serve.retrieval.builds") == 1
        assert tier.counters.get("serve.retrieval.served") == 4

    def test_auto_build_off_means_exact_fallback(self):
        provider = StaticModelProvider(make_model())
        tier = make_tier(auto_build=False)
        assert tier.recommend(provider, 0, top_n=3) is None
        assert tier.counters.get("serve.retrieval.fallback") == 1

    def test_prebuilt_index_pinned_to_first_version(self):
        model = make_model()
        index = build_index(model, num_partitions=4)
        provider = StaticModelProvider(model, version="v1")
        tier = make_tier(index=index, auto_build=False)
        assert tier.recommend(provider, 0, top_n=3) is not None
        # Version moves: the pinned index is dropped, not served stale.
        provider._version = "v2"
        assert tier.recommend(provider, 0, top_n=3) is None
        assert tier.counters.get("serve.retrieval.stale") == 1

    def test_provider_errors_absorbed_into_fallback(self):
        class BrokenProvider:
            def model(self):
                raise RuntimeError("scoring backend down")

            def version(self):
                return "v1"

        tier = make_tier()
        assert tier.recommend(BrokenProvider(), 0, top_n=3) is None
        assert tier.counters.get("serve.retrieval.errors") == 1

    def test_results_match_direct_retriever(self):
        model = make_model()
        provider = StaticModelProvider(model)
        tier = make_tier(n_probe=4)
        items = tier.recommend(provider, 2, top_n=5)
        np.testing.assert_array_equal(items, model.recommend(2, top_n=5))


class TestServiceIntegration:
    @staticmethod
    def make_service(provider, tier):
        clock = FakeClock()
        service = RecommendationService(
            provider,
            popularity=np.arange(NUM_ITEMS),
            default_top_n=4,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            breaker=CircuitBreaker(
                failure_threshold=3, recovery_time=1.0, clock=clock
            ),
            clock=clock,
            sleep=lambda seconds: clock.advance(seconds),
            retrieval=tier,
        )
        return service, clock

    def test_live_answers_route_through_index(self, isolated_metrics):
        # No private registry: the service injects its own, so routing
        # outcomes surface in health().
        tier = make_tier(counters=None)
        service, _ = self.make_service(
            StaticModelProvider(make_model()), tier
        )
        response = service.recommend(1, exclude={0})
        assert response.level == LEVEL_LIVE
        assert 0 not in response.items
        # The tier shares the service counter registry, so routing
        # outcomes surface in health() -- and only there.
        counters = service.health()["counters"]
        assert counters.get("serve.retrieval.served", 0) == 1
        assert isolated_metrics.get("serve.retrieval.served") == 0

    def test_tier_without_registry_counts_globally_once(
        self, isolated_metrics
    ):
        tier = make_tier(counters=None)
        provider = StaticModelProvider(make_model())
        for user in range(3):
            tier.recommend(provider, user, top_n=4)
        assert isolated_metrics.get("serve.retrieval.served") == 3
        assert isolated_metrics.get("serve.retrieval.builds") == 1

    def test_chaos_with_tier_never_raises(self):
        tier = make_tier()
        service, clock = self.make_service(
            StaticModelProvider(make_model()), tier
        )
        for user in range(NUM_USERS):  # warm the stale cache
            service.recommend(user)
        with testing.CrashPoint(testing.SERVE_SCORE, at=1, every=1):
            for user in range(NUM_USERS):
                response = service.recommend(user)
                assert response.level in LEVELS
                assert response.items.size > 0
                assert response.degraded
        clock.advance(1.5)
        assert service.recommend(0).level == LEVEL_LIVE


class TestAtomicSwap:
    @staticmethod
    def snapshot(model, step):
        return {
            "fingerprint": FINGERPRINT,
            "step": step,
            "model": model.state_dict(),
        }

    def make_provider(self, directory, **kwargs):
        return CheckpointModelProvider(
            str(directory),
            builder=make_model,
            retrieval=True,
            retrieval_params=dict(num_partitions=4, popular_head=5),
            **kwargs,
        )

    def test_poll_swaps_model_and_index_together(self, tmp_path):
        from repro.retrieval import model_fingerprint

        manager = CheckpointManager(str(tmp_path))
        manager.save(self.snapshot(make_model(1), 1), step=1)
        provider = self.make_provider(tmp_path)
        assert provider.poll() == RELOADED
        index = provider.index()
        assert index is not None
        assert index.fingerprint == model_fingerprint(provider.model())
        # The index was persisted next to the snapshot for the next
        # serving process.
        assert any(
            name.startswith("index-") for name in os.listdir(tmp_path)
        )

    def test_reload_replaces_index_with_matching_one(self, tmp_path):
        from repro.retrieval import model_fingerprint

        manager = CheckpointManager(str(tmp_path))
        manager.save(self.snapshot(make_model(1), 1), step=1)
        provider = self.make_provider(tmp_path)
        provider.poll()
        stale = provider.index()
        manager.save(self.snapshot(make_model(2), 2), step=2)
        # Only step 2's index is looked up: step 1's (built from model
        # 1) is never decoded, so the reload warns about nothing and
        # builds a fresh index for the new item table.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert provider.poll() == RELOADED
        fresh = provider.index()
        assert fresh is not stale
        assert fresh.fingerprint == model_fingerprint(provider.model())

    def test_rollback_restores_previous_index(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self.snapshot(make_model(1), 1), step=1)
        # Step 2 is finite and indexes fine, but answers out of range,
        # so only the post-swap canary rejects it.
        provider = self.make_provider(
            tmp_path, restore=restore_out_of_range_from(step=2)
        )
        provider.poll()
        good_index = provider.index()
        manager.save(self.snapshot(make_model(2), 2), step=2)
        with pytest.warns(RuntimeWarning, match="canary probe failed") as seen:
            assert provider.poll() == ROLLED_BACK
        assert not [w for w in seen if "fingerprint" in str(w.message)]
        assert provider.index() is good_index
        assert provider.version() == "ckpt-step-1"

    def test_nan_candidate_rejected_before_index_build(
        self, tmp_path, monkeypatch
    ):
        import repro.retrieval

        manager = CheckpointManager(str(tmp_path))
        manager.save(self.snapshot(make_model(1), 1), step=1)
        provider = self.make_provider(tmp_path)
        provider.poll()
        good_index = provider.index()
        builds = []
        real_build = repro.retrieval.build_index

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(repro.retrieval, "build_index", counting_build)
        broken = {
            key: np.full_like(value, np.nan)
            for key, value in make_model(2).state_dict().items()
        }
        manager.save(
            {"fingerprint": FINGERPRINT, "step": 2, "model": broken}, step=2
        )
        with pytest.warns(RuntimeWarning, match="non-finite parameter"):
            assert provider.poll() == REJECTED
        assert builds == []
        assert provider.index() is good_index
        assert provider.version() == "ckpt-step-1"

    def test_retrieval_disabled_exposes_no_index(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self.snapshot(make_model(1), 1), step=1)
        provider = CheckpointModelProvider(str(tmp_path), builder=make_model)
        provider.poll()
        assert provider.index() is None
