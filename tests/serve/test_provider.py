"""Hot-reload provider tests: validation gate, canary, rollback."""

from __future__ import annotations

import numpy as np
import pytest

from repro import testing
from repro.ckpt import CheckpointManager
from repro.models import BPRMF
from repro.serve import (
    REJECTED,
    RELOADED,
    ROLLED_BACK,
    UNCHANGED,
    CheckpointModelProvider,
    ModelUnavailable,
)
from repro.serve.provider import default_restore

NUM_USERS, NUM_ITEMS, DIM = 4, 6, 4
FINGERPRINT = "fp-serving"


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


def make_model(seed: int = 0) -> BPRMF:
    return BPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=np.random.default_rng(seed))


def snapshot(model: BPRMF, step: int, fingerprint: str = FINGERPRINT) -> dict:
    return {"fingerprint": fingerprint, "step": step, "model": model.state_dict()}


def make_provider(directory: str, **kwargs) -> CheckpointModelProvider:
    return CheckpointModelProvider(str(directory), builder=make_model, **kwargs)


class OutOfRange:
    """A finite model whose answers index past the catalogue, so only
    the post-swap canary can catch it."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def recommend(self, user, top_n=20, exclude=None):
        return np.full(top_n, self._model.num_items)


def restore_out_of_range_from(step: int):
    """A restore hook that breaks every snapshot from ``step`` on."""

    def restore(model, state):
        model = default_restore(model, state)
        return OutOfRange(model) if state["step"] >= step else model

    return restore


class TestLoading:
    def test_unready_before_any_snapshot(self, tmp_path):
        provider = make_provider(tmp_path / "ckpts")
        assert provider.poll() == UNCHANGED
        assert not provider.ready()
        assert provider.version() == "unloaded"
        with pytest.raises(ModelUnavailable):
            provider.model()

    def test_first_poll_loads_newest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        source = make_model(seed=1)
        manager.save(snapshot(source, 1), step=1)
        provider = make_provider(tmp_path)
        assert provider.poll() == RELOADED
        assert provider.ready()
        assert provider.version() == "ckpt-step-1"
        np.testing.assert_allclose(
            provider.model().all_scores(np.array([0])),
            source.all_scores(np.array([0])),
        )

    def test_unchanged_when_no_newer_snapshot(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(snapshot(make_model(1), 1), step=1)
        provider = make_provider(tmp_path)
        assert provider.poll() == RELOADED
        assert provider.poll() == UNCHANGED

    def test_newer_snapshot_swaps_in(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(snapshot(make_model(1), 1), step=1)
        provider = make_provider(tmp_path)
        provider.poll()
        newer = make_model(seed=2)
        manager.save(snapshot(newer, 2), step=2)
        assert provider.poll() == RELOADED
        assert provider.version() == "ckpt-step-2"
        np.testing.assert_allclose(
            provider.model().all_scores(np.array([1])),
            newer.all_scores(np.array([1])),
        )


class TestValidationGate:
    def test_corrupt_candidate_never_replaces_live_model(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        good = make_model(1)
        manager.save(snapshot(good, 1), step=1)
        provider = make_provider(tmp_path)
        provider.poll()
        # The manifest checksum is computed before the corruption, so
        # the garbled payload fails verification at reload time.
        with testing.FaultyWrites(
            testing.CKPT_PAYLOAD_WRITE, mode="garble", fraction=0.6
        ):
            manager.save(snapshot(make_model(2), 2), step=2)
        with pytest.warns(RuntimeWarning, match="refusing checkpoint"):
            assert provider.poll() == REJECTED
        assert provider.version() == "ckpt-step-1"
        np.testing.assert_allclose(
            provider.model().all_scores(np.array([0])),
            good.all_scores(np.array([0])),
        )

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(snapshot(make_model(1), 1), step=1)
        provider = make_provider(tmp_path)
        provider.poll()
        manager.save(
            snapshot(make_model(2), 2, fingerprint="fp-other"), step=2
        )
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert provider.poll() == REJECTED
        assert provider.version() == "ckpt-step-1"

    def test_expected_fingerprint_pins_first_load(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(snapshot(make_model(1), 1), step=1)
        provider = CheckpointModelProvider(
            str(tmp_path), builder=make_model, expected_fingerprint="fp-prod"
        )
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert provider.poll() == REJECTED
        assert not provider.ready()

    def test_snapshot_without_model_state_rejected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save({"fingerprint": FINGERPRINT, "step": 1}, step=1)
        provider = make_provider(tmp_path)
        with pytest.warns(RuntimeWarning, match="no model state"):
            assert provider.poll() == REJECTED

    def test_crash_during_reload_is_contained(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        good = make_model(1)
        manager.save(snapshot(good, 1), step=1)
        provider = make_provider(tmp_path)
        provider.poll()
        manager.save(snapshot(make_model(2), 2), step=2)
        with testing.CrashPoint(testing.SERVE_RELOAD):
            with pytest.warns(RuntimeWarning, match="refusing checkpoint"):
                assert provider.poll() == REJECTED
        assert provider.version() == "ckpt-step-1"
        # Once the crash is disarmed the same candidate promotes fine.
        assert provider.poll() == RELOADED


class TestFiniteness:
    def test_nan_candidate_rejected_before_build(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        good = make_model(1)
        manager.save(snapshot(good, 1), step=1)
        builds = []

        def builder():
            builds.append(1)
            return make_model()

        provider = CheckpointModelProvider(str(tmp_path), builder=builder)
        provider.poll()
        broken = {
            key: np.full_like(value, np.nan)
            for key, value in make_model(2).state_dict().items()
        }
        manager.save(
            {"fingerprint": FINGERPRINT, "step": 2, "model": broken}, step=2
        )
        with pytest.warns(RuntimeWarning, match="non-finite parameter"):
            assert provider.poll() == REJECTED
        assert len(builds) == 1  # only the good snapshot was built
        assert provider.version() == "ckpt-step-1"
        np.testing.assert_allclose(
            provider.model().all_scores(np.array([0])),
            good.all_scores(np.array([0])),
        )

    def test_single_inf_entry_names_the_parameter(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        state = make_model(1).state_dict()
        name = next(iter(state))
        state[name] = state[name].copy()
        state[name].flat[0] = np.inf
        manager.save(
            {"fingerprint": FINGERPRINT, "step": 1, "model": state}, step=1
        )
        provider = make_provider(tmp_path)
        with pytest.warns(RuntimeWarning, match=f"non-finite parameter {name}"):
            assert provider.poll() == REJECTED
        assert not provider.ready()


class TestCanary:
    def test_out_of_range_candidate_rolls_back(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        good = make_model(1)
        manager.save(snapshot(good, 1), step=1)
        provider = make_provider(
            tmp_path, restore=restore_out_of_range_from(step=2)
        )
        provider.poll()
        manager.save(snapshot(make_model(2), 2), step=2)
        with pytest.warns(RuntimeWarning, match="canary probe failed"):
            assert provider.poll() == ROLLED_BACK
        assert provider.version() == "ckpt-step-1"
        np.testing.assert_allclose(
            provider.model().all_scores(np.array([0])),
            good.all_scores(np.array([0])),
        )
