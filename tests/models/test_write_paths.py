"""Every parameter write path leaves no stale representation behind.

The propagating models read their final representations through one
version-keyed cache (``Recommender.representations``).  For each write
path — an Adam step, an SGD step, ``load_state_dict``, ``refresh_epoch``
and a ``CheckpointModelProvider`` reload — the scores read after the
write must be bitwise equal to a freshly built model loaded with the
same state, even when the cache was warm before the write.  A raw
in-place write to a parameter array raises instead of going unseen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import MODEL_BUILDERS
from repro.ckpt import CheckpointManager
from repro.core import IMCAT, IMCATConfig
from repro.nn import SGD, Adam, no_grad
from repro.serve import RELOADED, CheckpointModelProvider

DIM = 8
USERS = np.array([0, 1, 2, 3])
PAIRS = (np.array([0, 1, 2]), np.array([3, 4, 5]))


def _l_imcat(dataset, split, dim, rng):
    backbone = MODEL_BUILDERS["LightGCN"](dataset, split, dim, rng)
    return IMCAT(backbone, dataset, split.train,
                 IMCATConfig(num_intents=2), rng=rng)


BUILDERS = {
    "LightGCN": MODEL_BUILDERS["LightGCN"],
    "L-IMCAT": _l_imcat,
    "KGIN": MODEL_BUILDERS["KGIN"],
    "DGCF": MODEL_BUILDERS["DGCF"],
    "KGAT": MODEL_BUILDERS["KGAT"],
    "TGCN": MODEL_BUILDERS["TGCN"],
}


def build(name, dataset, split, seed=0):
    return BUILDERS[name](dataset, split, DIM, np.random.default_rng(seed))


def warm(model) -> None:
    """Fill the cache with both a grad and a no-grad entry."""
    model.user_repr()
    model.all_scores(USERS)


def readings(model):
    with no_grad():
        return (
            model.all_scores(USERS),
            model.pair_scores(*PAIRS).data.copy(),
            model.user_repr().data.copy(),
        )


def assert_matches(model, reference) -> None:
    for got, want in zip(readings(model), readings(reference)):
        assert np.array_equal(got, want)


def step(model, optimizer) -> None:
    model.train()
    loss = (model.pair_scores(*PAIRS) ** 2).sum()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    model.eval()


@pytest.fixture(params=sorted(BUILDERS))
def name(request):
    return request.param


class TestWritePaths:
    @pytest.mark.parametrize("optimizer", [Adam, SGD])
    def test_optimizer_step(self, name, optimizer, small_dataset, small_split):
        model = build(name, small_dataset, small_split)
        warm(model)
        before = model.all_scores(USERS)
        step(model, optimizer(model.parameters(), lr=0.05))
        assert not np.array_equal(model.all_scores(USERS), before)
        reference = build(name, small_dataset, small_split)
        reference.load_state_dict(model.state_dict())
        assert_matches(model, reference)

    def test_load_state_dict(self, name, small_dataset, small_split):
        model = build(name, small_dataset, small_split)
        warm(model)
        state = build(name, small_dataset, small_split, seed=1).state_dict()
        model.load_state_dict(state)
        reference = build(name, small_dataset, small_split)
        reference.load_state_dict(state)
        assert_matches(model, reference)

    def test_refresh_epoch(self, name, small_dataset, small_split):
        state = build(name, small_dataset, small_split, seed=1).state_dict()
        model = build(name, small_dataset, small_split)
        model.load_state_dict(state)
        warm(model)
        model.refresh_epoch(1)
        reference = build(name, small_dataset, small_split)
        reference.load_state_dict(state)
        reference.refresh_epoch(1)
        assert_matches(model, reference)

    def test_provider_reload(self, name, small_dataset, small_split, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        provider = CheckpointModelProvider(
            str(tmp_path),
            builder=lambda: build(name, small_dataset, small_split),
        )
        for seed in (1, 2):
            state = build(name, small_dataset, small_split, seed).state_dict()
            manager.save({"fingerprint": "fp", "model": state}, step=seed)
            assert provider.poll() == RELOADED
            warm(provider.model())
        reference = build(name, small_dataset, small_split)
        reference.load_state_dict(state)
        reference.refresh_epoch(0)
        assert_matches(provider.model(), reference)

    def test_raw_parameter_write_raises(self, name, small_dataset, small_split):
        model = build(name, small_dataset, small_split)
        for param in model.parameters():
            with pytest.raises(ValueError, match="read-only"):
                param.data[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                param.data += 1.0


class TestVersions:
    def test_write_bumps_once_after_the_write(self, small_dataset, small_split):
        model = build("LightGCN", small_dataset, small_split)
        param = model.user_embedding.weight
        before = param.version
        with param.write() as data:
            assert param.version == before
            data += 1.0
        assert param.version != before
        assert not param.data.flags.writeable

    def test_grad_read_never_served_a_no_grad_entry(
        self, small_dataset, small_split
    ):
        model = build("LightGCN", small_dataset, small_split)
        with no_grad():
            frozen = model.user_repr()
        assert not frozen.requires_grad
        live = model.user_repr()
        assert live is not frozen and live.requires_grad
        with no_grad():  # a grad entry may serve a no-grad read
            assert model.user_repr() is live

    def test_copies_stay_read_only(self, small_dataset, small_split):
        import copy
        import pickle

        model = build("LightGCN", small_dataset, small_split)
        model.all_scores(USERS)
        for clone in (copy.deepcopy(model),
                      pickle.loads(pickle.dumps(model))):
            for param in clone.parameters():
                assert not param.data.flags.writeable
            assert np.array_equal(clone.all_scores(USERS),
                                  model.all_scores(USERS))
