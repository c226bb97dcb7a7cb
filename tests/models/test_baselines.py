"""Tests for the nine baseline methods.

Each baseline gets: construction checks, the Recommender contract
(shapes, scoring), and a learning smoke test showing that a short
training run beats an untrained copy on validation recall.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import Evaluator
from repro.models import TrainConfig, fit_bpr
from repro.models import baselines as B


def interactions(split):
    return (split.train.user_ids, split.train.item_ids)


def build(name, dataset, split, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    ti = interactions(split)
    factories = {
        "cfa": lambda: B.CFA(split.train, dim, rng),
        "dspr": lambda: B.DSPR(split.train, dim, rng),
        "tgcn": lambda: B.TGCN(dataset, ti, dim, rng=rng),
        "cke": lambda: B.CKE(dataset, dim, rng=rng),
        "ripplenet": lambda: B.RippleNet(dataset, ti, dim, rng=rng),
        "kgat": lambda: B.KGAT(dataset, ti, dim, rng=rng),
        "kgin": lambda: B.KGIN(dataset, ti, dim, rng=rng),
        "sgl": lambda: B.SGL(dataset.num_users, dataset.num_items, ti, dim, rng=rng),
        "kgcl": lambda: B.KGCL(dataset, ti, dim, rng=rng),
    }
    return factories[name]()


ALL_BASELINES = ["cfa", "dspr", "tgcn", "cke", "ripplenet", "kgat", "kgin", "sgl", "kgcl"]


class TestContract:
    @pytest.mark.parametrize("name", ALL_BASELINES)
    def test_all_scores_shape(self, name, small_dataset, small_split):
        model = build(name, small_dataset, small_split)
        scores = model.all_scores(np.array([0, 1, 2]))
        assert scores.shape == (3, small_dataset.num_items)
        assert np.all(np.isfinite(scores))

    @pytest.mark.parametrize(
        "name", [n for n in ALL_BASELINES if n != "cfa"]
    )
    def test_pair_scores_differentiable(self, name, small_dataset, small_split):
        model = build(name, small_dataset, small_split)
        users = np.array([0, 1])
        items = np.array([2, 3])
        loss = model.pair_scores(users, items).sum()
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, f"{name}: no gradients flowed"

    @pytest.mark.parametrize("name", ["cke", "kgat", "kgin", "sgl", "kgcl"])
    def test_extra_loss_scalar(self, name, small_dataset, small_split, rng):
        model = build(name, small_dataset, small_split)
        extra = model.extra_loss(rng)
        assert extra is not None
        assert extra.size == 1
        assert np.isfinite(extra.item())


class TestLearning:
    @pytest.mark.parametrize(
        "name", [n for n in ALL_BASELINES if n != "cfa"]
    )
    def test_training_reduces_ranking_loss(
        self, name, small_dataset, small_split
    ):
        model = build(name, small_dataset, small_split, seed=0)
        result = fit_bpr(
            model,
            small_split,
            TrainConfig(epochs=10, batch_size=256, eval_every=20, patience=10, seed=0),
        )
        losses = [record["loss"] for record in result.history]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("name", ["dspr", "tgcn"])
    def test_training_improves_validation_recall(
        self, name, small_dataset, small_split
    ):
        evaluator = Evaluator(
            small_split.train, small_split.valid, top_n=(20,), metrics=("recall",)
        )
        untrained = build(name, small_dataset, small_split, seed=0)
        before = evaluator.evaluate(untrained)["recall@20"]
        model = build(name, small_dataset, small_split, seed=0)
        fit_bpr(
            model,
            small_split,
            TrainConfig(epochs=15, batch_size=256, eval_every=5, patience=10, seed=0),
        )
        after = evaluator.evaluate(model)["recall@20"]
        assert after >= before


class TestCFA:
    def test_profiles_row_normalised(self, small_dataset, small_split):
        model = build("cfa", small_dataset, small_split)
        sums = model._profiles.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)

    def test_reconstruction_loss_decreases(self, small_dataset, small_split):
        from repro.data import BPRSampler
        from repro.nn import Adam

        model = build("cfa", small_dataset, small_split)
        sampler = BPRSampler(small_split.train, seed=0)
        batch = next(sampler.epoch(batch_size=64, shuffle=False))
        optimizer = Adam(model.parameters(), lr=0.01)
        first = model.bpr_loss(batch).item()
        for _ in range(10):
            loss = model.bpr_loss(batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert model.bpr_loss(batch).item() < first

    def test_self_similarity_excluded(self, small_dataset, small_split):
        model = build("cfa", small_dataset, small_split)
        scores = model.all_scores(np.array([0]))
        assert np.all(np.isfinite(scores))


class TestRippleNet:
    def test_ripple_sets_shape(self, small_dataset, small_split):
        model = build("ripplenet", small_dataset, small_split)
        assert model._ripples.shape == (small_dataset.num_users, 16)

    def test_ripples_come_from_user_items(self, small_dataset, small_split):
        model = build("ripplenet", small_dataset, small_split)
        tags_of_item = small_dataset.tags_of_item()
        items_of_user = small_split.train.items_of_user()
        user = next(
            u for u in range(small_dataset.num_users)
            if len(items_of_user[u]) > 0
        )
        pool = set()
        for item in items_of_user[user]:
            pool.update(tags_of_item[item].tolist())
        if pool:
            assert set(model._ripples[user].tolist()) <= pool

    def test_pair_scores_match_all_scores(self, small_dataset, small_split):
        model = build("ripplenet", small_dataset, small_split)
        users = np.array([0, 1])
        items = np.array([2, 5])
        pair = model.pair_scores(users, items).data
        dense = model.all_scores(users, item_chunk=4)
        np.testing.assert_allclose(
            [dense[0, 2], dense[1, 5]], pair, atol=1e-8
        )


class TestSGL:
    def test_views_resampled_each_epoch(self, small_dataset, small_split):
        model = build("sgl", small_dataset, small_split)
        before = model._view_adjs[0][0].nnz
        view0_data = model._view_adjs[0][0].copy()
        model.refresh_epoch(1)
        changed = (model._view_adjs[0][0] != view0_data).nnz > 0
        assert changed or model._view_adjs[0][0].nnz != before

    def test_invalid_drop_ratio(self, small_dataset, small_split):
        with pytest.raises(ValueError):
            B.SGL(
                small_dataset.num_users, small_dataset.num_items,
                interactions(small_split), 16, drop_ratio=1.5,
            )

    def test_invalid_augmentation(self, small_dataset, small_split):
        with pytest.raises(ValueError, match="augmentation"):
            B.SGL(
                small_dataset.num_users, small_dataset.num_items,
                interactions(small_split), 16, augmentation="mixup",
            )

    @pytest.mark.parametrize("augmentation", ["ed", "nd", "rw"])
    def test_all_augmentations_produce_finite_ssl_loss(
        self, augmentation, small_dataset, small_split, rng
    ):
        model = B.SGL(
            small_dataset.num_users, small_dataset.num_items,
            interactions(small_split), 16, augmentation=augmentation,
            rng=np.random.default_rng(0),
        )
        loss = model.extra_loss(rng)
        assert np.isfinite(loss.item())
        loss.backward()
        assert model.user_embedding.weight.grad is not None

    def test_rw_layers_differ(self, small_dataset, small_split):
        model = B.SGL(
            small_dataset.num_users, small_dataset.num_items,
            interactions(small_split), 16, augmentation="rw",
            rng=np.random.default_rng(0),
        )
        layer0, layer1 = model._view_adjs[0][0], model._view_adjs[0][1]
        assert (layer0 != layer1).nnz > 0

    def test_ed_layers_shared(self, small_dataset, small_split):
        model = B.SGL(
            small_dataset.num_users, small_dataset.num_items,
            interactions(small_split), 16, augmentation="ed",
            rng=np.random.default_rng(0),
        )
        assert model._view_adjs[0][0] is model._view_adjs[0][1]


class TestKGCL:
    def test_tag_views_differ(self, small_dataset, small_split):
        model = build("kgcl", small_dataset, small_split)
        assert (model._views[0] != model._views[1]).nnz > 0

    def test_extra_loss_gradient_reaches_tags(self, small_dataset, small_split, rng):
        model = build("kgcl", small_dataset, small_split)
        loss = model.extra_loss(rng)
        loss.backward()
        assert model.tag_embedding.weight.grad is not None


class TestKGIN:
    def test_intent_vectors_shape(self, small_dataset, small_split):
        model = build("kgin", small_dataset, small_split)
        assert model.intent_vectors().shape == (4, 16)

    def test_independence_loss_nonnegative(self, small_dataset, small_split):
        model = build("kgin", small_dataset, small_split)
        assert model.independence_loss().item() >= 0.0


class TestKGAT:
    def test_attention_refresh_changes_adjacency(self, small_dataset, small_split, rng):
        model = build("kgat", small_dataset, small_split)
        before = model._adjacency.data.copy()
        # Move embeddings, refresh: attention weights must change.
        with model.user_embedding.weight.write() as data:
            data += 1.0
        model.refresh_epoch(1)
        assert not np.allclose(model._adjacency.data, before)

    def test_adjacency_rows_stochastic(self, small_dataset, small_split):
        model = build("kgat", small_dataset, small_split)
        sums = np.asarray(model._adjacency.sum(axis=1)).ravel()
        nonzero = sums[sums > 0]
        np.testing.assert_allclose(nonzero, 1.0, atol=1e-9)


class TestRippleNetHop2:
    def test_hop2_shape(self, small_dataset, small_split):
        model = build("ripplenet", small_dataset, small_split)
        assert model._ripples2.shape == model._ripples.shape

    def test_hop2_items_share_hop1_tags(self, small_dataset, small_split):
        """Every hop-2 item must carry the hop-1 tag it was reached by
        (when that tag labels at least one item)."""
        model = build("ripplenet", small_dataset, small_split)
        tags_of_item = small_dataset.tags_of_item()
        items_of_tag = [set() for _ in range(small_dataset.num_tags)]
        for item, tag in zip(small_dataset.tag_item_ids, small_dataset.tag_ids):
            items_of_tag[tag].add(int(item))
        for user in range(min(small_dataset.num_users, 10)):
            for pos in range(model.ripple_size):
                tag = model._ripples[user, pos]
                item = model._ripples2[user, pos]
                if items_of_tag[tag]:
                    assert item in items_of_tag[tag]

    def test_two_hop_changes_scores(self, small_dataset, small_split):
        """The hop-2 contribution must actually enter the score."""
        model = build("ripplenet", small_dataset, small_split)
        users = np.array([0, 1])
        items = np.array([2, 3])
        baseline = model.pair_scores(users, items).data.copy()
        # Zeroing the hop-2 item embeddings should move the scores for
        # users whose summaries used them.
        with model.item_embedding.weight.write() as data:
            data[model._ripples2[users].ravel()] = 0.0
        perturbed = model.pair_scores(users, items).data
        assert not np.allclose(baseline, perturbed)
