"""Tests for the IMCAT wrapper model and its joint objective."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IMCAT, IMCATConfig
from repro.data import BPRSampler, ItemTagSampler
from repro.models import BPRMF, LightGCN


def make_model(dataset, split, config=None, backbone="bprmf", dim=16, seed=0):
    rng = np.random.default_rng(seed)
    if backbone == "bprmf":
        bb = BPRMF(dataset.num_users, dataset.num_items, dim, rng)
    else:
        bb = LightGCN(
            dataset.num_users, dataset.num_items,
            (split.train.user_ids, split.train.item_ids), dim, rng=rng,
        )
    config = config or IMCATConfig(num_intents=4, align_batch_size=32)
    return IMCAT(bb, dataset, split.train, config, rng=rng)


def make_batches(dataset, split, seed=0):
    ui = next(BPRSampler(split.train, seed=seed).epoch(64, shuffle=False))
    it = next(ItemTagSampler(dataset, seed=seed).epoch(64, shuffle=False))
    items = np.arange(min(32, dataset.num_items))
    return ui, it, items


class TestConstruction:
    def test_wraps_backbone(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        assert model.num_users == small_dataset.num_users
        assert model.num_tags == small_dataset.num_tags

    def test_parameters_include_all_components(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        names = {name for name, _ in model.named_parameters()}
        assert any(name.startswith("backbone.") for name in names)
        assert any(name.startswith("tag_embedding.") for name in names)
        assert any(name.startswith("clustering.") for name in names)
        assert any(name.startswith("alignment.") for name in names)

    def test_intent_dim_must_divide(self, small_dataset, small_split):
        config = IMCATConfig(num_intents=3)
        with pytest.raises(ValueError, match="divisible"):
            make_model(small_dataset, small_split, config, dim=16)

    def test_scoring_delegates_to_backbone(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        users = np.array([0, 1])
        np.testing.assert_allclose(
            model.all_scores(users), model.backbone.all_scores(users)
        )


class TestLossComponents:
    def test_ui_loss_positive(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        ui, _, _ = make_batches(small_dataset, small_split)
        assert model.ui_loss(ui).item() > 0

    def test_vt_loss_positive(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        _, it, _ = make_batches(small_dataset, small_split)
        assert model.vt_loss(it).item() > 0

    def test_kl_loss_zero_before_activation(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        assert model.kl_loss().item() == 0.0

    def test_kl_loss_nonzero_after_activation(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.activate_clustering(rng)
        assert model.kl_loss().item() >= 0.0
        assert model.clustering_active

    def test_alignment_loss_finite(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.refresh_clusters(rng)
        _, _, items = make_batches(small_dataset, small_split)
        loss = model.alignment_loss(items, rng)
        assert np.isfinite(loss.item())

    def test_training_loss_composes(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.refresh_clusters(rng)
        ui, it, items = make_batches(small_dataset, small_split)
        total = model.training_loss(ui, it, items, rng)
        assert np.isfinite(total.item())
        total.backward()
        grads = sum(p.grad is not None for p in model.parameters())
        assert grads > 0

    def test_alpha_zero_skips_vt(self, small_dataset, small_split, rng):
        config = IMCATConfig(num_intents=4, alpha=0.0, beta=0.0, gamma=0.0,
                             independence_weight=0.0)
        model = make_model(small_dataset, small_split, config)
        ui, it, items = make_batches(small_dataset, small_split)
        total = model.training_loss(ui, it, items, rng)
        expected = model.ui_loss(ui)
        assert total.item() == pytest.approx(expected.item())

    def test_gradient_reaches_tag_embeddings_via_alignment(
        self, small_dataset, small_split, rng
    ):
        config = IMCATConfig(
            num_intents=4, alpha=0.0, gamma=0.0, independence_weight=0.0,
            beta=1.0, align_batch_size=32,
        )
        model = make_model(small_dataset, small_split, config)
        model.refresh_clusters(rng)
        _, _, items = make_batches(small_dataset, small_split)
        loss = model.alignment_loss(items, rng)
        loss.backward()
        assert model.tag_embedding.weight.grad is not None


class TestClusterLifecycle:
    def test_initial_clusters_all_zero(self, small_dataset, small_split):
        model = make_model(small_dataset, small_split)
        assert np.all(model.tag_clusters == 0)

    def test_activation_assigns_diverse_clusters(
        self, small_dataset, small_split, rng
    ):
        model = make_model(small_dataset, small_split)
        model.activate_clustering(rng)
        # K-means on Xavier-random embeddings spreads assignments.
        assert len(np.unique(model.tag_clusters)) > 1

    def test_refresh_builds_isa_index(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.refresh_clusters(rng)
        assert model.isa_index is not None

    def test_isa_disabled_skips_index(self, small_dataset, small_split, rng):
        config = IMCATConfig(num_intents=4, use_isa=False)
        model = make_model(small_dataset, small_split, config)
        model.refresh_clusters(rng)
        assert model.isa_index is None

    def test_cluster_range_valid(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.activate_clustering(rng)
        assert model.tag_clusters.min() >= 0
        assert model.tag_clusters.max() < 4


class TestBackboneIntegration:
    def test_lightgcn_backbone_step_cache(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split, backbone="lightgcn")
        model.refresh_clusters(rng)
        ui, it, items = make_batches(small_dataset, small_split)
        loss = model.training_loss(ui, it, items, rng)
        loss.backward()  # must not raise (single propagation reused)
        assert model.backbone.user_embedding.weight.grad is not None

    def test_state_dict_roundtrip(self, small_dataset, small_split):
        model_a = make_model(small_dataset, small_split, seed=0)
        model_b = make_model(small_dataset, small_split, seed=99)
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_allclose(
            model_a.tag_embedding.weight.data,
            model_b.tag_embedding.weight.data,
        )


class TestClusteringModes:
    def test_kmeans_mode_assigns_clusters(self, small_dataset, small_split, rng):
        config = IMCATConfig(num_intents=4, use_end_to_end_clustering=False)
        model = make_model(small_dataset, small_split, config)
        model.activate_clustering(rng)
        assert len(np.unique(model.tag_clusters)) > 1

    def test_kmeans_mode_kl_loss_zero(self, small_dataset, small_split, rng):
        config = IMCATConfig(num_intents=4, use_end_to_end_clustering=False)
        model = make_model(small_dataset, small_split, config)
        model.activate_clustering(rng)
        assert model.kl_loss().item() == 0.0

    def test_e2e_mode_caches_kl_target(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.activate_clustering(rng)
        assert model._kl_target is not None
        assert model._kl_target.shape == (small_dataset.num_tags, 4)
        np.testing.assert_allclose(model._kl_target.sum(axis=1), 1.0)

    def test_kl_target_fixed_between_refreshes(self, small_dataset, small_split, rng):
        model = make_model(small_dataset, small_split)
        model.activate_clustering(rng)
        target_before = model._kl_target.copy()
        # Perturb embeddings without refreshing: target must not move.
        with model.tag_embedding.weight.write() as data:
            data += 0.5
        model.kl_loss()
        np.testing.assert_allclose(model._kl_target, target_before)
        # After a refresh it follows the new embeddings.
        model.refresh_clusters(rng)
        assert not np.allclose(model._kl_target, target_before)
