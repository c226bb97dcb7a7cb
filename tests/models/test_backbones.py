"""Tests for the three backbone recommenders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import BPRSampler
from repro.models import BPRMF, LightGCN, NeuMF
from repro.nn import Adam


class TestRecommenderContract:
    @pytest.fixture
    def models(self, small_split, small_dataset, rng):
        interactions = (small_split.train.user_ids, small_split.train.item_ids)
        n_u, n_v = small_dataset.num_users, small_dataset.num_items
        return {
            "bprmf": BPRMF(n_u, n_v, 16, np.random.default_rng(0)),
            "neumf": NeuMF(n_u, n_v, 16, rng=np.random.default_rng(0)),
            "lightgcn": LightGCN(n_u, n_v, interactions, 16,
                                 rng=np.random.default_rng(0)),
        }

    def test_repr_shapes(self, models, small_dataset):
        for model in models.values():
            assert model.user_repr().shape == (small_dataset.num_users, 16)
            assert model.item_repr().shape == (small_dataset.num_items, 16)

    def test_pair_scores_shape(self, models):
        users = np.array([0, 1, 2])
        items = np.array([3, 4, 5])
        for model in models.values():
            assert model.pair_scores(users, items).shape == (3,)

    def test_all_scores_shape_and_no_grad(self, models, small_dataset):
        users = np.array([0, 1])
        for model in models.values():
            scores = model.all_scores(users)
            assert scores.shape == (2, small_dataset.num_items)
            assert isinstance(scores, np.ndarray)

    def test_invalid_embed_dim(self):
        with pytest.raises(ValueError):
            BPRMF(3, 3, 0, np.random.default_rng(0))


class TestBPRMF:
    def test_scores_are_inner_products(self, rng):
        model = BPRMF(4, 5, 8, rng)
        users, items = np.array([1, 2]), np.array([0, 3])
        expected = (
            model.user_embedding.weight.data[users]
            * model.item_embedding.weight.data[items]
        ).sum(axis=1)
        np.testing.assert_allclose(
            model.pair_scores(users, items).data, expected
        )

    def test_bpr_training_step_reduces_loss(self, small_split):
        model = BPRMF(
            small_split.train.num_users, small_split.train.num_items,
            16, np.random.default_rng(0),
        )
        sampler = BPRSampler(small_split.train, seed=0)
        batch = next(sampler.epoch(batch_size=256, shuffle=False))
        optimizer = Adam(model.parameters(), lr=0.05)
        first = model.bpr_loss(batch).item()
        for _ in range(20):
            loss = model.bpr_loss(batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert model.bpr_loss(batch).item() < first


class TestNeuMF:
    def test_pairwise_matches_all_scores(self, rng):
        model = NeuMF(5, 7, 8, rng=rng)
        model.eval()
        users = np.array([0, 3])
        all_scores = model.all_scores(users)
        pair = model.pair_scores(np.array([0, 3]), np.array([2, 6])).data
        np.testing.assert_allclose(
            [all_scores[0, 2], all_scores[1, 6]], pair, atol=1e-10
        )

    def test_all_scores_matches_pairwise_everywhere(self, rng):
        model = NeuMF(4, 10, 8, rng=rng)
        dense = model.all_scores(np.arange(4))
        uu = np.repeat(np.arange(4), 10)
        vv = np.tile(np.arange(10), 4)
        pair = model.pair_scores(uu, vv).data.reshape(4, 10)
        np.testing.assert_allclose(dense, pair, atol=1e-12)

    def test_gradients_reach_both_branches(self, rng):
        model = NeuMF(4, 4, 8, rng=rng)
        loss = model.pair_scores(np.array([0]), np.array([1])).sum()
        loss.backward()
        assert model.predict.weight.grad is not None
        assert model.mlp.fc0.weight.grad is not None
        assert model.user_embedding.weight.grad is not None


class TestLightGCN:
    def test_zero_layers_equals_raw_embeddings(self, small_split, small_dataset):
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            (small_split.train.user_ids, small_split.train.item_ids),
            16, num_layers=0, rng=np.random.default_rng(0),
        )
        np.testing.assert_allclose(
            model.user_repr().data, model.user_embedding.weight.data
        )

    def test_negative_layers_rejected(self, small_split, small_dataset):
        with pytest.raises(ValueError):
            LightGCN(
                small_dataset.num_users, small_dataset.num_items,
                (small_split.train.user_ids, small_split.train.item_ids),
                16, num_layers=-1,
            )

    def test_propagation_changes_representations(self, small_split, small_dataset):
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            (small_split.train.user_ids, small_split.train.item_ids),
            16, num_layers=2, rng=np.random.default_rng(0),
        )
        assert not np.allclose(
            model.user_repr().data, model.user_embedding.weight.data
        )

    def test_cache_invalidation(self, small_split, small_dataset):
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            (small_split.train.user_ids, small_split.train.item_ids),
            16, rng=np.random.default_rng(0),
        )
        first = model.user_repr()
        assert model.user_repr() is first  # cached within a version
        model.load_state_dict(model.state_dict())  # a new version
        assert model.user_repr() is not first

    def test_isolated_node_keeps_self_embedding(self):
        # Item 2 has no interactions: propagation contributes zeros, so
        # the final representation is ego/num_layers+1 of its embedding.
        model = LightGCN(
            2, 3, (np.array([0, 1]), np.array([0, 1])), 8,
            num_layers=2, rng=np.random.default_rng(0),
        )
        final = model.item_repr().data[2]
        expected = model.item_embedding.weight.data[2] / 3.0
        np.testing.assert_allclose(final, expected)

    def test_accepts_prebuilt_matrix(self, small_split, small_dataset):
        from repro.nn import build_interaction_matrix

        matrix = build_interaction_matrix(
            small_split.train.user_ids, small_split.train.item_ids,
            small_dataset.num_users, small_dataset.num_items,
        )
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items, matrix, 8
        )
        assert model.user_repr().shape[0] == small_dataset.num_users

    def test_gradients_flow_through_propagation(self, small_split, small_dataset):
        model = LightGCN(
            small_dataset.num_users, small_dataset.num_items,
            (small_split.train.user_ids, small_split.train.item_ids),
            8, rng=np.random.default_rng(0),
        )
        loss = model.pair_scores(np.array([0]), np.array([0])).sum()
        loss.backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None
