"""Tests for the extra baselines: DGCF and FM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.baselines import DGCF, FM

from ..helpers import assert_gradcheck, tiny_dataset


def make_dgcf(dataset, split, dim=16, k=4, seed=0):
    return DGCF(
        dataset.num_users, dataset.num_items,
        (split.train.user_ids, split.train.item_ids),
        dim, num_intents=k, rng=np.random.default_rng(seed),
    )


class TestDGCF:
    def test_contract_shapes(self, small_dataset, small_split):
        model = make_dgcf(small_dataset, small_split)
        assert model.user_repr().shape == (small_dataset.num_users, 16)
        scores = model.all_scores(np.array([0, 1]))
        assert scores.shape == (2, small_dataset.num_items)

    def test_intent_dim_must_divide(self, small_dataset, small_split):
        with pytest.raises(ValueError, match="divisible"):
            make_dgcf(small_dataset, small_split, dim=16, k=3)

    def test_invalid_layers(self, small_dataset, small_split):
        with pytest.raises(ValueError, match="num_layers"):
            DGCF(
                small_dataset.num_users, small_dataset.num_items,
                (small_split.train.user_ids, small_split.train.item_ids),
                16, num_layers=0,
            )

    def test_routing_refresh_changes_channels(self, small_dataset, small_split):
        model = make_dgcf(small_dataset, small_split)
        before = model._channel_adjs[0].data.copy()
        with model.user_embedding.weight.write() as data:
            data += 1.0
        model.refresh_epoch(1)
        assert not np.allclose(model._channel_adjs[0].data, before)

    def test_channel_weights_route_edge_mass(self, small_dataset, small_split):
        """Across channels, an edge's routed weights sum to one."""
        model = make_dgcf(small_dataset, small_split)
        # Sum the (u, v) entry over all channel adjacencies pre-normalisation
        # is not directly recoverable post row-normalisation, but every
        # channel matrix must be row-stochastic on non-empty rows.
        for adj in model._channel_adjs:
            sums = np.asarray(adj.sum(axis=1)).ravel()
            nonzero = sums[sums > 1e-12]
            np.testing.assert_allclose(nonzero, 1.0, atol=1e-9)

    def test_gradients_flow(self, small_dataset, small_split):
        model = make_dgcf(small_dataset, small_split)
        loss = model.pair_scores(np.array([0]), np.array([1])).sum()
        loss.backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None

    def test_extra_loss_finite(self, small_dataset, small_split, rng):
        model = make_dgcf(small_dataset, small_split)
        assert np.isfinite(model.extra_loss(rng).item())


class TestFM:
    def test_all_scores_matches_pair_scores(self):
        tiny = tiny_dataset()
        model = FM(tiny, 8, rng=np.random.default_rng(0))
        dense = model.all_scores(np.arange(tiny.num_users))
        uu = np.repeat(np.arange(tiny.num_users), tiny.num_items)
        vv = np.tile(np.arange(tiny.num_items), tiny.num_users)
        pair = model.pair_scores(uu, vv).data.reshape(
            tiny.num_users, tiny.num_items
        )
        np.testing.assert_allclose(dense, pair, atol=1e-10)

    def test_pairwise_term_matches_naive_fm(self):
        """The factorised score equals the explicit sum over pairs."""
        tiny = tiny_dataset()
        model = FM(tiny, 6, rng=np.random.default_rng(1))
        user, item = 1, 0
        score = model.pair_scores(np.array([user]), np.array([item])).item()
        # Naive FM: features = {user u, item v, tags of v}.
        e_u = model.user_embedding.weight.data[user]
        e_v = model.item_embedding.weight.data[item]
        tags = tiny.tags_of_item()[item]
        features = [e_u, e_v] + [model.tag_embedding.weight.data[t] for t in tags]
        pairwise = 0.0
        for i in range(len(features)):
            for j in range(i + 1, len(features)):
                pairwise += float(features[i] @ features[j])
        biases = (
            model.user_bias.data[user]
            + model.item_bias.data[item]
            + model.tag_bias.data[tags].sum()
        )
        assert score == pytest.approx(pairwise + biases, rel=1e-9)

    def test_item_without_tags(self):
        tiny = tiny_dataset()  # item 5 has no tags
        model = FM(tiny, 6, rng=np.random.default_rng(0))
        score = model.pair_scores(np.array([0]), np.array([5])).item()
        e_u = model.user_embedding.weight.data[0]
        e_v = model.item_embedding.weight.data[5]
        expected = float(e_u @ e_v) + model.user_bias.data[0] + model.item_bias.data[5]
        assert score == pytest.approx(expected, rel=1e-9)

    def test_gradients_reach_all_tables(self):
        tiny = tiny_dataset()
        model = FM(tiny, 6, rng=np.random.default_rng(0))
        loss = model.pair_scores(np.array([0, 1]), np.array([0, 1])).sum()
        loss.backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None
        assert model.tag_embedding.weight.grad is not None
        assert model.user_bias.grad is not None

    def test_gradcheck(self):
        tiny = tiny_dataset()
        model = FM(tiny, 4, rng=np.random.default_rng(0))
        users = np.array([0, 2])
        items = np.array([1, 3])
        assert_gradcheck(
            lambda: (model.pair_scores(users, items) ** 2).sum(),
            [model.user_embedding.weight, model.item_embedding.weight,
             model.tag_embedding.weight],
        )


class TestRegistryExtras:
    def test_extras_runnable(self, small_dataset, small_split):
        from repro.bench import EXTRAS

        for name in ("DGCF", "FM"):
            trained = EXTRAS[name](
                small_dataset, small_split, 16, seed=0, epochs=2,
                batch_size=128,
            )
            scores = trained.model.all_scores(np.array([0]))
            assert scores.shape == (1, small_dataset.num_items)
