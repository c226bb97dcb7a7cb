"""Tests for the self-supervised tag clustering (Eqs. 4-6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TagClustering, kmeans
from repro.nn import Adam, Tensor

from ..helpers import assert_gradcheck


class TestSoftAssignments:
    def test_rows_are_distributions(self, rng):
        clustering = TagClustering(4, 8, rng=rng)
        q = clustering.soft_assignments(Tensor(rng.normal(size=(10, 8))))
        assert np.all(q.data >= 0)
        np.testing.assert_allclose(q.data.sum(axis=1), 1.0)

    def test_closest_center_gets_highest_probability(self, rng):
        clustering = TagClustering(2, 4, rng=rng)
        with clustering.centers.write() as data:
            data[...] = np.array(
                [[0.0, 0.0, 0.0, 0.0], [10.0, 10.0, 10.0, 10.0]]
            )
        q = clustering.soft_assignments(Tensor(np.zeros((1, 4))))
        assert q.data[0, 0] > q.data[0, 1]

    def test_eta_controls_sharpness(self, rng):
        # Student-t kernel: as eta grows the tails lighten and the
        # assignment sharpens (eta -> inf approaches a Gaussian kernel).
        points = Tensor(rng.normal(size=(20, 4)) * 3)
        soft = TagClustering(3, 4, eta=0.5, rng=np.random.default_rng(1))
        sharp = TagClustering(3, 4, eta=100.0, rng=np.random.default_rng(1))
        q_soft = soft.soft_assignments(points).data
        q_sharp = sharp.soft_assignments(points).data
        assert q_sharp.max(axis=1).mean() > q_soft.max(axis=1).mean()

    def test_gradcheck(self, rng):
        clustering = TagClustering(3, 4, rng=rng)
        tags = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = rng.normal(size=(5, 3))
        assert_gradcheck(
            lambda: (clustering.soft_assignments(tags) * Tensor(w)).sum(),
            [tags, clustering.centers],
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TagClustering(0, 4)
        with pytest.raises(ValueError):
            TagClustering(2, 4, eta=0.0)


class TestTargetDistribution:
    def test_rows_are_distributions(self, rng):
        q = rng.dirichlet(np.ones(4), size=10)
        target = TagClustering.target_distribution(q)
        np.testing.assert_allclose(target.sum(axis=1), 1.0)
        assert np.all(target >= 0)

    def test_sharpens_dominant_cluster(self):
        # Balanced cluster frequencies: squaring emphasises the mode.
        q = np.array([[0.9, 0.1], [0.1, 0.9]])
        target = TagClustering.target_distribution(q)
        assert target[0, 0] > 0.9
        assert target[1, 1] > 0.9

    def test_frequency_normalisation_counteracts_big_clusters(self):
        # Both rows favour cluster 0; the f_k division pushes the less
        # confident row toward the smaller cluster (Eq. 5's role).
        q = np.array([[0.9, 0.1], [0.6, 0.4]])
        target = TagClustering.target_distribution(q)
        assert target[1, 1] > 0.4

    def test_uniform_stays_uniform(self):
        q = np.full((5, 4), 0.25)
        target = TagClustering.target_distribution(q)
        np.testing.assert_allclose(target, 0.25)


class TestKLLoss:
    def test_nonnegative(self, rng):
        clustering = TagClustering(4, 8, rng=rng)
        loss = clustering.kl_loss(Tensor(rng.normal(size=(20, 8))))
        assert loss.item() >= -1e-9

    def test_minimisation_sharpens_assignments(self, rng):
        clustering = TagClustering(3, 4, rng=np.random.default_rng(0))
        tags = Tensor(np.random.default_rng(1).normal(size=(30, 4)), requires_grad=True)
        clustering.initialize_from(tags.data, np.random.default_rng(2))
        optimizer = Adam(
            list(clustering.parameters()) + [tags], lr=0.05
        )
        before = clustering.soft_assignments(tags).data.max(axis=1).mean()
        for _ in range(40):
            loss = clustering.kl_loss(tags)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        after = clustering.soft_assignments(tags).data.max(axis=1).mean()
        assert after > before  # cohesion increased

    def test_gradients_flow_to_centers_and_tags(self, rng):
        clustering = TagClustering(3, 4, rng=rng)
        tags = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        clustering.kl_loss(tags).backward()
        assert clustering.centers.grad is not None
        assert tags.grad is not None


class TestHardAssignments:
    def test_matches_argmax_of_q(self, rng):
        clustering = TagClustering(4, 6, rng=rng)
        tags = rng.normal(size=(15, 6))
        hard = clustering.hard_assignments(tags)
        q = clustering.soft_assignments(Tensor(tags)).data
        np.testing.assert_array_equal(hard, q.argmax(axis=1))

    def test_range(self, rng):
        clustering = TagClustering(4, 6, rng=rng)
        hard = clustering.hard_assignments(rng.normal(size=(15, 6)))
        assert hard.min() >= 0 and hard.max() < 4


class TestKMeans:
    def test_separable_clusters_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(30, 2)) + np.array([10, 10])
        b = rng.normal(size=(30, 2)) - np.array([10, 10])
        points = np.vstack([a, b])
        centers, labels = kmeans(points, 2, rng=rng)
        # Points in the same blob share a label.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_centers_shape(self, rng):
        centers, labels = kmeans(rng.normal(size=(50, 4)), 5, rng=rng)
        assert centers.shape == (5, 4)
        assert labels.shape == (50,)

    def test_more_clusters_than_points_padded(self, rng):
        centers, labels = kmeans(rng.normal(size=(3, 2)), 7, rng=rng)
        assert centers.shape == (7, 2)
        assert labels.max() < 3

    def test_empty_input_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2, rng=rng)

    def test_deterministic_given_rng_seed(self):
        points = np.random.default_rng(0).normal(size=(40, 3))
        c1, l1 = kmeans(points, 4, rng=np.random.default_rng(5))
        c2, l2 = kmeans(points, 4, rng=np.random.default_rng(5))
        np.testing.assert_allclose(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    @given(st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_labels_index_nearest_center(self, k):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(25, 3))
        centers, labels = kmeans(points, k, rng=rng)
        distances = ((points[:, None, :] - centers[None, :k, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, distances.argmin(axis=1))


class TestInitializeFrom:
    def test_centers_set_from_kmeans(self, rng):
        clustering = TagClustering(3, 4, rng=rng)
        tags = rng.normal(size=(30, 4))
        clustering.initialize_from(tags, np.random.default_rng(0))
        expected, _ = kmeans(tags, 3, rng=np.random.default_rng(0))
        np.testing.assert_allclose(clustering.centers.data, expected)
