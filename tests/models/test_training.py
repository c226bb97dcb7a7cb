"""Tests for the shared BPR training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import Evaluator
from repro.models import BPRMF, TrainConfig, fit_bpr


class TestFitBPR:
    def test_improves_over_untrained(self, small_dataset, small_split):
        evaluator = Evaluator(
            small_split.train, small_split.valid, top_n=(20,), metrics=("recall",)
        )
        untrained = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16,
            np.random.default_rng(0),
        )
        before = evaluator.evaluate(untrained)["recall@20"]
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16,
            np.random.default_rng(0),
        )
        result = fit_bpr(
            model, small_split,
            TrainConfig(epochs=30, batch_size=256, eval_every=5, patience=10),
        )
        after = evaluator.evaluate(model)["recall@20"]
        assert after > before
        assert result.best_metric > 0

    def test_early_stopping_halts(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        # Learning rate zero: validation never improves after the first
        # evaluation, so patience=1 must stop well before 100 epochs.
        result = fit_bpr(
            model, small_split,
            TrainConfig(
                epochs=100, batch_size=256, eval_every=1, patience=1,
                learning_rate=1e-12,
            ),
        )
        assert result.epochs_run <= 5

    def test_best_state_restored(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        result = fit_bpr(
            model, small_split,
            TrainConfig(epochs=10, batch_size=256, eval_every=2, patience=2),
        )
        evaluator = Evaluator(
            small_split.train, small_split.valid, top_n=(20,), metrics=("recall",)
        )
        final = evaluator.evaluate(model)["recall@20"]
        assert final == pytest.approx(result.best_metric)

    def test_history_recorded(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        result = fit_bpr(
            model, small_split,
            TrainConfig(epochs=4, batch_size=256, eval_every=2, patience=5),
        )
        assert len(result.history) == 4
        assert all("loss" in record for record in result.history)
        assert any("recall@20" in record for record in result.history)

    def test_wall_time_positive(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        result = fit_bpr(
            model, small_split, TrainConfig(epochs=2, batch_size=256)
        )
        assert result.wall_time > 0

    def test_deterministic_given_seed(self, small_dataset, small_split):
        def run():
            model = BPRMF(
                small_dataset.num_users, small_dataset.num_items, 8,
                np.random.default_rng(3),
            )
            fit_bpr(
                model, small_split,
                TrainConfig(epochs=3, batch_size=256, seed=3),
            )
            return model.user_embedding.weight.data.copy()

        np.testing.assert_allclose(run(), run())


class TestScheduleAndClipping:
    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match="lr_schedule"):
            TrainConfig(lr_schedule="exponential")

    def test_cosine_schedule_decays_lr(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        # Training must run and remain stable with the schedule on.
        result = fit_bpr(
            model, small_split,
            TrainConfig(epochs=4, batch_size=256, lr_schedule="cosine",
                        eval_every=2, patience=5),
        )
        assert result.epochs_run == 4

    def test_step_schedule_runs(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        result = fit_bpr(
            model, small_split,
            TrainConfig(epochs=4, batch_size=256, lr_schedule="step"),
        )
        assert result.epochs_run == 4

    def test_clipping_bounds_updates(self, small_dataset, small_split):
        model = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 8,
            np.random.default_rng(0),
        )
        result = fit_bpr(
            model, small_split,
            TrainConfig(epochs=2, batch_size=256, clip_norm=0.01),
        )
        assert result.epochs_run == 2
        assert np.all(np.isfinite(model.user_embedding.weight.data))


class TestConfigValidation:
    """Counts below 1 fail at construction, not epochs into a run."""

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "field_name",
        ["batch_size", "eval_every", "checkpoint_every", "patience",
         "top_n", "keep_last"],
    )
    @pytest.mark.parametrize("config_cls", ["TrainConfig", "IMCATTrainConfig"])
    def test_train_config_rejects_counts_below_one(
        self, config_cls, field_name, value
    ):
        from repro.core import IMCATTrainConfig

        cls = {"TrainConfig": TrainConfig,
               "IMCATTrainConfig": IMCATTrainConfig}[config_cls]
        with pytest.raises(ValueError, match=field_name):
            cls(**{field_name: value})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "field_name", ["cluster_refresh_every", "align_batch_size"]
    )
    def test_imcat_config_rejects_counts_below_one(self, field_name, value):
        from repro.core import IMCATConfig

        with pytest.raises(ValueError, match=field_name):
            IMCATConfig(**{field_name: value})

    def test_ones_accepted(self):
        from repro.core import IMCATConfig, IMCATTrainConfig

        ones = dict(batch_size=1, eval_every=1, checkpoint_every=1,
                    patience=1, top_n=1, keep_last=1)
        TrainConfig(**ones)
        IMCATTrainConfig(**ones)
        IMCATConfig(cluster_refresh_every=1, align_batch_size=1)

    def test_field_counts(self):
        """The shared fields are declared once; each config keeps its
        own field set (the snapshot fingerprints digest them)."""
        from dataclasses import fields

        from repro.core import IMCATTrainConfig

        assert len(fields(IMCATTrainConfig)) == 14
        assert len(fields(TrainConfig)) == 16
        assert {f.name for f in fields(TrainConfig)} - {
            f.name for f in fields(IMCATTrainConfig)
        } == {"lr_schedule", "clip_norm"}
        assert IMCATTrainConfig().epochs == 60
        assert TrainConfig().epochs == 100
