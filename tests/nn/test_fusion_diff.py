"""Differential harness: fused execution is bit-identical to eager.

The fusion contract (:mod:`repro.nn.fusion`) promises that the fused
kernels change the *tape*, never the *numbers*: every loss value, every
parameter gradient, and every post-optimizer-step parameter must carry
the exact same float64 bits as the eager composition.  The kernels are
the only runtime path, so the eager side runs under
:func:`tests.eager_oracle.eager_oracle`, which substitutes each kernel
entry point with its ineligible ``None`` return (plus a per-intent
reference for the InfoNCE alignment loss).  This suite locks the
contract down three ways:

- a property sweep over every registry model (one full
  forward/backward/Adam step, name-derived seeds and batch shapes),
- an IMCAT ``training_loss`` differential across the paper's ablation
  axes with clustering both inactive and active,
- finite-difference gradchecks of each fused kernel in isolation, plus
  tape-analysis assertions that fusion actually shrank the graph.

Bitwise equality is asserted with ``np.array_equal`` — no tolerances.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig
from repro.data import BPRSampler, ItemTagSampler
from repro.models import BPRMF
from repro.nn import Adam, Tensor, fusion
from repro.nn import functional as F

from ..eager_oracle import eager_oracle
from ..helpers import assert_gradcheck


def _seed(name: str) -> int:
    """Deterministic per-model seed so shapes/draws vary across entries."""
    return zlib.crc32(name.encode("utf-8")) % 100_000


def _execution(fused: bool):
    """The library's runtime path, or the eager oracle."""
    return nullcontext() if fused else eager_oracle()


def _assert_same_grads(eager: dict, fused: dict) -> None:
    assert eager.keys() == fused.keys()
    for key in eager:
        if eager[key] is None or fused[key] is None:
            assert eager[key] is None and fused[key] is None, key
        else:
            assert np.array_equal(eager[key], fused[key]), key


def _full_step(model, batch, rng):
    """One loss/backward/Adam step; returns (loss, grads, params)."""
    model.train()
    model.refresh_epoch(0)
    loss = model.bpr_loss(batch)
    extra = model.extra_loss(rng)
    if extra is not None:
        loss = loss + extra
    optimizer = Adam(model.parameters(), lr=0.01)
    optimizer.zero_grad()
    loss.backward()
    grads = {
        name: None if param.grad is None else param.grad.copy()
        for name, param in model.named_parameters()
    }
    optimizer.step()
    return float(loss.item()), grads, model.state_dict()


class TestModelStepDifferential:
    """Every registry model: fused == eager to the bit through one step."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_step_bit_identical(self, name, small_dataset, small_split):
        seed = _seed(name)
        batch_size = 17 + (seed % 3) * 16  # vary shapes across models
        sampler = BPRSampler(small_split.train, seed=seed)
        batch = next(sampler.epoch(batch_size, shuffle=False))

        def run(fused):
            model = MODEL_BUILDERS[name](
                small_dataset, small_split, 8, np.random.default_rng(seed)
            )
            with _execution(fused):
                return _full_step(model, batch, np.random.default_rng(seed + 1))

        loss_eager, grads_eager, params_eager = run(False)
        loss_fused, grads_fused, params_fused = run(True)
        assert loss_eager == loss_fused
        _assert_same_grads(grads_eager, grads_fused)
        assert params_eager.keys() == params_fused.keys()
        for key in params_eager:
            assert np.array_equal(params_eager[key], params_fused[key]), key

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_tag_loss_bit_identical(self, name, small_dataset, small_split):
        seed = _seed(name)
        probe = MODEL_BUILDERS[name](
            small_dataset, small_split, 8, np.random.default_rng(seed)
        )
        if not hasattr(probe, "tag_bpr_loss"):
            pytest.skip(f"{name} is not tag-aware")
        batch = next(
            ItemTagSampler(small_dataset, seed=seed).epoch(33, shuffle=False)
        )

        def run(fused):
            model = MODEL_BUILDERS[name](
                small_dataset, small_split, 8, np.random.default_rng(seed)
            )
            model.train()
            with _execution(fused):
                loss = model.tag_bpr_loss(batch)
                model.zero_grad()
                loss.backward()
            grads = {
                key: None if param.grad is None else param.grad.copy()
                for key, param in model.named_parameters()
            }
            return float(loss.item()), grads

        loss_eager, grads_eager = run(False)
        loss_fused, grads_fused = run(True)
        assert loss_eager == loss_fused
        _assert_same_grads(grads_eager, grads_fused)


#: Compact slice of the paper's Table III / Fig. 6 ablation axes — each
#: entry exercises a different branch mix inside the fused alignment.
ABLATIONS = {
    "full": {},
    "no-nlt": {"use_nlt": False},
    "no-isa": {"use_isa": False},
    "no-relatedness": {"use_relatedness": False},
    "wo-ui": {"align_item": False},
    "wo-ut": {"align_tag": False},
    "wo-uit": {"use_alignment": False},
}


class TestImcatDifferential:
    """The joint IMCAT objective fused vs eager, across ablation axes."""

    @pytest.mark.parametrize("clustering", [False, True])
    @pytest.mark.parametrize("variant", sorted(ABLATIONS))
    def test_training_loss_bit_identical(
        self, variant, clustering, small_dataset, small_split
    ):
        config = IMCATConfig(
            num_intents=4, align_batch_size=32, **ABLATIONS[variant]
        )
        ui = next(BPRSampler(small_split.train, seed=3).epoch(64, shuffle=False))
        it = next(
            ItemTagSampler(small_dataset, seed=4).epoch(64, shuffle=False)
        )
        items = np.arange(min(32, small_dataset.num_items))

        def run(fused):
            rng = np.random.default_rng(7)
            backbone = BPRMF(
                small_dataset.num_users, small_dataset.num_items, 16, rng
            )
            model = IMCAT(
                backbone, small_dataset, small_split.train, config, rng=rng
            )
            model.train()
            if clustering:
                model.activate_clustering(np.random.default_rng(11))
            model.refresh_epoch(0)
            with _execution(fused):
                loss = model.training_loss(ui, it, items, np.random.default_rng(13))
                model.zero_grad()
                loss.backward()
            grads = {
                key: None if param.grad is None else param.grad.copy()
                for key, param in model.named_parameters()
            }
            return float(loss.item()), grads

        loss_eager, grads_eager = run(False)
        loss_fused, grads_fused = run(True)
        assert loss_eager == loss_fused
        _assert_same_grads(grads_eager, grads_fused)


class TestFusedOpGradcheck:
    """Finite-difference checks of each fused kernel in isolation."""

    def test_elementwise_bpr(self, rng):
        pos = Tensor(rng.normal(size=23), requires_grad=True)
        neg = Tensor(rng.normal(size=23), requires_grad=True)
        assert_gradcheck(lambda: F.bpr_loss(pos, neg), [pos, neg])

    def test_info_nce_with_mask_and_weights(self, rng):
        queries = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        keys = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        mask = np.eye(6, dtype=bool)
        mask[0, 3] = mask[2, 5] = True  # widened positive sets (Eq. 17)
        weights = rng.uniform(0.5, 1.5, size=6)
        assert_gradcheck(
            lambda: F.info_nce(queries, keys, 0.7, weights, mask),
            [queries, keys],
        )

    def test_batched_linear(self, rng):
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        weights = [
            Tensor(rng.normal(size=(2, 4)), requires_grad=True)
            for _ in range(3)
        ]
        biases = [
            Tensor(rng.normal(size=2), requires_grad=True) for _ in range(3)
        ]
        assert_gradcheck(
            lambda: fusion.batched_linear(x, weights, biases).sum(),
            [x] + weights + biases,
        )

    def test_dot_bpr(self, rng):
        users = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        items = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        anchors = np.array([0, 1, 3, 3, 2])
        positives = np.array([0, 2, 1, 1, 4])
        negatives = np.array([3, 0, 4, 2, 0])
        loss_builder = lambda: fusion.dot_bpr(
            users, items, anchors, positives, negatives
        )
        assert loss_builder() is not None
        assert_gradcheck(loss_builder, [users, items])


class TestFusionBookkeeping:
    """Oracle substitution, stats accounting, and tape analysis."""

    def test_eager_oracle_bypasses_every_kernel(self, small_dataset, small_split):
        """The differential is not vacuous: the oracle side runs no
        kernel, the runtime side runs them."""
        ui = next(BPRSampler(small_split.train, seed=3).epoch(64, shuffle=False))
        it = next(ItemTagSampler(small_dataset, seed=4).epoch(64, shuffle=False))
        rng = np.random.default_rng(7)
        backbone = BPRMF(small_dataset.num_users, small_dataset.num_items, 16, rng)
        model = IMCAT(
            backbone, small_dataset, small_split.train,
            IMCATConfig(num_intents=4, align_batch_size=32), rng=rng,
        )
        model.train()
        model.refresh_epoch(0)

        def kernel_calls(execution) -> int:
            fusion.reset()
            with execution:
                model.training_loss(
                    ui, it, np.arange(32), np.random.default_rng(13)
                ).backward()
            return fusion.stats.kernel_calls

        assert kernel_calls(eager_oracle()) == 0
        assert kernel_calls(nullcontext()) > 0

    def test_stats_count_kernel_calls_without_fallbacks(self, rng):
        fusion.reset()
        pos = Tensor(rng.normal(size=16), requires_grad=True)
        neg = Tensor(rng.normal(size=16), requires_grad=True)
        for _ in range(3):
            F.bpr_loss(pos, neg).backward()
        assert fusion.stats.kernel_calls == 3
        assert fusion.stats.kernels_compiled == 1  # cached after first call
        assert fusion.stats.fallbacks == 0
        assert fusion.stats.nodes_saved > 0

    def test_record_metrics_flushes_and_resets(self, rng):
        fusion.reset()
        pos = Tensor(rng.normal(size=8), requires_grad=True)
        neg = Tensor(rng.normal(size=8), requires_grad=True)
        F.bpr_loss(pos, neg).backward()
        metrics = obs.MetricsRegistry()
        fusion.record_metrics(metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["fusion.kernel_calls"] == 1
        assert fusion.stats.kernel_calls == 0  # reset_after drained them

    def test_analyze_finds_eager_chains_and_fused_shrink(self, rng):
        pos = Tensor(rng.normal(size=16), requires_grad=True)
        neg = Tensor(rng.normal(size=16), requires_grad=True)
        with eager_oracle():
            eager_report = fusion.analyze(F.bpr_loss(pos, neg))
        assert eager_report.fusable_nodes >= 2
        fused_report = fusion.analyze(F.bpr_loss(pos, neg))
        assert fused_report.nodes < eager_report.nodes
        assert fused_report.fusable_nodes == 0
