"""LightGCN propagates once per parameter version, not once per read.

Counts calls to ``LightGCN.propagate`` (the method the repo benchmark
wraps for its ``models.lightgcn.propagate`` ledger row) on a fixed
L-IMCAT: serving, evaluation and weight loads each cost at most one
propagation, and a training step still builds exactly one graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import MODEL_BUILDERS
from repro.core import IMCAT, IMCATConfig
from repro.data import BPRSampler, ItemTagSampler
from repro.eval import Evaluator
from repro.models import LightGCN
from repro.nn import Adam


@pytest.fixture
def calls(monkeypatch):
    counter = {"n": 0}
    real = LightGCN.propagate

    def counting(self):
        counter["n"] += 1
        return real(self)

    monkeypatch.setattr(LightGCN, "propagate", counting)
    return counter


@pytest.fixture
def model(small_dataset, small_split):
    rng = np.random.default_rng(0)
    backbone = MODEL_BUILDERS["LightGCN"](small_dataset, small_split, 8, rng)
    imcat = IMCAT(backbone, small_dataset, small_split.train,
                  IMCATConfig(num_intents=2, align_batch_size=32), rng=rng)
    imcat.eval()
    return imcat


def test_recommend_propagates_once(model, calls):
    for user in range(100):
        model.recommend(user % model.num_users, top_n=20)
    assert calls["n"] == 1


def test_load_state_dict_adds_one(model, calls):
    model.recommend(0)
    model.load_state_dict(model.state_dict())
    for user in range(10):
        model.recommend(user)
    assert calls["n"] == 2


def test_chunked_evaluation_propagates_at_most_once(
    model, calls, small_split
):
    evaluator = Evaluator(small_split.train, small_split.test)
    chunk = -(-len(evaluator.eval_users) // 3)
    evaluator.evaluate(model, chunk_size=chunk)
    assert len(range(0, len(evaluator.eval_users), chunk)) == 3
    assert calls["n"] <= 1


def test_training_step_builds_one_graph(
    model, calls, small_dataset, small_split
):
    """As before the cache: one propagation per step, and a no-grad
    entry left by serving never stands in for the step's graph."""
    model.recommend(0)
    assert calls["n"] == 1
    optimizer = Adam(model.parameters(), lr=1e-3)
    ui_batches = BPRSampler(small_split.train, seed=3).epoch(64)
    it_batches = ItemTagSampler(small_dataset, seed=4).epoch(64)
    items = np.arange(32)
    rng = np.random.default_rng(5)
    model.train()
    for steps in (1, 2):
        loss = model.training_loss(next(ui_batches), next(it_batches),
                                   items, rng)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        assert calls["n"] == 1 + steps
