"""Golden-trace regression: the span structure of a 2-epoch IMCAT run.

Pins the *shape* of the trace a traced training run produces — span
names, nesting, and counts via :func:`repro.obs.span_structure` — not
durations or attributes.  A training-loop refactor that silently drops
a phase (loses the KL term, stops refreshing clusters, skips eval)
changes this signature; a slower machine does not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data.sampling import BPRSampler
from repro.models import BPRMF
from repro.obs import Tracer, span_structure, validate_trace

BATCH_SIZE = 4096
CHUNK_SIZE = 256  # the evaluator default


def _count_batches(split) -> int:
    sampler = BPRSampler(split.train, seed=0)
    return sum(1 for _ in sampler.epoch(BATCH_SIZE))


def _leaf(name):
    return (name, 1, [])


def _eval_children(n_chunks: int) -> list:
    per_chunk = [
        _leaf("eval:score"), _leaf("eval:rank"), _leaf("metric:recall@20"),
    ]
    return per_chunk * n_chunks


def _epoch_children(n_batches, n_chunks, forward, refresh_at=None) -> list:
    children = []
    for batch in range(n_batches):
        children += [_leaf("sampling"), ("forward", 1, forward),
                     _leaf("backward")]
        if refresh_at == batch:
            children.append(_leaf("cluster-refresh"))
    children.append(_leaf("sampling"))  # the exhausted final draw
    children.append(("eval", 1, _eval_children(n_chunks)))
    return children


@pytest.fixture(scope="module")
def golden_run(small_dataset, small_split):
    """One traced 2-epoch IMCAT fit (pretrain epoch + clustering epoch)."""
    n_batches = _count_batches(small_split)
    rng = np.random.default_rng(0)
    backbone = BPRMF(small_dataset.num_users, small_dataset.num_items, 16, rng)
    config = IMCATConfig(
        num_intents=4,
        align_batch_size=32,
        pretrain_epochs=1,
        # Fire exactly once, on the last step of the clustering epoch.
        cluster_refresh_every=2 * n_batches,
    )
    model = IMCAT(backbone, small_dataset, small_split.train, config, rng=rng)
    tracer = Tracer()
    trainer = IMCATTrainer(
        model,
        small_split,
        IMCATTrainConfig(
            epochs=2, batch_size=BATCH_SIZE, eval_every=1, patience=10
        ),
        tracer=tracer,
    )
    trainer.fit()
    return tracer, n_batches


class TestGoldenTrace:
    def test_trace_validates(self, golden_run):
        tracer, _ = golden_run
        assert validate_trace(tracer.records()) is None

    def test_span_structure_matches_golden(self, golden_run, small_split):
        tracer, n_batches = golden_run
        records = tracer.records()
        # Chunk count is a property of the data size, not the trace:
        # the evaluator ranks validation users in chunks of 256.
        valid_users = sum(
            1 for items in small_split.valid.items_of_user() if len(items)
        )
        n_chunks = -(-valid_users // CHUNK_SIZE)
        assert n_chunks >= 1

        forward_pretrain = [
            _leaf("loss:bpr"), _leaf("loss:tag"), _leaf("loss:align"),
            _leaf("loss:independence"),
        ]
        forward_clustering = [
            _leaf("loss:bpr"), _leaf("loss:tag"), _leaf("loss:align"),
            _leaf("loss:kl"), _leaf("loss:independence"),
        ]
        golden = [
            ("train", 1, [
                # Fresh-start ISA index build for the degenerate
                # single-cluster phase.
                ("cluster-refresh", 1, []),
                ("epoch", 1, _epoch_children(
                    n_batches, n_chunks, forward_pretrain
                )),
                ("activate-clustering", 1, []),
                ("epoch", 1, _epoch_children(
                    n_batches, n_chunks, forward_clustering,
                    refresh_at=n_batches - 1,
                )),
            ]),
        ]
        assert span_structure(records) == golden

    def test_attributes_present_on_key_spans(self, golden_run):
        tracer, _ = golden_run
        records = tracer.records()
        train = next(r for r in records if r["name"] == "train")
        assert train["attributes"]["method"] == "IMCAT"
        assert train["attributes"]["backbone"] == "BPRMF"
        assert train["attributes"]["epochs_run"] == 2
        epochs = [r for r in records if r["name"] == "epoch"]
        assert [e["attributes"]["index"] for e in epochs] == [0, 1]
        assert [e["attributes"]["clustering"] for e in epochs] == [
            False, True,
        ]
        for epoch in epochs:
            assert "loss" in epoch["attributes"]
        refresh = next(r for r in records if r["name"] == "cluster-refresh")
        assert 0.0 <= refresh["attributes"]["drift"] <= 1.0

    def test_rerun_is_structurally_identical(
        self, golden_run, small_dataset, small_split
    ):
        """Same seed, same data: the signature is deterministic."""
        tracer, n_batches = golden_run
        rng = np.random.default_rng(0)
        backbone = BPRMF(
            small_dataset.num_users, small_dataset.num_items, 16, rng
        )
        config = IMCATConfig(
            num_intents=4, align_batch_size=32, pretrain_epochs=1,
            cluster_refresh_every=2 * n_batches,
        )
        model = IMCAT(
            backbone, small_dataset, small_split.train, config, rng=rng
        )
        second = Tracer()
        IMCATTrainer(
            model, small_split,
            IMCATTrainConfig(
                epochs=2, batch_size=BATCH_SIZE, eval_every=1, patience=10
            ),
            tracer=second,
        ).fit()
        assert span_structure(second.records()) == span_structure(
            tracer.records()
        )
