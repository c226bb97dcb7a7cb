"""IMCAT's phase schedule (Section V.D) as a step of the shared loop.

Phase 1 (pre-training): optimise ``L_UV + alpha * L_VT`` (plus the
alignment loss with all tags in one cluster) so tag embeddings become
informative.  Phase 2: warm-start the cluster centres with K-means,
activate ``L_KL``, and refresh hard memberships every
``cluster_refresh_every`` steps.  Everything else (Adam, early stopping,
checkpoints, instrumentation) is :func:`repro.models.training.run_training`,
the loop the BPR baselines run through too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

import numpy as np

from .. import obs
from ..data.sampling import BPRSampler, IndexCycler, ItemTagSampler, TripletCycler
from ..data.split import Split
from ..eval.evaluator import Evaluator
from ..models.training import BaseTrainConfig, TrainResult, TrainStep, run_training
from ..nn import Tensor
from .config import IMCATConfig
from .imcat import IMCAT


@dataclass
class IMCATTrainConfig(BaseTrainConfig):
    """Optimisation settings for the IMCAT trainer (60-epoch budget)."""

    epochs: int = 60


class IMCATStep(TrainStep):
    """IMCAT's batches, joint loss and two-phase schedule.

    A batch is a user-item triplet batch, then an item-tag triplet batch
    and an alignment item batch from cyclers reshuffled by the trainer
    RNG.  Clustering activates at the start of epoch ``pretrain_epochs``;
    memberships are refreshed every ``cluster_refresh_every`` steps.
    """

    kind = "imcat"

    def __init__(self, model: IMCAT, split: Split, config: IMCATTrainConfig) -> None:
        super().__init__(model)
        backbone = type(model.backbone).__name__
        self.label = f"IMCAT/{backbone}"
        self.fingerprint_parts = (
            model.config, {"kind": "imcat", "backbone": backbone},
        )
        self.span_attributes = {
            "method": "IMCAT", "backbone": backbone, "epochs": config.epochs,
        }
        self.batch_size = config.batch_size
        self.ui_sampler = BPRSampler(split.train, seed=config.seed)
        # The split propagates the full item-tag assignments to every
        # part, so the training view carries all tag labels (tags are
        # item metadata, not held-out interactions).
        self.it_sampler = ItemTagSampler(split.train, seed=config.seed + 1)

    def start(self, snapshot, rng, optimizer, tracer) -> None:
        model: IMCAT = self.model
        self.rng, self.tracer = rng, tracer
        if model.tracer is None:
            model.tracer = tracer
        # Auxiliary batch streams: index arrays are cached once and
        # reshuffled in place at each wrap instead of rebuilding Python
        # lists of every batch at every epoch.
        self.it_batches = TripletCycler(self.it_sampler, self.batch_size, rng)
        self.item_batches = IndexCycler(
            model.num_items, model.config.align_batch_size, rng
        )
        if snapshot is None:
            # Phase-1 alignment uses a single degenerate cluster; build
            # the ISA index for it once.
            self.refresh_clusters()
            return
        self.ui_sampler.load_state_dict(snapshot["samplers"]["ui"])
        self.it_sampler.load_state_dict(snapshot["samplers"]["it"])
        self.it_batches.load_state_dict(snapshot["cyclers"]["triplets"])
        self.item_batches.load_state_dict(snapshot["cyclers"]["items"])

    def refresh_clusters(self) -> None:
        """One membership refresh, timed into the
        ``trainer.cluster_refresh_seconds`` histogram, with the drift
        gauge updated.

        Drift is the fraction of tags whose hard cluster changed — the
        convergence signal the end-to-end clustering (and ELCRec-style
        variants) are tuned against.
        """
        model: IMCAT = self.model
        metrics = obs.get_metrics()
        with (metrics.timed("trainer.cluster_refresh_seconds"),
              self.tracer.span("cluster-refresh") as span):
            before = model.tag_clusters.copy()
            model.refresh_clusters(self.rng)
            drift = (float(np.mean(before != model.tag_clusters))
                     if before.size else 0.0)
            span.set_attribute("drift", drift)
        metrics.gauge("trainer.cluster_drift").set(drift)

    def batches(self) -> Iterator[tuple]:
        return (
            (ui_batch, next(self.it_batches), next(self.item_batches))
            for ui_batch in self.ui_sampler.epoch(self.batch_size)
        )

    def loss(self, ui_batch, it_batch, item_batch) -> Tensor:
        return self.model.training_loss(ui_batch, it_batch, item_batch, self.rng)

    def epoch_attributes(self) -> Dict[str, Any]:
        return {"clustering": self.model.clustering_active}

    def epoch_start(self, epoch: int) -> None:
        if epoch == self.model.config.pretrain_epochs:
            with self.tracer.span("activate-clustering"):
                self.model.activate_clustering(self.rng)

    def after_step(self, step: int) -> None:
        config: IMCATConfig = self.model.config
        if self.model.clustering_active and step % config.cluster_refresh_every == 0:
            self.refresh_clusters()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "samplers": {
                "ui": self.ui_sampler.state_dict(),
                "it": self.it_sampler.state_dict(),
            },
            "cyclers": {
                "triplets": self.it_batches.state_dict(),
                "items": self.item_batches.state_dict(),
            },
        }


class IMCATTrainer:
    """Drives the two-phase IMCAT optimisation.

    Args:
        model: the :class:`IMCAT` wrapper.
        split: train/valid/test split; training batches come from
            ``split.train``, early stopping from ``split.valid``.
        train_config: optimisation settings.
        evaluator: optional custom validation evaluator.
        tracer: optional :class:`repro.obs.Tracer`; falls back to the
            process-global tracer (disabled by default).  When tracing
            is on, the run records the span tree of
            :func:`~repro.models.training.run_training` plus
            ``cluster-refresh`` and ``activate-clustering`` spans; the
            ``trainer.cluster_drift`` gauge tracks each refresh.
    """

    def __init__(
        self,
        model: IMCAT,
        split: Split,
        train_config: Optional[IMCATTrainConfig] = None,
        evaluator: Optional[Evaluator] = None,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        self.model = model
        self.split = split
        self.config = train_config or IMCATTrainConfig()
        self.evaluator = evaluator or Evaluator(
            split.train, split.valid, top_n=(self.config.top_n,),
            metrics=("recall",),
        )
        self.tracer = tracer

    def fit(self) -> TrainResult:
        """Run the full schedule; restores the best validation state.

        With ``config.detect_anomaly`` the run is wrapped in the
        autograd numeric sanitizer: any NaN/Inf produced on the tape
        raises :class:`repro.nn.NumericAnomalyError` naming the
        creating op and its parent shapes.
        """
        step = IMCATStep(self.model, self.split, self.config)
        return run_training(step, self.split, self.config, self.evaluator,
                            tracer=self.tracer)
