"""Recommender interface shared by backbones, baselines, and IMCAT.

IMCAT is model-agnostic (Section IV): any model exposing user/item
representations and a pairwise scorer can be wrapped.  The contract is:

- ``user_repr()`` / ``item_repr()`` — *final* representations as autograd
  tensors: ``propagate()`` (the embedding tables, or the propagated
  graph for GNN models) computed once per parameter version;
- ``pair_scores(users, items)`` — differentiable relevance scores
  ``ŷ_{uv}`` for index arrays;
- ``bpr_loss(batch)`` — the ranking loss of Eq. (1) on a triplet batch;
- ``all_scores(users)`` — dense evaluation scores without gradients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..concurrency import new_rlock, shared_state
from ..data.dataset import TagRecDataset
from ..data.sampling import TripletBatch
from ..nn import Embedding, Module, Tensor, is_grad_enabled, no_grad
from ..nn import functional as F
from ..nn import fusion
from ..nn.module import next_version


@shared_state(guard="_lock")
class RepresentationCache:
    """One derived value per version key (see
    :meth:`Recommender.representations`).

    Rules: the key is snapshotted *before* the value is computed, so a
    write that lands during the computation leaves an entry no later
    read matches; and an entry computed without grad never satisfies a
    grad-enabled read, so a training step always builds its own graph.

    Thread safety: a hit reads ``_entry`` (one attribute load) without
    the lock; a miss computes and stores under ``_lock``, which
    :meth:`repro.nn.Module.load_state_dict` also holds while it writes,
    so a computation never sees half-loaded parameters.
    """

    def __init__(self) -> None:
        self._lock = new_rlock("models.RepresentationCache")
        self._entry: Optional[Tuple[Any, bool, Any]] = None

    @property
    def lock(self):
        return self._lock

    def get(self, key: Callable[[], Any], compute: Callable[[], Any]) -> Any:
        """The entry for ``key()``, computing it on a miss."""
        grad = is_grad_enabled()
        value = self._hit(key(), grad)
        if value is not None:
            return value
        with self._lock:
            version = key()
            value = self._hit(version, grad)
            if value is None:
                value = compute()
                self._entry = (version, grad, value)
            return value

    def _hit(self, version: Any, grad: bool) -> Any:
        entry = self._entry
        if entry is not None and entry[0] == version and (entry[1] or not grad):
            return entry[2]
        return None

    def __reduce__(self):
        # Copies (pickle, deepcopy) start empty with a lock of their own.
        return (RepresentationCache, ())


class Recommender(Module):
    """Base class for all recommendation models.

    Args:
        num_users / num_items: entity counts.
        embed_dim: embedding size ``d`` (paper default 64).
        rng: RNG used for Xavier initialisation.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        embed_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if embed_dim <= 0:
            raise ValueError(f"embed_dim must be positive, got {embed_dim}")
        self.num_users = num_users
        self.num_items = num_items
        self.embed_dim = embed_dim
        self.user_embedding = Embedding(num_users, embed_dim, rng)
        self.item_embedding = Embedding(num_items, embed_dim, rng)
        self._representations = RepresentationCache()
        self._derived_version = next_version()

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------
    def propagate(self) -> Tuple[Tensor, ...]:
        """Final ``(users, items[, tags])`` representations computed
        from the parameters.  Default: the embedding tables; GNN models
        override it with their graph propagation."""
        return self.user_embedding.all(), self.item_embedding.all()

    def representations(self) -> Tuple[Tensor, ...]:
        """:meth:`propagate`, run once per version of the model.

        The version is every parameter's write version plus the
        model's derived-state version (:meth:`bump_version`), so any
        optimizer step, ``load_state_dict`` or rebuilt graph makes the
        next read propagate afresh, and a stale result cannot be read.
        """
        return self._representations.get(self._version_key, self.propagate)

    def _version_key(self) -> Tuple[int, ...]:
        return (self._derived_version,
                *(param.version for param in self.parameters()))

    def bump_version(self) -> None:
        """Declare that non-parameter state :meth:`propagate` reads (an
        attention adjacency, intent-routed graphs) was rebuilt."""
        self._derived_version = next_version()

    def write_locks(self) -> List[Any]:
        return [self._representations.lock]

    def user_repr(self) -> Tensor:
        """Final user representations ``(|U|, d)`` (autograd tensor)."""
        return self.representations()[0]

    def item_repr(self) -> Tensor:
        """Final item representations ``(|V|, d)`` (autograd tensor)."""
        return self.representations()[1]

    def refresh_epoch(self, epoch: int) -> None:
        """Hook called at the start of each epoch (e.g. to re-sample
        augmented graphs in SSL baselines).  Default: no-op."""

    # ------------------------------------------------------------------
    # non-parameter state
    # ------------------------------------------------------------------
    def persistent_buffers(self) -> Dict[str, np.ndarray]:
        """Non-parameter arrays that inference needs (e.g. RippleNet's
        sampled ripple sets).  Saved alongside parameters by
        :func:`repro.io.save_model`.  Default: none."""
        return {}

    def load_persistent_buffers(self, buffers: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`persistent_buffers` output.  Default: rejects
        anything, so archives never silently drop state the model cannot
        absorb."""
        if buffers:
            raise ValueError(
                f"{type(self).__name__} has no persistent buffers but the "
                f"archive carries {sorted(buffers)}"
            )

    def get_extra_state(self) -> Optional[Dict[str, Any]]:
        """Non-parameter *training* state for full checkpoints (e.g. the
        augmentation RNG of SSL baselines).  Default: none.  See
        :mod:`repro.ckpt`."""
        return None

    def set_extra_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`get_extra_state` output on resume."""
        raise ValueError(
            f"{type(self).__name__} carries no extra training state but a "
            f"checkpoint supplied some"
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable ``ŷ_{uv}`` for aligned index arrays.

        Default implementation: inner product of final representations.
        """
        u = F.embedding_lookup(self.user_repr(), users)
        v = F.embedding_lookup(self.item_repr(), items)
        return (u * v).sum(axis=1)

    def bpr_loss(self, batch: TripletBatch) -> Tensor:
        """Pairwise ranking loss (Eq. 1) on a triplet batch.

        When the model uses the default inner-product scorer over raw
        embedding tables, the whole step (lookups, dot products, loss
        tail) runs as one fused kernel — bit-identical to the eager chain,
        which remains the path for propagated representations and custom
        scorers.
        """
        if (type(self).pair_scores is Recommender.pair_scores
                and type(self).propagate is Recommender.propagate):
            fused = fusion.dot_bpr(
                self.user_repr(),
                self.item_repr(),
                batch.anchors,
                batch.positives,
                batch.negatives,
            )
            if fused is not None:
                return fused
        pos = self.pair_scores(batch.anchors, batch.positives)
        neg = self.pair_scores(batch.anchors, batch.negatives)
        return F.bpr_loss(pos, neg)

    def extra_loss(self, rng: np.random.Generator) -> Optional[Tensor]:
        """Model-specific auxiliary loss added per batch (e.g. TransR for
        CKE, InfoNCE for SGL).  Default: none."""
        return None

    def all_scores(self, users: np.ndarray) -> np.ndarray:
        """Dense scores for evaluation; gradients are not recorded."""
        with no_grad():
            u = self.user_repr().data[users]
            v = self.item_repr().data
            return u @ v.T

    def recommend(
        self,
        user: int,
        top_n: int = 20,
        exclude: Optional[set] = None,
    ) -> np.ndarray:
        """Top-``top_n`` item indices for one user, best first.

        Args:
            user: user index.
            top_n: list length ``N``.
            exclude: item indices to skip (typically the user's training
                items, per the task definition of Section III.A).
        """
        from ..eval.metrics import rank_items

        scores = self.all_scores(np.array([user]))[0]
        return rank_items(scores, exclude or set(), top_n)

    def l2_reg(self, batch: TripletBatch) -> Tensor:
        """Squared L2 norm of the batch's base embeddings (optional
        explicit regulariser; the paper uses optimizer weight decay)."""
        u = self.user_embedding(batch.anchors)
        p = self.item_embedding(batch.positives)
        n = self.item_embedding(batch.negatives)
        return ((u * u).sum() + (p * p).sum() + (n * n).sum()) * (
            0.5 / max(len(batch), 1)
        )


class TagAwareRecommender(Recommender):
    """Base class for models that also embed the tag vocabulary."""

    def __init__(
        self,
        dataset: TagRecDataset,
        embed_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(dataset.num_users, dataset.num_items, embed_dim, rng)
        self.num_tags = dataset.num_tags
        self.tag_embedding = Embedding(dataset.num_tags, embed_dim, rng)

    def tag_repr(self) -> Tensor:
        """Tag representations ``(|T|, d)``."""
        return self.tag_embedding.all()

    def tag_pair_scores(self, items: np.ndarray, tags: np.ndarray) -> Tensor:
        """Relevance ``ŷ_{vt}`` for the item-tag BPR task (Eq. 2)."""
        v = F.embedding_lookup(self.item_repr(), items)
        t = F.embedding_lookup(self.tag_repr(), tags)
        return (v * t).sum(axis=1)

    def tag_bpr_loss(self, batch: TripletBatch) -> Tensor:
        """Item-tag ranking loss ``L_VT`` (Eq. 2)."""
        if type(self).tag_pair_scores is TagAwareRecommender.tag_pair_scores:
            fused = fusion.dot_bpr(
                self.item_repr(),
                self.tag_repr(),
                batch.anchors,
                batch.positives,
                batch.negatives,
            )
            if fused is not None:
                return fused
        pos = self.tag_pair_scores(batch.anchors, batch.positives)
        neg = self.tag_pair_scores(batch.anchors, batch.negatives)
        return F.bpr_loss(pos, neg)
