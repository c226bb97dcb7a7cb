"""IMCA: intent-aware multi-source contrastive alignment (Section IV.B).

Items bridge the user source and the tag source.  For an item batch and
each intent ``k`` this module constructs

- ``ū_j^k`` — the aggregated intent-k sub-embedding of the users who
  interacted with item ``v_j`` (Eq. 7);
- ``t̄_j^k`` — the aggregated embedding of ``v_j``'s tags falling in
  cluster ``k`` (Eq. 8), zero when the item has no such tag;
- ``t̂_j^k`` — the tag aggregation projected ``d -> d/K`` (Eq. 10);
- ``z̄_j^k = L2(t̂_j^k) ⊕ L2(v_j^k)`` — the item-tag view;
- the relatedness weights ``M_{j,k}`` (Eq. 9);

optionally passes both views through the per-intent non-linear
projection head (Eq. 14), and computes the bidirectional InfoNCE of
Eqs. (11)-(13).  The ISA module widens the positive sets (Eqs. 16-17)
via the ``positive_masks`` argument.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Linear, Module, ProjectionHead, Tensor
from ..nn import functional as F
from ..nn import fusion
from .config import IMCATConfig
from .intents import intent_view, validate_intent_dims


class UserAggregator:
    """Vectorised Eq. (7): per-item mean of interacting users' rows.

    Pre-builds a padded ``(|V|, cap)`` matrix of user indices (items
    with more than ``cap`` users hold a random subsample, resampled via
    :meth:`resample`), so a batch aggregation is one embedding gather
    plus a masked mean — no per-item Python work on the training path.
    """

    def __init__(
        self,
        users_of_item: Sequence[np.ndarray],
        max_users: int,
        rng: np.random.Generator,
        mode: str = "mean",
    ) -> None:
        if mode not in ("mean", "attention"):
            raise ValueError(
                f"mode must be 'mean' or 'attention', got {mode!r}"
            )
        self._users_of_item = users_of_item
        self.max_users = max_users
        self.mode = mode
        num_items = len(users_of_item)
        lengths = np.fromiter(
            (len(u) for u in users_of_item), dtype=np.int64, count=num_items
        )
        self._counts = np.minimum(lengths, max_users)
        self._padded = np.zeros((num_items, max_users), dtype=np.int64)
        # Items at or below capacity keep their full user lists forever;
        # fill them once with a single flat scatter.  Only over-capacity
        # items ever change across resamples.
        under = np.flatnonzero((lengths > 0) & (lengths <= max_users))
        if len(under):
            under_lengths = lengths[under]
            rows = np.repeat(under, under_lengths)
            cols = np.arange(int(under_lengths.sum())) - np.repeat(
                np.concatenate([[0], np.cumsum(under_lengths)[:-1]]), under_lengths
            )
            self._padded[rows, cols] = np.concatenate(
                [users_of_item[i] for i in under]
            )
        self._over = np.flatnonzero(lengths > max_users)
        self.resample(rng)

    def resample(self, rng: np.random.Generator) -> None:
        """Redraw the subsample of users for over-capacity items.

        Iterates only the over-capacity items (at-capacity rows were
        written once at construction), so a cluster-refresh resample no
        longer loops the full item vocabulary.
        """
        # Ragged per-item populations keep this scalar; it only walks
        # the (rare) over-capacity items.
        for item in self._over:  # lint: reference-path
            self._padded[item] = rng.choice(
                self._users_of_item[item], size=self.max_users, replace=False
            )

    def subsample_state(self) -> np.ndarray:
        """The stochastic rows of the padded index: over-capacity items.

        At-capacity rows are deterministic from the dataset, so a
        checkpoint only needs the resampled rows to restore the
        aggregation bit-exactly.
        """
        return self._padded[self._over].copy()

    def load_subsample_state(self, rows: np.ndarray) -> None:
        """Restore rows captured by :meth:`subsample_state`."""
        rows = np.asarray(rows, dtype=np.int64)
        expected = (len(self._over), self.max_users)
        if rows.shape != expected:
            raise ValueError(
                f"user-subsample state mismatch: got shape {rows.shape}, "
                f"expected {expected}"
            )
        self._padded[self._over] = rows

    def __call__(
        self,
        item_batch: np.ndarray,
        user_embeddings: Tensor,
        item_embeddings: Optional[Tensor] = None,
    ) -> Tensor:
        """Aggregate per-item user rows.

        Args:
            item_batch: ``(B,)`` item indices.
            user_embeddings: ``(|U|, d)`` tensor.
            item_embeddings: ``(B, d)`` rows of the batch items — only
                required for ``mode="attention"``, where each item
                attends over its users (``softmax(u . v / sqrt(d))``)
                instead of averaging them uniformly.
        """
        indices = self._padded[item_batch]  # (B, cap)
        counts = self._counts[item_batch]  # (B,)
        batch, cap = indices.shape
        rows = F.embedding_lookup(user_embeddings, indices.reshape(-1))
        mask = (np.arange(cap)[None, :] < counts[:, None]).astype(np.float64)
        if self.mode == "attention":
            if item_embeddings is None:
                raise ValueError("attention aggregation needs item_embeddings")
            d = user_embeddings.shape[1]
            stacked = rows.reshape(batch, cap, d)
            queries = item_embeddings.reshape(batch, 1, d)
            logits = (stacked * queries).sum(axis=2) * (1.0 / np.sqrt(d))
            # Mask padding slots out of the softmax.
            logits = logits + Tensor((mask - 1.0) * 1e9)
            weights = F.softmax(logits, axis=1)
            weighted = stacked * weights.reshape(batch, cap, 1)
            out = weighted.sum(axis=1)
            # Items with no users aggregate to zero, matching mean mode.
            return F.scale_rows(out, (counts > 0).astype(np.float64))
        masked = F.scale_rows(rows, mask.reshape(-1))
        stacked = masked.reshape(batch, cap, -1)
        sums = stacked.sum(axis=1)
        return F.scale_rows(sums, 1.0 / np.maximum(counts, 1))


def _reference_aggregate_users(  # lint: reference-path
    item_batch: np.ndarray,
    users_of_item: Sequence[np.ndarray],
    user_embeddings: Tensor,
    rng: np.random.Generator,
    max_users: int = 32,
) -> Tensor:
    """Eq. (7): mean user embedding per batch item, ``(B, d)``.

    Reference implementation — the production path is
    :class:`UserAggregator`, which precomputes the padded index matrix;
    this per-item loop is kept for the equivalence tests.

    Popular items subsample at most ``max_users`` interacting users to
    bound the cost; the mean commutes with intent slicing, so one full-
    dimension aggregation serves all ``K`` intents.  Items without any
    interacting user (possible for cold items in the training split)
    aggregate to the zero vector.
    """
    segment_ids = []
    user_ids = []
    for pos, item in enumerate(item_batch):
        users = users_of_item[item]
        if len(users) == 0:
            continue
        if len(users) > max_users:
            users = rng.choice(users, size=max_users, replace=False)
        segment_ids.append(np.full(len(users), pos, dtype=np.int64))
        user_ids.append(np.asarray(users))
    if not user_ids:
        d = user_embeddings.shape[1]
        return Tensor(np.zeros((len(item_batch), d)))
    segment_ids = np.concatenate(segment_ids)
    user_ids = np.concatenate(user_ids)
    rows = F.embedding_lookup(user_embeddings, user_ids)
    return F.segment_mean(rows, segment_ids, len(item_batch))


#: Public alias — kept importable, but new code should prefer
#: :class:`UserAggregator` (the vectorized production path).
aggregate_users = _reference_aggregate_users


class TagAggregator:
    """Vectorised Eq. (8): per-(item, cluster) mean tag embeddings.

    Stores the item→tags lists in CSR form once; a batch aggregation
    gathers the flat tag ids with arithmetic on the index pointers —
    no per-item Python loop.
    """

    def __init__(self, tags_of_item: Sequence[np.ndarray], num_intents: int) -> None:
        self.num_intents = num_intents
        lengths = np.array([len(t) for t in tags_of_item], dtype=np.int64)
        self._indptr = np.concatenate([[0], np.cumsum(lengths)])
        self._flat = (
            np.concatenate([t for t in tags_of_item if len(t)])
            if lengths.sum()
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64)

    def __call__(
        self,
        item_batch: np.ndarray,
        tag_embeddings: Tensor,
        tag_clusters: np.ndarray,
    ) -> tuple[Tensor, np.ndarray]:
        k = self.num_intents
        batch = len(item_batch)
        starts = self._indptr[item_batch]
        lengths = self._indptr[item_batch + 1] - starts
        total = int(lengths.sum())
        counts = np.zeros((batch, k), dtype=np.int64)
        if total == 0:
            d = tag_embeddings.shape[1]
            return Tensor(np.zeros((batch * k, d))), counts
        # Flat positions of every (item in batch, tag) assignment.
        row_ids = np.repeat(np.arange(batch), lengths)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths
        )
        flat_positions = np.repeat(starts, lengths) + within
        tags = self._flat[flat_positions]
        segments = row_ids * k + tag_clusters[tags]
        counts = np.bincount(segments, minlength=batch * k).reshape(batch, k)
        rows = F.embedding_lookup(tag_embeddings, tags)
        aggregated = F.segment_mean(rows, segments, batch * k)
        return aggregated, counts


def _reference_aggregate_tags_per_cluster(  # lint: reference-path
    item_batch: np.ndarray,
    tags_of_item: Sequence[np.ndarray],
    tag_embeddings: Tensor,
    tag_clusters: np.ndarray,
    num_intents: int,
) -> tuple[Tensor, np.ndarray]:
    """Eq. (8): per-(item, cluster) mean tag embedding.

    Reference implementation — the production path is
    :class:`TagAggregator`, which stores the item→tags lists in CSR
    form; this per-item loop is kept for the equivalence tests.

    Returns:
        A ``(B * K, d)`` tensor whose row ``pos * K + k`` is
        ``t̄_{item}^{k}`` (zero when the item has no tag in cluster k),
        and the integer count matrix ``|T^k(v_j)|`` of shape ``(B, K)``
        feeding the relatedness weights of Eq. (9).
    """
    segment_ids = []
    tag_ids = []
    counts = np.zeros((len(item_batch), num_intents), dtype=np.int64)
    for pos, item in enumerate(item_batch):
        tags = tags_of_item[item]
        if len(tags) == 0:
            continue
        clusters = tag_clusters[tags]
        segment_ids.append(pos * num_intents + clusters)
        tag_ids.append(np.asarray(tags))
        np.add.at(counts[pos], clusters, 1)
    if not tag_ids:
        d = tag_embeddings.shape[1]
        return Tensor(np.zeros((len(item_batch) * num_intents, d))), counts
    segment_ids = np.concatenate(segment_ids)
    tag_ids = np.concatenate(tag_ids)
    rows = F.embedding_lookup(tag_embeddings, tag_ids)
    aggregated = F.segment_mean(
        rows, segment_ids, len(item_batch) * num_intents
    )
    return aggregated, counts


#: Public alias — kept importable, but new code should prefer
#: :class:`TagAggregator` (the vectorized production path).
aggregate_tags_per_cluster = _reference_aggregate_tags_per_cluster


def relatedness_weights(counts: np.ndarray) -> np.ndarray:
    """Eq. (9): softmax of tag counts per item over intents, ``(B, K)``.

    Computed with the standard max-shift for numerical stability (counts
    can be large for heavily tagged items).
    """
    counts = np.asarray(counts, dtype=np.float64)
    shifted = counts - counts.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


class IntentAlignment(Module):
    """The trainable pieces of IMCA plus the alignment loss.

    Holds, per intent ``k``: the tag projection ``W_0^k`` (Eq. 10) and
    the non-linear projection head (Eq. 14, shared between both views).

    Args:
        embed_dim: full embedding size ``d``.
        config: IMCAT hyper-parameters (K, tau, ablation switches).
        rng: initialisation RNG.
    """

    def __init__(
        self,
        embed_dim: int,
        config: IMCATConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.config = config
        self.embed_dim = embed_dim
        self.intent_dim = validate_intent_dims(embed_dim, config.num_intents)
        self._tag_projections: List[Linear] = []
        self._heads: List[ProjectionHead] = []
        self._predictors: List[Linear] = []
        for k in range(config.num_intents):
            proj = Linear(embed_dim, self.intent_dim, rng)
            head = ProjectionHead(self.intent_dim, rng)
            setattr(self, f"tag_proj{k}", proj)
            setattr(self, f"head{k}", head)
            self._tag_projections.append(proj)
            self._heads.append(head)
            if config.alignment_objective == "byol":
                predictor = Linear(self.intent_dim, self.intent_dim, rng)
                setattr(self, f"predictor{k}", predictor)
                self._predictors.append(predictor)

    # ------------------------------------------------------------------
    # view construction
    # ------------------------------------------------------------------
    def item_tag_view(
        self,
        intent: int,
        item_embeddings: Tensor,
        tag_aggregation: Tensor,
        has_tags: np.ndarray,
    ) -> Tensor:
        """Build ``z̄^k`` for one intent (Section IV.B.2).

        Args:
            intent: intent index ``k``.
            item_embeddings: ``(B, d)`` item final representations.
            tag_aggregation: ``(B, d)`` rows of ``t̄^k`` for this intent.
            has_tags: ``(B,)`` bool — items with no cluster-k tag keep a
                zero tag component rather than an L2-normalised garbage
                direction.
        """
        config = self.config
        components = []
        if config.align_tag:
            projected = self._tag_projections[intent](tag_aggregation)
            normalized = F.l2_normalize(projected)
            mask = has_tags.astype(np.float64)[:, None]
            components.append(F.scale_rows(normalized, mask))
        if config.align_item:
            item_sub = intent_view(
                item_embeddings, intent, config.num_intents,
                dim=self.intent_dim,
            )
            components.append(F.l2_normalize(item_sub))
        if not components:
            raise ValueError(
                "at least one of align_tag/align_item must be enabled "
                "when the alignment loss is active"
            )
        total = components[0]
        for part in components[1:]:
            total = total + part
        return total

    def project(self, intent: int, view: Tensor) -> Tensor:
        """Apply the per-intent non-linear head (Eq. 14) if enabled."""
        if not self.config.use_nlt:
            return view
        return self._heads[intent](view)

    def intent_projections(
        self,
        intent: int,
        batch_size: int,
        user_aggregation: Tensor,
        item_embeddings: Tensor,
        tag_aggregation_all: Tensor,
        tag_counts: np.ndarray,
    ) -> Tuple[Tensor, Tensor]:
        """The two L2-normalised projected views of one intent.

        The paper maximises *cosine* similarity (Section IV.B.2), so
        both projected views are L2-normalised before they are compared.
        """
        k_count = self.config.num_intents
        rows = np.arange(batch_size) * k_count + intent
        has_tags = tag_counts[:, intent] > 0
        u_view = intent_view(
            user_aggregation, intent, k_count, dim=self.intent_dim
        )
        z_view = self.item_tag_view(
            intent, item_embeddings, tag_aggregation_all[rows], has_tags
        )
        u_proj = F.l2_normalize(self.project(intent, u_view))
        z_proj = F.l2_normalize(self.project(intent, z_view))
        return u_proj, z_proj

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------
    def alignment_loss(
        self,
        item_batch: np.ndarray,
        user_aggregation: Tensor,
        item_embeddings: Tensor,
        tag_aggregation_all: Tensor,
        tag_counts: np.ndarray,
        positive_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> Tensor:
        """``L_CA`` / ``L_CA*`` over one item batch (Eqs. 11-13, 16-17).

        Args:
            item_batch: ``(B,)`` item indices (defines in-batch negatives).
            user_aggregation: ``(B, d)`` rows of ``ū_j`` (Eq. 7).
            item_embeddings: ``(B, d)`` item final representations.
            tag_aggregation_all: ``(B * K, d)`` output of
                :func:`aggregate_tags_per_cluster`.
            tag_counts: ``(B, K)`` counts ``|T^k(v_j)|``.
            positive_masks: per-intent ``(B, B)`` boolean ISA positives;
                ``None`` entries fall back to identity pairing.

        Returns:
            Scalar loss, normalised by ``2K`` and the batch size.
        """
        config = self.config
        if not config.use_alignment:
            return Tensor(np.zeros(()))
        batch_size = len(item_batch)
        k_count = config.num_intents
        weights = (
            relatedness_weights(tag_counts)
            if config.use_relatedness
            else np.ones((batch_size, k_count)) / k_count
        )
        if config.alignment_objective == "byol":
            total = self._byol_loss(
                batch_size,
                user_aggregation,
                item_embeddings,
                tag_aggregation_all,
                tag_counts,
                weights,
            )
        else:
            total = self._info_nce_loss(
                batch_size,
                user_aggregation,
                item_embeddings,
                tag_aggregation_all,
                tag_counts,
                weights,
                positive_masks,
            )
        return total * (1.0 / (2.0 * k_count * max(batch_size, 1)))

    def _byol_loss(
        self,
        batch_size: int,
        user_aggregation: Tensor,
        item_embeddings: Tensor,
        tag_aggregation_all: Tensor,
        tag_counts: np.ndarray,
        weights: np.ndarray,
    ) -> Tensor:
        """Sum of the per-intent :meth:`_byol_term` losses (unnormalised)."""
        total = None
        for k in range(self.config.num_intents):
            u_proj, z_proj = self.intent_projections(
                k,
                batch_size,
                user_aggregation,
                item_embeddings,
                tag_aggregation_all,
                tag_counts,
            )
            term = self._byol_term(k, u_proj, z_proj, weights[:, k])
            total = term if total is None else total + term
        return total

    def _info_nce_loss(
        self,
        batch_size: int,
        user_aggregation: Tensor,
        item_embeddings: Tensor,
        tag_aggregation_all: Tensor,
        tag_counts: np.ndarray,
        weights: np.ndarray,
        positive_masks: Optional[Sequence[Optional[np.ndarray]]],
    ) -> Tensor:
        """Bidirectional InfoNCE summed over intents (Eqs. 10-14, 17).

        The per-intent tag projections and both projection-head layers
        run as single block-diagonal :func:`repro.nn.fusion.batched_linear`
        matmuls over ``(K, B, ·)`` stacks instead of K separate Linear
        calls; normalisation, masking and the per-intent InfoNCE terms
        operate on the exact same per-slice values, so the loss and every
        parameter gradient are bit-identical to a per-``k`` loop over
        :meth:`intent_projections` (the differential suite's oracle).
        """
        config = self.config
        k_count = config.num_intents
        dim = self.intent_dim

        def heads(stacked: Tensor) -> Tensor:
            if not config.use_nlt:
                return stacked
            hidden = fusion.batched_linear(
                stacked,
                [head.fc1.weight for head in self._heads],
                [head.fc1.bias for head in self._heads],
            ).leaky_relu()
            return fusion.batched_linear(
                hidden, [head.fc2.weight for head in self._heads], None
            )

        # (B, K*dim) -> (K, B, dim): stack[k] is exactly intent_view(·, k).
        u_stacked = user_aggregation.reshape(
            batch_size, k_count, dim
        ).transpose(1, 0, 2)
        components = []
        if config.align_tag:
            # (B*K, d) -> (K, B, d): stack[k] rows are tag_agg for intent k.
            tag_stacked = tag_aggregation_all.reshape(
                batch_size, k_count, self.embed_dim
            ).transpose(1, 0, 2)
            projected = fusion.batched_linear(
                tag_stacked,
                [proj.weight for proj in self._tag_projections],
                [proj.bias for proj in self._tag_projections],
            )
            has_tags = (tag_counts.T > 0).astype(np.float64)[:, :, None]
            components.append(
                F.scale_rows(F.l2_normalize(projected), has_tags)
            )
        if config.align_item:
            item_stacked = item_embeddings.reshape(
                batch_size, k_count, dim
            ).transpose(1, 0, 2)
            components.append(F.l2_normalize(item_stacked))
        if not components:
            raise ValueError(
                "at least one of align_tag/align_item must be enabled "
                "when the alignment loss is active"
            )
        z_stacked = components[0]
        for part in components[1:]:
            z_stacked = z_stacked + part
        u_proj = F.l2_normalize(heads(u_stacked))
        z_proj = F.l2_normalize(heads(z_stacked))
        total = None
        for k in range(k_count):
            mask = positive_masks[k] if positive_masks is not None else None
            row_w = weights[:, k]
            u_p = u_proj[k]
            z_p = z_proj[k]
            u2it = F.info_nce(
                u_p, z_p, config.tau, row_weights=row_w, positive_mask=mask
            )
            it2u = F.info_nce(
                z_p,
                u_p,
                config.tau,
                row_weights=row_w,
                positive_mask=mask.T if mask is not None else None,
            )
            term = u2it + it2u
            total = term if total is None else total + term
        return total

    def _byol_term(
        self, intent: int, u_proj: Tensor, z_proj: Tensor, row_weights: np.ndarray
    ) -> Tensor:
        """Non-contrastive symmetric alignment (extension variant).

        Each view predicts the *detached* other view through a per-intent
        predictor; the loss is ``2 - 2 cos`` summed with the relatedness
        weights, and no negatives are used.  The stop-gradient breaks
        the collapse symmetry, as in BYOL/SimSiam.
        """
        predictor = self._predictors[intent]
        w = Tensor(np.asarray(row_weights, dtype=np.float64))

        def direction(query: Tensor, target: Tensor) -> Tensor:
            predicted = F.l2_normalize(predictor(query))
            anchored = F.l2_normalize(target.detach())
            cos = (predicted * anchored).sum(axis=1)
            return ((cos * -2.0 + 2.0) * w).sum()

        return direction(u_proj, z_proj) + direction(z_proj, u_proj)
