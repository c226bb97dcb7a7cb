"""IMCAT hyper-parameter configuration.

Defaults follow Section V.D: embedding size 64, batch size 1024,
learning rate and weight decay 1e-3, smoothing factors eta and tau 1,
scaling factors tuned from {1e-3, 1e-2, 1e-1, 1, 5, 10}, threshold
delta from {0.1, 0.3, 0.5, 0.7, 0.9}, K from {1, 2, 4, 8, 16},
pre-training before the clustering loss activates, and cluster
memberships refreshed every 10 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class IMCATConfig:
    """All knobs of the IMCAT framework.

    Attributes:
        num_intents: K, the number of user intents / tag clusters.
        alpha: weight of the item-tag BPR loss ``L_VT`` (Eq. 18).
        beta: weight of the contrastive alignment loss ``L_CA*``.
        gamma: weight of the clustering KL loss ``L_KL``.
        tau: InfoNCE smoothing factor (Eq. 12).
        eta: Student-t temperature of the soft assignment (Eq. 4).
        delta: Jaccard threshold of the ISA module (Eq. 15).
        independence_weight: weight of the intent-independence
            regulariser (Section V.D, following KGIN).
        use_isa: enable set-to-set alignment (ablated in Fig. 6).
        use_nlt: enable the non-linear transformation (Table III).
        use_end_to_end_clustering: True for the Student-t self-supervised
            clustering (Eqs. 4-6); False for the paper's "naive solution"
            — periodic K-means on the tag embeddings, decoupled from the
            downstream objective (ablation baseline).
        align_item: include the item sub-embedding in ``z`` ("w/o UI"
            ablation of Table III sets this False).
        align_tag: include the tag aggregation in ``z`` ("w/o UT").
        use_alignment: master switch for the CA loss ("w/o UIT").
        use_relatedness: apply the ``M`` re-weighting of Eq. 9/12.
        alignment_objective: "infonce" for the paper's bidirectional
            contrastive loss (Eqs. 11-13); "byol" for a non-contrastive
            positive-pairs-only variant (predictor + stop-gradient,
            following the papers the related work cites as [35, 36]) —
            an extension ablation, not a paper configuration.
        user_aggregation: "mean" for the paper's arithmetic average in
            Eq. 7, or "attention" for item-conditioned attention over
            the interacting users (an extension the paper hints at by
            calling the average "the most intuitive way").
        max_users_per_item: cap on the user aggregation sample (Eq. 7).
        max_positives: cap on ``|P_j^k|`` positives per item (Eq. 17).
        align_batch_size: items per in-batch contrastive step.
        pretrain_epochs: epochs before the clustering loss activates.
        cluster_refresh_every: steps between hard-membership refreshes.
    """

    num_intents: int = 4
    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.1
    tau: float = 1.0
    eta: float = 1.0
    delta: float = 0.7
    independence_weight: float = 0.01
    use_isa: bool = True
    use_nlt: bool = True
    use_end_to_end_clustering: bool = True
    align_item: bool = True
    align_tag: bool = True
    use_alignment: bool = True
    use_relatedness: bool = True
    alignment_objective: str = "infonce"
    user_aggregation: str = "mean"
    max_users_per_item: int = 32
    max_positives: int = 4
    align_batch_size: int = 256
    pretrain_epochs: int = 5
    cluster_refresh_every: int = 10

    def __post_init__(self) -> None:
        if self.num_intents < 1:
            raise ValueError(f"num_intents must be >= 1, got {self.num_intents}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.tau <= 0 or self.eta <= 0:
            raise ValueError("tau and eta must be positive")
        for field_name in ("alpha", "beta", "gamma", "independence_weight"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        for field_name in ("cluster_refresh_every", "align_batch_size"):
            value = getattr(self, field_name)
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")
        if self.user_aggregation not in ("mean", "attention"):
            raise ValueError(
                "user_aggregation must be 'mean' or 'attention', "
                f"got {self.user_aggregation!r}"
            )
        if self.alignment_objective not in ("infonce", "byol"):
            raise ValueError(
                "alignment_objective must be 'infonce' or 'byol', "
                f"got {self.alignment_objective!r}"
            )

    def validate_embedding_dim(self, embed_dim: int) -> int:
        """Return ``d/K``, raising unless ``K`` divides ``d`` evenly.

        The intent sub-embedding views (Eq. 3) and the IMCA projection
        (Eq. 10) both require ``d % K == 0``; checking at config time
        turns a subtle broadcast bug into an immediate error.
        """
        if embed_dim % self.num_intents != 0:
            raise ValueError(
                f"embedding size {embed_dim} is not divisible by "
                f"num_intents {self.num_intents}"
            )
        return embed_dim // self.num_intents

    def ablated(self, **changes) -> "IMCATConfig":
        """Return a copy with the given fields changed (ablation helper)."""
        return replace(self, **changes)

    def without_uit(self) -> "IMCATConfig":
        """Table III "w/o UIT": no contrastive alignment at all."""
        return self.ablated(use_alignment=False)

    def without_ut(self) -> "IMCATConfig":
        """Table III "w/o UT": align users with items only."""
        return self.ablated(align_tag=False)

    def without_ui(self) -> "IMCATConfig":
        """Table III "w/o UI": align users with tags only."""
        return self.ablated(align_item=False)

    def without_nlt(self) -> "IMCATConfig":
        """Table III "w/o NLT": drop the non-linear transformation."""
        return self.ablated(use_nlt=False)
