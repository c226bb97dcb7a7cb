"""IMCAT core: the paper's contribution.

- :class:`IMCATConfig` — hyper-parameters and ablation switches;
- IRM (:mod:`repro.core.intents`) — intent sub-embedding views and the
  independence regulariser;
- tag clustering (:mod:`repro.core.clustering`) — end-to-end Student-t
  self-supervised clustering plus the K-means baseline;
- IMCA (:mod:`repro.core.alignment`) — multi-source positive sample
  construction and the bidirectional InfoNCE alignment;
- ISA (:mod:`repro.core.set2set`) — Jaccard similar-item sets widening
  the positive pairs;
- :class:`IMCAT` — the model wrapper; :class:`IMCATTrainer` — the
  two-phase training schedule.
"""

from .alignment import (
    IntentAlignment,
    TagAggregator,
    UserAggregator,
    aggregate_tags_per_cluster,
    aggregate_users,
    relatedness_weights,
)
from .clustering import TagClustering, kmeans
from .config import IMCATConfig
from .explain import (
    IntentExplanation,
    cluster_summary,
    explain_pair,
    explain_recommendations,
)
from .imcat import IMCAT
from .intents import (
    independence_loss,
    intent_view,
    intent_views,
    split_intents,
    validate_intent_dims,
)
from .set2set import SetToSetIndex, cluster_tag_matrix, jaccard_similar_pairs
from .trainer import IMCATTrainConfig, IMCATTrainer

__all__ = [
    "IMCAT",
    "IMCATConfig",
    "IMCATTrainConfig",
    "IMCATTrainer",
    "IntentAlignment",
    "IntentExplanation",
    "SetToSetIndex",
    "TagAggregator",
    "TagClustering",
    "UserAggregator",
    "aggregate_tags_per_cluster",
    "aggregate_users",
    "cluster_summary",
    "cluster_tag_matrix",
    "explain_pair",
    "explain_recommendations",
    "independence_loss",
    "intent_view",
    "intent_views",
    "jaccard_similar_pairs",
    "kmeans",
    "relatedness_weights",
    "split_intents",
    "validate_intent_dims",
]
