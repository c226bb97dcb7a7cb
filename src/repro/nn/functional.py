"""Differentiable functional operations built on :class:`repro.nn.Tensor`.

These are the composite operations the IMCAT model relies on: stable
softmax / log-softmax, L2 normalisation, embedding lookup with
scatter-add gradients, segment means for per-item aggregation, dropout,
and the loss primitives (logsigmoid for BPR, InfoNCE building blocks).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import fusion
from .tensor import Tensor, as_tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp reduction."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    exps = np.exp(x.data - m)
    sums = exps.sum(axis=axis, keepdims=True)
    out_keep = np.log(sums) + m
    out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    soft = exps / sums

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            grad = g if keepdims else np.expand_dims(g, axis=axis)
            x._accumulate(soft * grad)

    return Tensor._make(out_data, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))`` — the BPR loss kernel."""
    x = as_tensor(x)
    # log sigmoid(x) = -softplus(-x) = min(x, 0) - log(1 + exp(-|x|))
    out_data = np.minimum(x.data, 0.0) - np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (1.0 - sig))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * sig)

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit: ``x`` if positive else ``alpha (e^x - 1)``."""
    x = as_tensor(x)
    exp_term = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, exp_term)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            slope = np.where(x.data > 0, 1.0, exp_term + alpha)
            x._accumulate(g * slope)

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = as_tensor(x)
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data**3)
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + tanh_inner)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            sech2 = 1.0 - tanh_inner**2
            d_inner = c * (1.0 + 3 * 0.044715 * x.data**2)
            grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x.data * sech2 * d_inner
            x._accumulate(g * grad)

    return Tensor._make(out_data, (x,), backward)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``.

    The paper normalises the projected tag aggregation and item
    sub-embedding before element-wise addition so that neither source
    dominates by magnitude (Section IV.B.2).
    """
    x = as_tensor(x)
    norm = np.sqrt((x.data**2).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    out_data = x.data / denom

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate((g - out_data * dot) / denom)

    return Tensor._make(out_data, (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding table.

    Gradients are scattered back with ``np.add.at`` so repeated indices
    accumulate correctly (the semantics of ``torch.nn.Embedding``).
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices)
    out_data = weight.data[idx]

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            full = np.zeros_like(weight.data)
            np.add.at(full, idx, g)
            weight._accumulate(full)

    return Tensor._make(out_data, (weight,), backward)


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows of ``x`` grouped by ``segment_ids``.

    Empty segments produce zero rows.  This implements the
    ``aggregate``(·) operator of Eqs. (7) and (8): averaging the
    embeddings of the users who interacted with an item, or of the tags
    of an item falling in one cluster.

    Args:
        x: ``(n, d)`` tensor of row vectors.
        segment_ids: ``(n,)`` integer array assigning each row to a segment.
        num_segments: total number of output segments.
    """
    x = as_tensor(x)
    ids = np.asarray(segment_ids)
    counts = np.bincount(ids, minlength=num_segments).astype(x.data.dtype)
    safe = np.maximum(counts, 1.0)
    sums = np.zeros((num_segments, x.data.shape[1]), dtype=x.data.dtype)
    np.add.at(sums, ids, x.data)
    out_data = sums / safe[:, None]

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g[ids] / safe[ids, None])

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` and rescale."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._make(out_data, (x,), backward)


def matmul_const(x: Tensor, const: np.ndarray) -> Tensor:
    """Multiply by a constant (non-differentiated) matrix: ``x @ const``."""
    x = as_tensor(x)
    c = np.asarray(const)
    out_data = x.data @ c

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ c.T)

    return Tensor._make(out_data, (x,), backward)


def scale_rows(x: Tensor, weights: np.ndarray) -> Tensor:
    """Scale each row of ``x`` by a constant per-row weight.

    Used for the relatedness re-weighting ``M_{j,k}`` of Eq. (12): the
    weights are derived from tag counts and are not differentiated.
    """
    x = as_tensor(x)
    w = np.asarray(weights, dtype=x.data.dtype)
    if w.ndim == 1:
        w = w[:, None] if x.ndim == 2 else w
    out_data = x.data * w

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * w)

    return Tensor._make(out_data, (x,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    pred = as_tensor(pred)
    diff = pred - Tensor(np.asarray(target, dtype=pred.dtype))
    return (diff * diff).mean()


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalized Ranking loss (Eq. 1 / Eq. 2).

    ``-mean(log sigmoid(pos - neg))`` over the batch.

    The whole chain runs as one fused kernel (bit-identical to the eager
    composition below, which handles the inputs the kernel declines).
    """
    pos_scores = as_tensor(pos_scores)
    neg_scores = as_tensor(neg_scores)
    fused = fusion.elementwise_bpr(pos_scores, neg_scores)
    if fused is not None:
        return fused
    return -log_sigmoid(pos_scores - neg_scores).mean()


def info_nce(
    queries: Tensor,
    keys: Tensor,
    temperature: float,
    row_weights: Optional[np.ndarray] = None,
    positive_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """InfoNCE loss between ``queries`` and ``keys`` (Eqs. 12-13, 17).

    Row ``j`` of ``queries`` is aligned with row ``j`` of ``keys`` by
    default; a boolean ``positive_mask[j, j']`` widens the positive set
    (used by the ISA module, Eq. 17 — the loss averages over all marked
    positives per row).  All other columns act as in-batch negatives.

    Args:
        queries: ``(n, d)`` tensor.
        keys: ``(n, d)`` tensor.
        temperature: InfoNCE smoothing factor ``tau``.
        row_weights: optional ``(n,)`` constant weights (``M_{j,k}``).
        positive_mask: optional ``(n, n)`` boolean positives; defaults to
            the identity.

    Returns:
        Scalar loss (sum over rows, matching the paper's formulation).

    Raises:
        ValueError: if ``temperature`` is not strictly positive — a
            zero/negative tau silently flips or explodes the softmax,
            the classic source of NaN collapse in contrastive stacks.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    queries = as_tensor(queries)
    keys = as_tensor(keys)
    fused = fusion.contrastive_info_nce(
        queries, keys, temperature, row_weights, positive_mask
    )
    if fused is not None:
        return fused
    logits = (queries @ keys.T) * (1.0 / temperature)
    log_probs = log_softmax(logits, axis=1)
    n = logits.shape[0]
    # Average log-prob over each row's positive set (Eq. 17 outer mean);
    # the weight matrix is shared with the fused kernel so mask handling
    # cannot drift between the two paths.
    weights = fusion.nce_weights(n, positive_mask, row_weights)
    picked = log_probs * Tensor(weights)
    return -picked.sum()
