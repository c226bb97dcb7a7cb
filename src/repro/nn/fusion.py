"""Graph-level kernel fusion for the autograd tape.

The eager tape records one node per primitive op, which makes the hot
losses (BPR, InfoNCE) long chains of tiny NumPy calls: every link pays a
closure, a fresh temporary, and a Python dispatch.  This module collapses
those chains into *fused kernels* — single tape nodes whose forward and
backward replay **exactly the same NumPy operations in exactly the same
association order** as the eager chain, but through reusable scratch
buffers and without the per-link bookkeeping.  Bit-identity with eager
execution is therefore a property of the construction, not of tolerance
thresholds; ``tests/nn/test_fusion_diff.py`` enforces it across every
registered model.

Three kernel families are provided:

- :func:`elementwise_bpr` — the ``-log_sigmoid(pos - neg).mean()`` tail
  (six eager nodes → one);
- :func:`contrastive_info_nce` — the full InfoNCE block: logits matmul,
  temperature scale, log-softmax, positive-mask weighting and reduction
  (seven eager nodes → one);
- :func:`batched_linear` — the K per-intent projections of Eq. (10)/(14)
  collapsed into one block-diagonal (strided) ``np.matmul`` over a
  ``(K, B, d)`` stack (K matmul+bias chains → one node);
- :func:`dot_bpr` — the whole default-scorer BPR step for embedding-table
  models: four lookups, two inner-product reductions and the loss tail
  in one node, with gradient scatters written straight into freshly
  allocated tables (no intermediate full-table copies).

The kernels are the only runtime path: every call site routes through
them.  Kernels apply strict eligibility checks (dtype, shape, leaf-ness)
and return ``None`` when a call cannot be fused bit-exactly; callers
then run the eager composition, which is the sole path for those
inputs.  The differential tests reach the same compositions as their
oracle by substituting each entry point with its ineligible ``None``
return.

:func:`analyze` walks a recorded tape and reports the fusable
elementwise chains — the introspection pass the differential tests and
benchmarks use to prove the fused tape actually shrank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, _op_name

__all__ = [
    "FusionStats",
    "TapeReport",
    "analyze",
    "batched_linear",
    "contrastive_info_nce",
    "dot_bpr",
    "elementwise_bpr",
    "reset",
    "stats",
]

# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
@dataclass
class FusionStats:
    """Process-local counters behind the ``fusion.*`` obs metrics."""

    kernel_calls: int = 0
    kernels_compiled: int = 0
    state_reuses: int = 0
    state_allocs: int = 0
    nodes_saved: int = 0
    fallbacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "kernel_calls": self.kernel_calls,
            "kernels_compiled": self.kernels_compiled,
            "state_reuses": self.state_reuses,
            "state_allocs": self.state_allocs,
            "nodes_saved": self.nodes_saved,
            "fallbacks": self.fallbacks,
        }

    def clear(self) -> None:
        self.kernel_calls = 0
        self.kernels_compiled = 0
        self.state_reuses = 0
        self.state_allocs = 0
        self.nodes_saved = 0
        self.fallbacks = 0


stats = FusionStats()


def record_metrics(metrics, reset_after: bool = True) -> None:
    """Flush the fusion counters into an obs metrics registry.

    Trainers call this once per epoch, so the hot kernel path
    never touches the (locked) metrics registry itself.
    """
    for name, value in stats.snapshot().items():
        if value:
            metrics.counter(f"fusion.{name}").inc(value)
    if reset_after:
        stats.clear()


class _StatePool:
    """Free-list of per-node buffer sets for one kernel signature.

    A fused node's backward closure needs arrays computed during forward
    (e.g. the sigmoid of the score difference).  Several nodes of the
    same kernel can be live on one tape (IMCAT records the UI and VT BPR
    losses before either backward runs), so the buffers are checked out
    per call and released by the backward closure — steady-state
    training reuses the same few allocations forever.
    """

    _MAX_FREE = 8

    def __init__(self, factory: Callable[[], dict]) -> None:
        self._factory = factory
        self._free: List[dict] = []

    def acquire(self) -> dict:
        if self._free:
            stats.state_reuses += 1
            return self._free.pop()
        stats.state_allocs += 1
        return self._factory()

    def release(self, state: dict) -> None:
        if len(self._free) < self._MAX_FREE:
            self._free.append(state)


_kernel_cache: Dict[tuple, object] = {}
_KERNEL_CACHE_MAX = 256


def _kernel(key: tuple, factory: Callable[[], object]):
    kernel = _kernel_cache.get(key)
    if kernel is None:
        if len(_kernel_cache) >= _KERNEL_CACHE_MAX:
            _kernel_cache.clear()
        kernel = factory()
        _kernel_cache[key] = kernel
        stats.kernels_compiled += 1
    return kernel


def reset() -> None:
    """Drop all cached kernels/buffers and zero the counters (tests)."""
    _kernel_cache.clear()
    stats.clear()


def _is_f64(*tensors: Tensor) -> bool:
    return all(t.data.dtype == np.float64 for t in tensors)


def _is_leaf(t: Tensor) -> bool:
    return t._backward is None and not t._parents


# ----------------------------------------------------------------------
# kernel 1: the BPR loss tail   -log_sigmoid(pos - neg).mean()
# ----------------------------------------------------------------------
class _ElementwiseBPR:
    """Fuses neg → add → log_sigmoid → sum → scale → neg into one node.

    Forward and backward replicate the eager op sequence exactly —
    ``a + (-b)``, ``min(d,0) - log1p(exp(-|d|))``, pairwise ``.sum()``,
    ``* (1/n)`` — so outputs and gradients are bit-identical to the
    unfused chain; only the tape shape and the temporaries change.
    """

    NODES_SAVED = 5  # 6 eager nodes -> 1 fused node

    def __init__(self, shape: Tuple[int, ...]) -> None:
        self._shape = shape
        self._scratch = np.empty(shape)
        self._ls = np.empty(shape)
        self._gbuf = np.empty(shape)
        self._gneg = np.empty(shape)
        self._states = _StatePool(lambda: {"sig": np.empty(shape)})

    def __call__(self, pos: Tensor, neg: Tensor) -> Tensor:
        n = pos.data.size
        inv = np.float64(1.0 / n)
        state = self._states.acquire()
        d = state["sig"]  # holds d first, sigmoid after
        # d = pos + (-neg), exactly as eager __sub__ computes it.
        np.negative(neg.data, out=d)
        np.add(pos.data, d, out=d)
        # log_sigmoid(d) = min(d, 0) - log1p(exp(-|d|))
        t = self._scratch
        np.abs(d, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        ls = self._ls
        np.minimum(d, 0.0, out=ls)
        np.subtract(ls, t, out=ls)
        # The eager backward captures sigmoid(d) at forward time.
        np.clip(d, -500, 500, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        np.add(d, 1.0, out=d)
        np.divide(1.0, d, out=d)  # d now holds sig, kept for backward
        s = ls.sum()
        out_data = np.asarray(-(s * inv))

        pool = self._states
        gbuf = self._gbuf
        gneg_buf = self._gneg

        def backward(g: np.ndarray) -> None:
            sig = state["sig"]
            gs = (-g) * inv  # grad reaching every log-sigmoid element
            np.subtract(1.0, sig, out=gbuf)
            np.multiply(gbuf, gs, out=gbuf)
            if pos.requires_grad:
                pos._accumulate(gbuf)
            if neg.requires_grad:
                np.negative(gbuf, out=gneg_buf)
                neg._accumulate(gneg_buf)
            pool.release(state)

        out = Tensor._make(out_data, (pos, neg), backward)
        if not out.requires_grad:
            pool.release(state)
        stats.kernel_calls += 1
        stats.nodes_saved += self.NODES_SAVED
        return out


def elementwise_bpr(pos: Tensor, neg: Tensor) -> Optional[Tensor]:
    """Fused ``-log_sigmoid(pos - neg).mean()``; None when ineligible."""
    if pos.shape != neg.shape or pos.data.size == 0 or not _is_f64(pos, neg):
        stats.fallbacks += 1
        return None
    kernel = _kernel(
        ("bpr", pos.shape), lambda: _ElementwiseBPR(pos.shape)
    )
    return kernel(pos, neg)


# ----------------------------------------------------------------------
# kernel 2: InfoNCE (logits -> scale -> log-softmax -> pick -> sum -> neg)
# ----------------------------------------------------------------------
def nce_weights(
    n: int,
    positive_mask: Optional[np.ndarray],
    row_weights: Optional[np.ndarray],
) -> np.ndarray:
    """The constant positive-set weight matrix of Eq. (17).

    Shared verbatim by the eager and fused InfoNCE paths so mask
    validation and the weight arithmetic cannot drift apart.
    """
    if positive_mask is None:
        positive_mask = np.eye(n, dtype=bool)
    else:
        positive_mask = np.asarray(positive_mask, dtype=bool)
        if positive_mask.shape != (n, n):
            raise ValueError(
                f"positive_mask shape {positive_mask.shape} != ({n}, {n})"
            )
        # Ensure the self-pair is always a positive.
        positive_mask = positive_mask | np.eye(n, dtype=bool)
    pos_counts = positive_mask.sum(axis=1).astype(np.float64)
    weights = positive_mask.astype(np.float64) / pos_counts[:, None]
    if row_weights is not None:
        weights = weights * np.asarray(row_weights, dtype=np.float64)[:, None]
    return weights


class _InfoNCE:
    """One-node InfoNCE replicating the eager seven-op chain bit-exactly."""

    NODES_SAVED = 6

    def __init__(self, n: int, d: int) -> None:
        self._logits = np.empty((n, n))
        self._rowsum = np.empty((n, 1))
        self._gq = np.empty((n, d))
        self._gk = np.empty((d, n))
        self._tmp = np.empty((n, n))
        self._states = _StatePool(
            lambda: {"soft": np.empty((n, n)), "weights": np.empty((n, n))}
        )

    def __call__(
        self,
        queries: Tensor,
        keys: Tensor,
        temperature: float,
        row_weights: Optional[np.ndarray],
        positive_mask: Optional[np.ndarray],
    ) -> Tensor:
        n = queries.shape[0]
        inv_tau = np.asarray(1.0 / temperature)
        state = self._states.acquire()
        lg = self._logits
        # (queries @ keys.T) * (1/tau) — same transposed-view matmul as eager.
        np.matmul(queries.data, keys.data.transpose(1, 0), out=lg)
        np.multiply(lg, inv_tau, out=lg)
        # log_softmax(axis=1), max-shifted exactly like F.log_softmax.
        mx = lg.max(axis=1, keepdims=True)
        np.subtract(lg, mx, out=lg)  # lg now holds `shifted`
        t = self._tmp
        np.exp(lg, out=t)
        rs = self._rowsum
        np.sum(t, axis=1, keepdims=True, out=rs)
        np.log(rs, out=rs)
        np.subtract(lg, rs, out=lg)  # lg now holds log_probs
        soft = state["soft"]
        np.exp(lg, out=soft)
        weights = state["weights"]
        np.copyto(weights, nce_weights(n, positive_mask, row_weights))
        np.multiply(lg, weights, out=t)
        out_data = np.asarray(-(t.sum()))

        pool = self._states
        tmp = self._tmp
        rowsum = self._rowsum
        gq = self._gq
        gk = self._gk

        def backward(g: np.ndarray) -> None:
            soft_b = state["soft"]
            w = state["weights"]
            gs = -g  # grad of the picked sum
            # mul-by-weights backward: g * weights (scalar broadcast).
            np.multiply(w, gs, out=w)  # w now holds g_logprobs
            # log_softmax backward: g - soft * g.sum(axis=1, keepdims=True)
            np.sum(w, axis=1, keepdims=True, out=rowsum)
            np.multiply(soft_b, rowsum, out=tmp)
            np.subtract(w, tmp, out=w)
            # temperature-scale backward.
            np.multiply(w, inv_tau, out=w)
            # matmul backward, queries first then keys — eager order.
            if queries.requires_grad:
                np.matmul(w, keys.data, out=gq)
                queries._accumulate(gq)
            if keys.requires_grad:
                np.matmul(queries.data.transpose(1, 0), w, out=gk)
                keys._accumulate(gk.transpose(1, 0))
            pool.release(state)

        out = Tensor._make(out_data, (queries, keys), backward)
        if not out.requires_grad:
            pool.release(state)
        stats.kernel_calls += 1
        stats.nodes_saved += self.NODES_SAVED
        return out


def contrastive_info_nce(
    queries: Tensor,
    keys: Tensor,
    temperature: float,
    row_weights: Optional[np.ndarray] = None,
    positive_mask: Optional[np.ndarray] = None,
) -> Optional[Tensor]:
    """Fused InfoNCE; ``None`` when the call cannot be fused bit-exactly."""
    if (
        queries.ndim != 2
        or keys.shape != queries.shape
        or queries.shape[0] == 0
        or queries is keys
        or not _is_f64(queries, keys)
    ):
        stats.fallbacks += 1
        return None
    kernel = _kernel(
        ("nce", queries.shape), lambda: _InfoNCE(*queries.shape)
    )
    return kernel(queries, keys, temperature, row_weights, positive_mask)


# ----------------------------------------------------------------------
# kernel 3: K per-intent Linears as one block-diagonal matmul
# ----------------------------------------------------------------------
class _BatchedLinear:
    """``K`` independent ``x_k @ W_k.T + b_k`` in one strided matmul.

    The batched 3-D ``np.matmul`` computes each ``(B, in) @ (in, out)``
    slice with the same dgemm the eager per-intent call used, so both
    forward and the weight/bias/input gradients are bit-identical; each
    parameter receives exactly one contribution per call, so accumulation
    order cannot change the result.
    """

    def __init__(self, k: int, b: int, d_in: int, d_out: int) -> None:
        self._w = np.empty((k, d_out, d_in))
        self._gx = np.empty((k, b, d_in))
        self._gw = np.empty((k, d_in, d_out))

    def __call__(
        self,
        x: Tensor,
        weights: Sequence[Tensor],
        biases: Optional[Sequence[Tensor]],
    ) -> Tensor:
        w_stack = self._w
        for i, w in enumerate(weights):
            w_stack[i] = w.data
        # The transpose must stay a strided *view*: the eager Linear
        # multiplies by ``weight.T`` (an F-order view), and dgemm's
        # transposed path is not bit-identical to a contiguous copy.
        out_data = np.matmul(x.data, w_stack.swapaxes(1, 2))
        if biases is not None:
            for i, b in enumerate(biases):
                np.add(out_data[i], b.data, out=out_data[i])

        gx = self._gx
        gw = self._gw

        def backward(g: np.ndarray) -> None:
            # Per-intent bias grads first, then weights, then the input —
            # each parameter gets exactly one contribution, so only the
            # per-contribution arithmetic has to match the eager chain.
            if biases is not None:
                for i, b in enumerate(biases):
                    if b.requires_grad:
                        b._accumulate(g[i].sum(axis=0))
            if x.requires_grad:
                for i, w in enumerate(weights):
                    w_stack[i] = w.data
                np.matmul(g, w_stack, out=gx)
                x._accumulate(gx)
            np.matmul(np.swapaxes(x.data, -1, -2), g, out=gw)
            for i, w in enumerate(weights):
                if w.requires_grad:
                    w._accumulate(gw[i].transpose(1, 0))

        parents = (x, *weights) + (tuple(biases) if biases is not None else ())
        out = Tensor._make(out_data, parents, backward)
        stats.kernel_calls += 1
        # Eager: per intent a transpose + matmul (+ add) node.
        stats.nodes_saved += (3 if biases is not None else 2) * len(weights) - 1
        return out


def batched_linear(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Optional[Sequence[Tensor]] = None,
) -> Tensor:
    """Apply ``K`` per-intent Linear layers as one batched matmul.

    Args:
        x: ``(K, B, d_in)`` stacked per-intent inputs.
        weights: K weight tensors of shape ``(d_out, d_in)``.
        biases: optional K bias tensors of shape ``(d_out,)``.

    The caller guarantees ``x[k]`` is the tensor the eager path would
    have fed to ``weights[k]``; this function then produces bit-identical
    outputs and gradients to the K separate eager Linear calls.
    """
    k, b, d_in = x.shape
    d_out = weights[0].shape[0]
    kernel = _kernel(
        ("blin", k, b, d_in, d_out, biases is not None),
        lambda: _BatchedLinear(k, b, d_in, d_out),
    )
    return kernel(x, weights, biases)


# ----------------------------------------------------------------------
# kernel 4: the whole default-scorer BPR step for embedding-table models
# ----------------------------------------------------------------------
class _DotBPR:
    """Lookup + inner-product + BPR tail in one node with direct scatters.

    Replaces the eager chain ``(U[a] * V[p]).sum(1)`` / ``(U[a] *
    V[n]).sum(1)`` / ``-log_sigmoid(pos - neg).mean()`` (twelve nodes,
    four full-table gradient arrays plus copies) with one node whose
    backward writes each table's two scatter contributions into a single
    freshly allocated table (``np.zeros`` + ``np.add.at``), handing the
    buffer to ``.grad`` without the eager path's extra full-table copy.
    The per-element arithmetic and the per-table contribution count are
    identical, and float addition is commutative, so gradients match the
    eager chain bit for bit.
    """

    NODES_SAVED = 11

    def __init__(self, b: int, d: int) -> None:
        self._u = None
        self._rows = np.empty((b, d))
        self._pos = np.empty(b)
        self._neg = np.empty(b)
        self._gneg = np.empty(b)
        self._states = _StatePool(
            lambda: {
                "u": np.empty((b, d)),
                "vp": np.empty((b, d)),
                "vn": np.empty((b, d)),
                "sig": np.empty(b),
            }
        )

    def __call__(
        self,
        user_table: Tensor,
        item_table: Tensor,
        anchors: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> Tensor:
        state = self._states.acquire()
        u, vp, vn = state["u"], state["vp"], state["vn"]
        np.take(user_table.data, anchors, axis=0, out=u)
        np.take(item_table.data, positives, axis=0, out=vp)
        np.take(item_table.data, negatives, axis=0, out=vn)
        rows = self._rows
        np.multiply(u, vp, out=rows)
        pos = self._pos
        np.sum(rows, axis=1, out=pos)
        np.multiply(u, vn, out=rows)
        neg = self._neg
        np.sum(rows, axis=1, out=neg)

        n = pos.size
        inv = np.float64(1.0 / n)
        # BPR tail, identical op sequence to the eager chain.
        d = state["sig"]
        np.negative(neg, out=d)
        np.add(pos, d, out=d)
        t = self._neg  # neg scores no longer needed past this point
        np.abs(d, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        ls = self._pos
        np.minimum(d, 0.0, out=ls)
        np.subtract(ls, t, out=ls)
        np.clip(d, -500, 500, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        np.add(d, 1.0, out=d)
        np.divide(1.0, d, out=d)  # sigmoid, kept for backward
        out_data = np.asarray(-(ls.sum() * inv))

        pool = self._states
        gd_buf = self._rows  # reuse (B, d) scratch rows in backward
        gneg = self._gneg

        def scatter(table: Tensor, idx: np.ndarray, grad_rows: np.ndarray):
            full = np.zeros_like(table.data)
            np.add.at(full, idx, grad_rows)
            if table.grad is None:
                # `full` is freshly allocated and exclusively ours, so it
                # can become the grad directly — same bits as the eager
                # copy, one fewer full-table pass.
                table.grad = full
            else:
                table.grad += full

        def backward(g: np.ndarray) -> None:
            sig = state["sig"]
            u_b, vp_b, vn_b = state["u"], state["vp"], state["vn"]
            gs = (-g) * inv
            gd = self._pos
            np.subtract(1.0, sig, out=gd)
            np.multiply(gd, gs, out=gd)  # grad of pos scores
            np.negative(gd, out=gneg)  # grad of neg scores
            if user_table.requires_grad:
                np.multiply(vp_b, gd[:, None], out=gd_buf)
                scatter(user_table, anchors, gd_buf)
                np.multiply(vn_b, gneg[:, None], out=gd_buf)
                scatter(user_table, anchors, gd_buf)
            if item_table.requires_grad:
                np.multiply(u_b, gd[:, None], out=gd_buf)
                scatter(item_table, positives, gd_buf)
                np.multiply(u_b, gneg[:, None], out=gd_buf)
                scatter(item_table, negatives, gd_buf)
            pool.release(state)

        out = Tensor._make(out_data, (user_table, item_table), backward)
        if not out.requires_grad:
            pool.release(state)
        stats.kernel_calls += 1
        stats.nodes_saved += self.NODES_SAVED
        return out


def dot_bpr(
    user_repr: Tensor,
    item_repr: Tensor,
    anchors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
) -> Optional[Tensor]:
    """Fused default-scorer BPR step; ``None`` when ineligible.

    Eligible when both representations are distinct float64 *leaf*
    tensors (raw embedding tables, not propagated GNN outputs) — exactly
    the case where the eager chain is four lookups, two inner products
    and the loss tail.
    """
    if (
        user_repr is item_repr
        or not _is_leaf(user_repr)
        or not _is_leaf(item_repr)
        or user_repr.ndim != 2
        or item_repr.ndim != 2
        or len(anchors) == 0
        or not _is_f64(user_repr, item_repr)
    ):
        stats.fallbacks += 1
        return None
    b = len(anchors)
    d = user_repr.shape[1]
    kernel = _kernel(("dotbpr", b, d), lambda: _DotBPR(b, d))
    return kernel(user_repr, item_repr, anchors, positives, negatives)


# ----------------------------------------------------------------------
# tape analysis
# ----------------------------------------------------------------------
_ELEMENTWISE_OPS = {
    "Tensor.__add__",
    "Tensor.__neg__",
    "Tensor.__mul__",
    "Tensor.__truediv__",
    "Tensor.__pow__",
    "Tensor.exp",
    "Tensor.log",
    "Tensor.sqrt",
    "Tensor.sigmoid",
    "Tensor.tanh",
    "Tensor.relu",
    "Tensor.leaky_relu",
    "Tensor.abs",
    "Tensor.clip",
    "Tensor.sum",
    "log_sigmoid",
    "log_softmax",
    "softmax",
    "softplus",
    "l2_normalize",
    "scale_rows",
}


@dataclass
class TapeReport:
    """What :func:`analyze` found in a recorded autograd tape."""

    nodes: int
    leaves: int
    by_op: Dict[str, int] = field(default_factory=dict)
    chains: List[List[str]] = field(default_factory=list)

    @property
    def fusable_nodes(self) -> int:
        """Nodes sitting inside a fusable elementwise chain (length >= 2)."""
        return sum(len(chain) for chain in self.chains)


def analyze(root: Tensor) -> TapeReport:
    """Walk the tape below ``root`` and report fusable elementwise chains.

    A *chain* is a maximal path of recorded elementwise ops in which
    every interior node has exactly one consumer — precisely the shape a
    fused kernel collapses into one node.  The differential suite uses
    this to assert that eager tapes expose the expected fusion targets
    and that fused tapes actually shrank.
    """
    order: List[Tensor] = []
    consumers: Dict[int, int] = {}
    seen: Dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        order.append(node)
        for parent in node._parents:
            consumers[id(parent)] = consumers.get(id(parent), 0) + 1
            stack.append(parent)

    by_op: Dict[str, int] = {}
    leaves = 0
    for node in order:
        if node._backward is None:
            leaves += 1
            continue
        name = _op_name(node._backward)
        by_op[name] = by_op.get(name, 0) + 1

    def is_elementwise(node: Tensor) -> bool:
        return (
            node._backward is not None
            and _op_name(node._backward) in _ELEMENTWISE_OPS
        )

    chains: List[List[str]] = []
    in_chain: set = set()
    for node in order:
        if id(node) in in_chain or not is_elementwise(node):
            continue
        # Only start from a chain head: no elementwise single-consumer
        # child above it (the walk from the head covers the rest).
        chain = []
        current: Optional[Tensor] = node
        while (
            current is not None
            and is_elementwise(current)
            and id(current) not in in_chain
        ):
            chain.append(_op_name(current._backward))
            in_chain.add(id(current))
            nxt = None
            for parent in current._parents:
                if (
                    is_elementwise(parent)
                    and consumers.get(id(parent), 0) == 1
                ):
                    nxt = parent
                    break
            current = nxt
        if len(chain) >= 2:
            chains.append(chain)
    return TapeReport(
        nodes=len(order) - 1 if order else 0,
        leaves=leaves,
        by_op=by_op,
        chains=chains,
    )
