"""Differentiable layers: GMN encoder/propagation, GCN, MLP, pooling.

All layers operate on single graphs (2-D tensors); batches are handled by
the model loop. Parameters are named so checkpoints stay stable. Stage 0
reads each graph as one ``Edges`` list, with no n x n tensor: GMN
propagation sums its messages through the edge list's CSR incidence
matrices in one ``ad.edge_aggregate`` op, which keeps no edge rows on the
tape, and stage-0 pooling takes A·S from it by gather and scatter.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad

__all__ = [
    "Edges",
    "Dense",
    "MLP",
    "GmnEncoder",
    "GmnMessage",
    "GmnPropagation",
    "GcnLayer",
    "pool_forward",
    "loss_le",
    "loss_lc",
    "cross_entropy",
    "ACTIVATIONS",
]

ACTIVATIONS = {
    "relu": ad.relu,
    "tanh": ad.tanh,
    "linear": lambda t: t,
}


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _incidence(edge_order: np.ndarray, nodes: np.ndarray, node_count: int):
    """The node_count x E CSR matrix with 1 at (nodes[e], e), listed in ``edge_order``.

    ``edge_order`` lists the edges sorted by node, each node's edges in
    edge order, so a product with it sums every row in edge order.
    """
    indptr = np.zeros(node_count + 1, dtype=np.intp)
    np.cumsum(np.bincount(nodes, minlength=node_count), out=indptr[1:])
    return sp.csr_matrix((np.ones(nodes.size), edge_order, indptr), shape=(node_count, nodes.size))


class Edges:
    """A graph's directed edges, A[senders[e], receivers[e]] = 1.

    Stage 0 reads a graph's structure only, so every nonzero adjacency
    entry must be 1. The edges come in row-major order, so ``senders`` is
    sorted. For ``ad.edge_aggregate`` the list also holds the node x edge
    CSR incidence matrices: ``receiver_incidence`` (1 at (receivers[e], e)),
    which the forward pass needs and which is built with the list, and
    ``sender_incidence``, which only a backward pass needs and which is
    built on first use. Each row lists its edges in edge order, so the
    products add in the same order as a scatter over the edges.
    """

    def __init__(self, adjacency: np.ndarray):
        self.node_count = adjacency.shape[0]
        self.senders, self.receivers = np.nonzero(adjacency)
        if np.any(adjacency[self.senders, self.receivers] != 1.0):
            raise ValueError("stage 0 takes a 0/1 adjacency: an edge entry is not 1")
        self.receiver_incidence = _incidence(
            np.argsort(self.receivers, kind="stable"), self.receivers, self.node_count)

    @cached_property
    def sender_incidence(self):
        return _incidence(np.arange(self.senders.size), self.senders, self.node_count)

    def spread(self, x: ad.Tensor) -> ad.Tensor:
        """A @ x: row i sums x[receivers[e]] over the edges e that i sends."""
        return ad.scatter_rows(ad.gather_rows(x, self.receivers), self.senders, self.node_count)


class Dense:
    """Affine map with an elementwise activation."""

    def __init__(self, rng, in_dim: int, out_dim: int, activation: str, name: str):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.activation = activation
        self.weight = ad.parameter(glorot(rng, in_dim, out_dim))
        # small nonzero bias keeps pre-activations off the exact relu kink
        # for all-zero input rows (isolated nodes), where finite differences
        # would otherwise straddle a non-differentiable point
        self.bias = ad.parameter(rng.uniform(-0.05, 0.05, size=(1, out_dim)))

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} != expected {self.in_dim}"
            )
        return ACTIVATIONS[self.activation](ad.add(ad.matmul(x, self.weight), self.bias))

    def parameters(self) -> dict[str, ad.Tensor]:
        return {f"{self.name}.w": self.weight, f"{self.name}.b": self.bias}


class MLP:
    """Stack of dense layers."""

    def __init__(self, rng, dims: list[int], activations: list[str], name: str):
        if len(dims) != len(activations) + 1:
            raise ValueError("dims must have one more entry than activations")
        self.layers = [
            Dense(rng, dims[i], dims[i + 1], activations[i], f"{name}.{i}")
            for i in range(len(activations))
        ]

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self) -> dict[str, ad.Tensor]:
        out = {}
        for layer in self.layers:
            out.update(layer.parameters())
        return out


class GmnEncoder:
    """Per-node MLP transform; no cross-node mixing."""

    def __init__(self, rng, in_dim: int, out_dim: int, activation: str, name: str):
        self.dense = Dense(rng, in_dim, out_dim, activation, f"{name}.node_mlp")

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return self.dense(x)

    def parameters(self) -> dict[str, ad.Tensor]:
        return self.dense.parameters()


class GmnMessage:
    """Parameters of the GMN message function act(concat(h_i, h_j) @ W + b).

    W's top d rows act on the receiver state h_i and its bottom d rows on
    the sender state h_j, so ``concat(h_i, h_j) @ W = h_i @ W_recv + h_j @
    W_send``: each half multiplies the n node states once, and
    ``GmnPropagation`` combines the products on the edges. W is drawn as
    one glorot(2d, m) matrix before the bias, so the split draws the same
    numbers as ``Dense(rng, 2d, m, ...)``.
    """

    def __init__(self, rng, in_dim: int, out_dim: int, activation: str, name: str):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.activation = activation
        weight = glorot(rng, 2 * in_dim, out_dim)
        self.w_recv = ad.parameter(weight[:in_dim].copy())
        self.w_send = ad.parameter(weight[in_dim:].copy())
        self.bias = ad.parameter(rng.uniform(-0.05, 0.05, size=(1, out_dim)))

    def parameters(self) -> dict[str, ad.Tensor]:
        return {
            f"{self.name}.w_recv": self.w_recv,
            f"{self.name}.w_send": self.w_send,
            f"{self.name}.b": self.bias,
        }


class GmnPropagation:
    """Message passing over a graph's ``Edges``.

    For every edge j -> i, A[j, i] = 1, a message f_message(concat(h_i, h_j))
    is produced and summed into receiver i; the new state is
    f_node(concat(h_i, aggregate_i)). A node that receives no message
    has an aggregate of exactly zero. The layer is two matmuls on the n
    node rows, h @ W_recv and h @ W_send, then ``ad.edge_aggregate``, which
    forms each message (h @ W_recv)[i] + (h @ W_send)[j] + b on the fly and
    sums it through the receiver incidence, then f_node. The E x m message
    rows are never kept: the op's backward pass recomputes them, so the
    tape holds O(n) rows per layer.
    """

    def __init__(self, rng, in_dim: int, message_dim: int, out_dim: int,
                 activation: str, name: str):
        self.f_message = GmnMessage(rng, in_dim, message_dim, activation, f"{name}.msg")
        self.f_node = Dense(rng, in_dim + message_dim, out_dim, activation, f"{name}.node")

    def __call__(self, h: ad.Tensor, edges: Edges) -> ad.Tensor:
        n = edges.node_count
        if h.shape[0] != n:
            raise ValueError(f"{h.shape[0]} node states for a graph of {n} nodes")
        msg = self.f_message
        aggregate = ad.edge_aggregate(ad.matmul(h, msg.w_recv), ad.matmul(h, msg.w_send),
                                      msg.bias, edges, msg.activation)
        return self.f_node(ad.concat_columns([h, aggregate]))

    def parameters(self) -> dict[str, ad.Tensor]:
        return {**self.f_message.parameters(), **self.f_node.parameters()}


class GcnLayer:
    """Symmetrically normalised graph convolution (self-loops added)."""

    def __init__(self, rng, in_dim: int, out_dim: int, activation: str, name: str):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.activation = activation
        self.weight = ad.parameter(glorot(rng, in_dim, out_dim))

    def __call__(self, h: ad.Tensor, a: ad.Tensor) -> ad.Tensor:
        n = h.shape[0]
        if a.shape != (n, n):
            raise ValueError("adjacency must be square and match node states")
        if np.any(a.values < 0):
            raise ValueError("gcn requires non-negative adjacency")
        a_tilde = ad.add(a, ad.constant(np.eye(n)))
        inv_sqrt_deg = ad.reciprocal(ad.sqrt(ad.row_sum(a_tilde)))
        normalised = ad.multiply(ad.multiply(a_tilde, inv_sqrt_deg),
                                 ad.transpose(inv_sqrt_deg))
        out = ad.matmul(ad.matmul(normalised, h), self.weight)
        return ACTIVATIONS[self.activation](out)

    def parameters(self) -> dict[str, ad.Tensor]:
        return {f"{self.name}.w": self.weight}


def pool_forward(z: ad.Tensor, logits: ad.Tensor, spread):
    """Coarsen a graph: S = softmax(logits), X' = S^T Z, A' = tanh(S^T (A S)).

    ``z`` and ``logits`` are the embedding and assignment nets' outputs,
    one row per node. ``spread(x)`` returns the product A·x: stage 0 passes
    its ``Edges.spread``, stage 1 a matmul by the learned coarse adjacency.
    Returns (X', A', S).
    """
    if z.shape[0] != logits.shape[0]:
        raise ValueError(f"z has {z.shape[0]} rows, logits {logits.shape[0]}: need one row per node")
    s = ad.row_softmax(logits)
    st = ad.transpose(s)
    return ad.matmul(st, z), ad.tanh(ad.matmul(st, spread(s))), s


def loss_le(s: ad.Tensor) -> ad.Tensor:
    """Mean row entropy of the assignment matrix (natural log).

    Zero exactly when every row is one-hot, up to the 1e-12 clamp.
    """
    n = s.shape[0]
    log_p = ad.log(ad.clamp_min(s, 1e-12))
    total = ad.sum_all(ad.multiply(s, log_p))
    return ad.scalar_multiply(total, -1.0 / n)


def loss_lc(s: ad.Tensor) -> ad.Tensor:
    """Uniformity deficit of the cluster mass distribution.

    The cluster mass q = (1/n) * 1^T S sums to one; the deficit
    ln(clusters) - H(q) is zero exactly at uniform mass and ln(clusters)
    when all mass sits on one cluster, so minimising it maximises the
    spread of nodes over clusters.
    """
    n, clusters = s.shape
    q = ad.scalar_multiply(ad.col_sum(s), 1.0 / n)
    entropy = ad.scalar_multiply(
        ad.sum_all(ad.multiply(q, ad.log(ad.clamp_min(q, 1e-12)))), -1.0
    )
    deficit = ad.subtract(ad.constant([[np.log(clusters)]]), entropy)
    return ad.clamp_min(deficit, 0.0)


def cross_entropy(probs: ad.Tensor, label: int) -> ad.Tensor:
    """Negative log likelihood of one label under a softmax row."""
    picked = ad.gather(probs, np.array([[0]]), np.array([[int(label)]]))
    return ad.scalar_multiply(ad.log(ad.clamp_min(picked, 1e-12)), -1.0)
