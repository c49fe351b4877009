"""Differentiable layers: GMN encoder/propagation, GCN, MLP, pooling.

All layers operate on single graphs (2-D tensors); batches are handled by
the model loop. Parameters are named so checkpoints stay stable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
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

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

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

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

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

    @property
    def out_dim(self) -> int:
        return self.dense.out_dim

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return self.dense(x)

    def parameters(self) -> dict[str, ad.Tensor]:
        return self.dense.parameters()


class GmnMessage:
    """GMN message function act(concat(h_i, h_j) @ W + b), split by rows of W.

    W's top d rows act on the receiver state h_i and its bottom d rows on
    the sender state h_j, so ``concat(h_i, h_j) @ W = h_i @ W_recv + h_j @
    W_send``. Each half multiplies the n node states once and the products
    are gathered onto the E edges, instead of one GEMM on E x 2d edge rows.
    W is drawn as one glorot(2d, m) matrix before the bias, so the split
    draws the same numbers as ``Dense(rng, 2d, m, ...)``.
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

    @property
    def out_dim(self) -> int:
        return self.bias.shape[1]

    def __call__(self, h: ad.Tensor, receivers: np.ndarray, senders: np.ndarray) -> ad.Tensor:
        """One message row per edge (receivers[e], senders[e])."""
        from_recv = ad.gather_rows(ad.matmul(h, self.w_recv), receivers)
        from_send = ad.gather_rows(ad.matmul(h, self.w_send), senders)
        return ACTIVATIONS[self.activation](ad.add(ad.add(from_recv, from_send), self.bias))

    def parameters(self) -> dict[str, ad.Tensor]:
        return {
            f"{self.name}.w_recv": self.w_recv,
            f"{self.name}.w_send": self.w_send,
            f"{self.name}.b": self.bias,
        }


class GmnPropagation:
    """Message passing over weighted edges of a constant adjacency.

    For every nonzero A[j, i] a message f_message(concat(h_i, h_j)) is
    produced, scaled by A[j, i], and summed into receiver i; the new state
    is f_node(concat(h_i, aggregate_i)). A node that receives no message
    has an aggregate of exactly zero. ``GmnMessage`` computes the messages
    as (h @ W_recv)[i] + (h @ W_send)[j], the same affine map on n node
    rows instead of E edge rows.
    """

    def __init__(self, rng, in_dim: int, message_dim: int, out_dim: int,
                 activation: str, name: str):
        self.f_message = GmnMessage(rng, in_dim, message_dim, activation, f"{name}.msg")
        self.f_node = Dense(rng, in_dim + message_dim, out_dim, activation, f"{name}.node")

    @property
    def out_dim(self) -> int:
        return self.f_node.out_dim

    def __call__(self, h: ad.Tensor, a: ad.Tensor) -> ad.Tensor:
        n = h.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"adjacency {a.shape} does not match {n} node states")
        if a.requires_grad:
            raise ValueError("GmnPropagation needs a constant adjacency; a learned one goes to GcnLayer")
        senders, receivers = np.nonzero(a.values)
        messages = self.f_message(h, receivers, senders)
        weights = ad.constant(a.values[senders, receivers].reshape(-1, 1))
        aggregate = ad.scatter_rows(ad.multiply(messages, weights), receivers, n)
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

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

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


def pool_forward(z: ad.Tensor, logits: ad.Tensor, a: ad.Tensor):
    """Coarsen a graph: S = softmax(logits), X' = S^T Z, A' = tanh(S^T A S).

    ``z`` and ``logits`` are the embedding and assignment nets' outputs,
    one row per node of ``a``. Returns (X', A', S).
    """
    n = a.shape[0]
    if z.shape[0] != n or logits.shape[0] != n:
        raise ValueError(f"z ({z.shape[0]} rows) and logits ({logits.shape[0]} rows) "
                         f"need one row per node ({n})")
    s = ad.row_softmax(logits)
    st = ad.transpose(s)
    x_next = ad.matmul(st, z)
    a_next = ad.tanh(ad.matmul(ad.matmul(st, a), s))
    return x_next, a_next, s


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
