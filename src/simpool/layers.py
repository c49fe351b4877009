"""Differentiable layers: GMN encoder/propagation, GCN, MLP, pooling.

Every layer reads a batch of graphs as one disjoint union: node rows are
stacked, and a coarsened graph is a stack of square blocks, one per
graph. Parameters are named so checkpoints stay stable. Stage 0 reads the
union as one ``Edges`` list, cut from a dataset by ``data.Batch.of``,
with no n x n tensor: a relu or tanh GMN
propagation sums its messages through the edge list's ``ad.incidence``
matrices in one ``ad.edge_aggregate`` op, which keeps no edge rows on the
tape, or, reading a table of label rows, forms one message per label pair
(``LabelPairs``) with no edge pass; a linear one is one linear map of the
node rows, with the degree column and one sparse product by A in place
of the edge pass; and stage-0 pooling takes A·S as one sparse product.
Graphs are undirected (``data.Dataset`` checks it), so A is its own
transpose. Pooling and the GCN keep graphs apart through ``ad.matmul``'s
segments, and the losses are means over graphs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad

__all__ = [
    "Edges",
    "LabelPairs",
    "Dense",
    "MLP",
    "GmnEncoder",
    "GmnMessage",
    "GmnPropagation",
    "GcnLayer",
    "block_offsets",
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


class Edges:
    """The edges of a disjoint union of graphs, A[senders[e], receivers[e]] = 1.

    ``adjacency`` is the union's square CSR in canonical form, with a one
    at each edge, and ``node_offsets`` cut its nodes into graphs. The list
    takes both as they are and checks neither: ``data.Batch.of`` cuts them
    from a checked ``data.Dataset``, the one way a union is built. The
    edges come in row-major order, so ``senders`` is sorted and graph g's
    edges are the range ``edge_offsets[g]:edge_offsets[g + 1]``.
    Graphs are undirected: every block must be symmetric, which
    ``data.Dataset`` checks once for the whole dataset. So ``degree``, the
    n x 1 column of row lengths, counts each node's edges in and out, and
    ``spread``, the product by A, is also the product by A^T. For
    ``ad.edge_aggregate``, which serves any 0/1 block, the list also holds
    the node x edge ``ad.incidence`` matrices: ``receiver_incidence`` (1 at
    (receivers[e], e)), which the forward pass needs and which is built
    with the list, and ``sender_incidence``, which only a backward pass
    needs and which is built on first use. All these products add in edge
    order. ``node_segments`` is ``node_offsets`` as the ``ad.Segments``
    that the batch's segmented products and losses read. The adjacency,
    ``degree`` and the incidences hold ``ad.tape_dtype()`` as it was when
    the list was built, so the list serves a model built under the same
    ``ad.precision``; their entries are small integers, exact in float32.
    """

    def __init__(self, adjacency: sp.csr_matrix, node_offsets: np.ndarray):
        dtype = ad.tape_dtype()
        a = self.adjacency = adjacency.astype(dtype, copy=False)
        n = self.node_count = a.shape[0]
        row_lengths = np.diff(a.indptr)
        self.senders = np.repeat(np.arange(n), row_lengths)
        self.receivers = a.indices.astype(np.intp)
        self.node_offsets = node_offsets
        self.node_segments = ad.Segments(node_offsets)
        self.edge_offsets = a.indptr[node_offsets].astype(np.intp)
        self.degree = row_lengths.astype(dtype).reshape(-1, 1)
        self.receiver_incidence = ad.incidence(self.receivers, n)

    @cached_property
    def sender_incidence(self):
        with ad.precision(self.adjacency.dtype.type):
            return ad.incidence(self.senders, self.node_count)

    def spread(self, x: ad.Tensor) -> ad.Tensor:
        """A @ x: row i sums x[receivers[e]] over the edges e that i sends, in edge order."""
        return ad.sparse_matmul(self.adjacency, x)


class LabelPairs:
    """A batch's node-label column and the (receiver, sender) label pairs its edges carry.

    ``present`` lists the distinct labels of ``labels`` in ascending
    order: the rows of the batch's label table, so the table is no taller
    than the batch has nodes, whatever the dataset's label count.
    ``rows`` gives each node of ``edges`` its label's row in that table.
    An edge j -> i carries the pair (rows[i], rows[j]); ``receiver_rows``
    and ``sender_rows`` list the P pairs present, in code order (receiver
    row times the table's height plus sender row), found by one
    ``np.bincount`` with no sort. ``counts`` is the n x P CSR whose row i
    counts, per pair, the messages node i receives. Graphs are undirected,
    so the messages i receives come from the neighbours in row i of the
    adjacency: ``counts`` has the adjacency's row lengths, in an
    ``indptr`` of its own, and each entry is a one, one per edge, which
    the product adds up.
    """

    def __init__(self, edges: Edges, labels: np.ndarray):
        seen = np.bincount(np.asarray(labels, dtype=np.intp)) > 0
        self.present = np.flatnonzero(seen)
        self.rows = rows = (np.cumsum(seen) - 1)[labels]
        height = self.present.size
        a = edges.adjacency
        # row i of the adjacency (``senders``) is the node that receives from its neighbours
        codes = rows[edges.senders] * height + rows[edges.receivers]
        pairs = np.bincount(codes, minlength=height * height) > 0
        column = np.cumsum(pairs)[codes] - 1
        self.receiver_rows, self.sender_rows = np.divmod(np.flatnonzero(pairs), height)
        self.counts = sp.csr_matrix((np.ones(codes.size, dtype=a.dtype),
                                     column.astype(a.indptr.dtype), a.indptr.copy()),
                                    shape=(edges.node_count, self.receiver_rows.size))

    def label_rows(self, width: int) -> np.ndarray:
        """The table's one-hot rows: one per present label, ``width`` wide."""
        onehot = np.zeros((self.present.size, width), dtype=bool)
        onehot[np.arange(self.present.size), self.present] = True
        return onehot


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
    is produced and summed into receiver i; graphs are undirected, so an
    edge carries one message each way. The new state is
    f_node(concat(h_i, aggregate_i)). A node that receives no message
    has an aggregate of exactly zero. Message and node function share the
    activation.

    A relu or tanh layer is two matmuls on the n node rows, h @ W_recv and
    h @ W_send, then ``ad.edge_aggregate``, which forms each message
    (h @ W_recv)[i] + (h @ W_send)[j] + b on the fly and sums it through
    the receiver incidence, then f_node. The E x m message rows are never
    kept: the op's backward pass recomputes them, so the tape holds O(n)
    rows per layer.

    With ``pairs``, a ``LabelPairs``, ``h`` is a table of one row per
    label present in the batch, and node i's state is h[rows[i]]: the
    layer reads a batch whose encoder ran on the present labels' one-hot
    rows (``LabelPairs.label_rows``), and takes the label path whatever
    its activation. Every message depends only on its (receiver label,
    sender label) pair, and f_node's product splits as
    concat(h_i, agg_i) W = h_i W_top + agg_i W_bot, so

        out = act(T_top[rows] + C (act(R[a] + S[b] + b_msg) W_bot) + b_node),

    with R, S and T_top the table's products by W_recv, W_send and W_top,
    a and b the receiver and sender rows of the P pairs present, and C
    the n x P pair counts (``LabelPairs.counts``). That is the per-edge
    layer's sum regrouped by pair, exact in exact arithmetic and equal up
    to rounding: it multiplies at most min(n, d) rather than n rows by the
    u x u weights, forms P messages rather than E, and runs no edge pass.

    A linear layer is one linear map of h. With W_top and W_bot the first
    d and the last m rows of f_node's weight (``ad.row_range``), and deg
    the degree column,

        out = h W_top + deg * (h (W_recv W_bot) + b_msg W_bot)
              + A^T (h (W_send W_bot)) + b_node,

    where A^T = A (``Edges``), so ``edges.spread`` forms the sender sum,
    adding each node's neighbours in ascending order as A^T would. The
    fold runs no edge pass and every node-row product is output wide. With d = m = u it costs
    3 n u out + 2 u^2 out multiply-adds against n (2 u^2 + 2 u out)
    unfolded: the fold is cheaper when n > 2 u out / (2 u - out), which is
    n > 341 for ``enzymes``' z.prop1, n > 8 for its s0.prop1 and
    n > 2,048 for ``dd``'s z.prop1 at paper width. A 20-graph batch holds
    about 650-840 ENZYMES or 5,700 DD nodes, so the fold is always taken.
    """

    def __init__(self, rng, in_dim: int, message_dim: int, out_dim: int,
                 activation: str, name: str):
        self.f_message = GmnMessage(rng, in_dim, message_dim, activation, f"{name}.msg")
        self.f_node = Dense(rng, in_dim + message_dim, out_dim, activation, f"{name}.node")

    def __call__(self, h: ad.Tensor, edges: Edges, pairs: LabelPairs | None = None) -> ad.Tensor:
        n = edges.node_count
        states = h.shape[0] if pairs is None else pairs.rows.size
        if states != n:
            raise ValueError(f"{states} node states for a graph of {n} nodes")
        msg, node = self.f_message, self.f_node
        if pairs is None and msg.activation != "linear":
            aggregate = ad.edge_aggregate(ad.matmul(h, msg.w_recv), ad.matmul(h, msg.w_send),
                                          msg.bias, edges, msg.activation)
            return node(ad.concat_columns([h, aggregate]))
        d = msg.w_recv.shape[0]
        w_top = ad.row_range(node.weight, 0, d)
        w_bot = ad.row_range(node.weight, d, node.in_dim)
        if pairs is not None:
            pre = ad.add(ad.gather_rows(ad.matmul(h, msg.w_recv), pairs.receiver_rows),
                         ad.gather_rows(ad.matmul(h, msg.w_send), pairs.sender_rows))
            messages = ACTIVATIONS[msg.activation](ad.add(pre, msg.bias))
            out = ad.add(ad.gather_rows(ad.matmul(h, w_top), pairs.rows),
                         ad.sparse_matmul(pairs.counts, ad.matmul(messages, w_bot)))
            return ACTIVATIONS[node.activation](ad.add(out, node.bias))
        own = ad.add(ad.matmul(h, ad.matmul(msg.w_recv, w_bot)), ad.matmul(msg.bias, w_bot))
        out = ad.add(ad.matmul(h, w_top), ad.multiply(ad.constant(edges.degree), own))
        out = ad.add(out, edges.spread(ad.matmul(h, ad.matmul(msg.w_send, w_bot))))
        return ad.add(out, node.bias)

    def parameters(self) -> dict[str, ad.Tensor]:
        return {**self.f_message.parameters(), **self.f_node.parameters()}


def block_offsets(a: ad.Tensor) -> ad.Segments:
    """The ``ad.Segments`` 0, n, ..., B n of a stack of B square n x n blocks, (B n) x n."""
    rows, n = a.shape
    if n == 0 or rows % n:
        raise ValueError(f"a {a.shape} tensor is not a stack of square blocks")
    return ad.Segments(np.arange(0, rows + 1, n))


class GcnLayer:
    """Symmetrically normalised graph convolution (self-loops added).

    ``a`` stacks one symmetric n x n adjacency block per graph, (B n) x n,
    and ``h`` the graphs' node rows. With D = diag(1/sqrt(rowsum(A + I))),
    each graph's output is act(D (A + I) D h W). A block is symmetric, so
    the column ranges of transpose(A + I) are the blocks in the form the
    segmented ``ad.matmul`` takes them.
    """

    def __init__(self, rng, in_dim: int, out_dim: int, activation: str, name: str):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.activation = activation
        self.weight = ad.parameter(glorot(rng, in_dim, out_dim))

    def __call__(self, h: ad.Tensor, a: ad.Tensor) -> ad.Tensor:
        segments = block_offsets(a)
        if h.shape[0] != a.shape[0]:
            raise ValueError("adjacency must stack square blocks that match node states")
        if np.any(a.values < 0):
            raise ValueError("gcn requires non-negative adjacency")
        n = a.shape[1]
        a_tilde = ad.add(a, ad.constant(np.tile(np.eye(n), (segments.count, 1))))
        inv_sqrt_deg = ad.reciprocal(ad.sqrt(ad.row_sum(a_tilde)))
        mixed = ad.matmul(ad.transpose(a_tilde), ad.multiply(h, inv_sqrt_deg), segments)
        out = ad.matmul(ad.multiply(mixed, inv_sqrt_deg), self.weight)
        return ACTIVATIONS[self.activation](out)

    def parameters(self) -> dict[str, ad.Tensor]:
        return {f"{self.name}.w": self.weight}


def pool_forward(z: ad.Tensor, logits: ad.Tensor, spread, segments=None):
    """Coarsen graphs: S = softmax(logits), X' = S^T Z, A' = tanh(S^T (A S)).

    ``z`` and ``logits`` are the embedding and assignment nets' outputs,
    one row per node. ``spread(x)`` returns the product A·x: stage 0 passes
    its ``Edges.spread``, stage 1 a product with the learned coarse
    adjacency. ``segments`` cut the rows into graphs (default: one graph);
    each graph's S^T products run through the segmented ``ad.matmul``, so
    X' and A' stack one c-row block per graph. Returns (X', A', S).
    """
    if z.shape[0] != logits.shape[0]:
        raise ValueError(f"z has {z.shape[0]} rows, logits {logits.shape[0]}: need one row per node")
    s = ad.row_softmax(logits)
    st = ad.transpose(s)
    return ad.matmul(st, z, segments), ad.tanh(ad.matmul(st, spread(s), segments)), s


def _graph_sizes(rows: int, segments) -> np.ndarray:
    """Each graph's row count; without ``segments``, all rows are one graph."""
    return np.array([rows]) if segments is None else ad.as_segments(segments).sizes


def loss_le(s: ad.Tensor, segments=None) -> ad.Tensor:
    """Mean over graphs of each graph's mean row entropy of S (natural log).

    ``segments`` cut the rows into graphs (default: one graph). The means
    come from a constant weight column, 1 / (B n_g) on graph g's rows.
    Zero exactly when every row is one-hot, up to the 1e-12 clamp.
    """
    sizes = _graph_sizes(s.shape[0], segments)
    weights = np.repeat(-1.0 / (sizes.size * sizes), sizes).reshape(-1, 1)
    log_p = ad.log(ad.clamp_min(s, 1e-12))
    return ad.sum_all(ad.multiply(ad.multiply(s, log_p), ad.constant(weights)))


def loss_lc(s: ad.Tensor, segments=None) -> ad.Tensor:
    """Mean over graphs of the uniformity deficit of each graph's cluster mass.

    Graph g's cluster mass q_g = (1/n_g) 1^T S_g sums to one; the deficit
    ln(clusters) - H(q_g) is zero exactly at uniform mass and ln(clusters)
    when all mass sits on one cluster, so minimising it maximises the
    spread of nodes over clusters. ``segments`` cut the rows into graphs
    (default: one graph); q is the segmented product of the constant
    weight row 1/n_g with S, one row per graph.
    """
    sizes = _graph_sizes(s.shape[0], segments)
    weights = ad.constant(np.repeat(1.0 / sizes, sizes).reshape(1, -1))
    q = ad.matmul(weights, s, segments)
    entropy = ad.scalar_multiply(ad.row_sum(ad.multiply(q, ad.log(ad.clamp_min(q, 1e-12)))), -1.0)
    deficit = ad.clamp_min(ad.subtract(ad.constant([[np.log(s.shape[1])]]), entropy), 0.0)
    return ad.scalar_multiply(ad.col_sum(deficit), 1.0 / sizes.size)


def cross_entropy(probs: ad.Tensor, labels) -> ad.Tensor:
    """Mean negative log likelihood of each row's label under its softmax row.

    ``labels`` holds one class per row of ``probs`` (an int for one row).
    """
    rows = probs.shape[0]
    labels = np.asarray(labels, dtype=np.intp).reshape(rows, 1)
    picked = ad.gather(probs, np.arange(rows).reshape(rows, 1), labels)
    return ad.scalar_multiply(ad.sum_all(ad.log(ad.clamp_min(picked, 1e-12))), -1.0 / rows)
