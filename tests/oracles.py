"""Reference implementations that the production paths must reproduce.

The similarity oracles are the textbook O(n^2)-memory formulas behind
the sparse path in ``simpool.similarity``; the GMN oracle loops over
edges one message at a time, ``edge_aggregate_chain`` is
``ad.edge_aggregate`` spelt out as the tape ops it fuses, and
``gmn_propagation_chain`` is the propagation layer with that chain in
place of its fused op or its linear fold, and
``gmn_linear_fold_transposed`` is the linear fold as it read a directed
block, by the in-degree and A^T. ``graph_runs`` and ``edge_runs`` are the
two run splitters that ``autodiff.cost_runs`` replaced, one per caller.
``tu_graphs_one_by_one``
is the per-graph loader: it builds a TU dataset's graphs one sparse
matrix and one feature array at a time, the reference for every graph
view and batch union cut from the one ``data.Dataset`` store. Tests
compare against them. ``decode_index`` reads the source node back out of one
``index_map`` entry. ``preprocess_graph_loop`` computes a dataset's
mapped features one graph at a time, the reference for the runs of
disjoint unions in ``similarity.preprocess_dataset``.
``forward_graph_loop`` is the model's forward pass one graph at a time,
with dense per-graph stage-1 formulas, the reference for the packed
batch; ``scatter_add_bincount`` is the
flat-index ``np.bincount`` scatter, the reference for a product with
``autodiff.incidence``. ``adam_step_formula`` is ``training.Adam.step``
written as the textbook formula with a temporary per operation, the
reference for the in-place step.
"""

import os
import warnings

import numpy as np
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool import similarity
from simpool.data import _read_int_rows
from simpool.layers import ACTIVATIONS
from simpool.model import LOSS_TERMS, Forward
from simpool.similarity import SimilarityConfig, SimilarityFeatures, compute_features, index_map
from simpool.training import BETA1, BETA2, EPS

from conftest import raw_edges


def _normalize_gram(gram: np.ndarray, norms_sq: np.ndarray) -> np.ndarray:
    """Turn a Gram matrix into cosine similarities.

    Exactly parallel columns (Cauchy-Schwarz equality, an exact predicate
    for integer-valued input) get unit similarity so diagonals and
    duplicated neighbourhoods come out as exactly 1. Zero-norm columns
    compare as 0 against everything, including themselves.
    """
    norms = np.sqrt(norms_sq)
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = gram / denom
    parallel = (gram * gram == np.outer(norms_sq, norms_sq)) & (gram != 0)
    cos[parallel] = np.sign(gram[parallel])
    zero = norms_sq == 0
    cos[zero, :] = 0.0
    cos[:, zero] = 0.0
    return np.clip(cos, -1.0, 1.0)


def _power(a: np.ndarray, lam: float, p: int) -> np.ndarray:
    ahat = a + lam * np.eye(a.shape[0])
    return np.linalg.matrix_power(ahat, p)


def similarity_dense_symmetric(a, cfg: SimilarityConfig) -> SimilarityFeatures:
    """Cosine similarity between columns of (A + lambda*I)^p, symmetric A."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency is not symmetric: a graph is undirected")
    ahat = _power(a, cfg.lam, cfg.p)
    gram = ahat.T @ ahat
    dense = _normalize_gram(gram, np.diagonal(gram).copy())
    return SimilarityFeatures(source_node_count=a.shape[0], dense=dense)


def rank_cols(dense: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, in descending-value order.

    Ties break towards the smaller column index so the ranking is
    deterministic across platforms.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(-dense, axis=1, kind="stable")
    return order[:, : min(k, dense.shape[1])]


def index_map_dense(dense: np.ndarray, cfg: SimilarityConfig) -> np.ndarray:
    """Mapped features from a full ranking of every row of a dense matrix."""
    n = dense.shape[0]
    idx = rank_cols(dense, cfg.k)
    gathered = np.take_along_axis(dense, idx, axis=1)
    core = (cfg.alpha * gathered + (idx + 1).astype(np.float64)) / (n + 1)
    core[gathered == 0] = 0.0
    mapped = np.zeros((n, cfg.k), dtype=np.float64)
    mapped[:, : core.shape[1]] = core
    return mapped


def preprocess_graph_loop(dataset, cfg: SimilarityConfig) -> list[np.ndarray]:
    """Mapped structural features for every graph, one graph's features at a time."""
    return [index_map(compute_features(g.adjacency, cfg), cfg).mapped for g in dataset.graphs]


def graph_runs(graphs) -> list[tuple[int, int]]:
    """(first, end) positions of runs of consecutive graphs.

    Each run's sum of squared adjacency row degrees, the multiply-adds of
    its Gram, fits ``similarity.GRAM_RUN_MULTIPLY_ADDS``; a graph larger
    than that is a run of its own.
    """
    cuts, total = [0], 0
    for g, graph in enumerate(graphs):
        degree = np.diff(graph.adjacency.indptr).astype(np.int64)
        cost = int(degree @ degree)
        if g > cuts[-1] and total + cost > similarity.GRAM_RUN_MULTIPLY_ADDS:
            cuts.append(g)
            total = 0
        total += cost
    cuts.append(len(graphs))
    return list(zip(cuts[:-1], cuts[1:])) if graphs else []


def edge_runs(edges, width: int, itemsize: int) -> list[tuple[int, int, int, int]]:
    """(first node, end node, first edge, end edge) of runs of whole graphs.

    Each run's edge rows of ``width`` entries of ``itemsize`` bytes fit
    ``autodiff.EDGE_CHUNK_BYTES``; a graph larger than that is a run of
    its own.
    """
    budget = ad.EDGE_CHUNK_BYTES // (itemsize * max(width, 1))
    nodes, starts = edges.node_offsets, edges.edge_offsets
    cuts = [0]
    for g in range(1, len(starts) - 1):
        if starts[g + 1] - starts[cuts[-1]] > budget:
            cuts.append(g)
    cuts.append(len(starts) - 1)
    return [(nodes[lo], nodes[hi], starts[lo], starts[hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]


def decode_index(value: float, node_count: int, alpha: float | None = None) -> int:
    """Recover the 1-based node index encoded in one mapped entry.

    Near-integer products arise in two legitimate ways: alpha = 0 encodes
    bare indices (decodes exactly), and alpha = 1 with unit similarity
    collides with the next index (inherent to the formula; flagged).
    """
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"mapped value {value} outside (0, 1]")
    v = value * (node_count + 1)
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        if alpha is None or alpha == 1.0:
            warnings.warn(
                "mapped value decodes to an exact integer; with alpha = 1 a "
                "unit similarity collides with index %d" % nearest,
                RuntimeWarning,
                stacklevel=2,
            )
        return int(nearest)
    return int(np.floor(v))


NUMPY_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "linear": lambda x: x,
}


def gmn_message(msg, h_i: np.ndarray, h_j: np.ndarray) -> np.ndarray:
    """One GMN message in the concat form, act(concat(h_i, h_j) @ W + b)."""
    weight = np.vstack([msg.w_recv.values, msg.w_send.values])
    pre = np.concatenate([h_i, h_j]) @ weight + msg.bias.values[0]
    return NUMPY_ACTIVATIONS[msg.activation](pre)


def gmn_propagation_loop(prop, h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``GmnPropagation`` with one message per edge A[j, i] = 1, summed into i."""
    n = h.shape[0]
    aggregate = np.zeros((n, prop.f_message.bias.shape[1]))
    for j in range(n):
        for i in range(n):
            if a[j, i] != 0:
                aggregate[i] += gmn_message(prop.f_message, h[i], h[j])
    return prop.f_node(ad.constant(np.concatenate([h, aggregate], axis=1))).values


def edge_aggregate_chain(p_recv, p_send, bias, edges, activation: str) -> ad.Tensor:
    """``ad.edge_aggregate`` as separate tape ops: gather both ends, add, act, scatter.

    Every intermediate has one row per edge and stays on the tape.
    """
    pre = ad.add(ad.add(ad.gather_rows(p_recv, edges.receivers),
                        ad.gather_rows(p_send, edges.senders)), bias)
    return ad.sparse_matmul(ad.incidence(edges.receivers, edges.node_count),
                            ACTIVATIONS[activation](pre))


def gmn_linear_fold_transposed(prop, h: ad.Tensor, edges) -> ad.Tensor:
    """A linear ``GmnPropagation`` folded with the in-degree column and a product by A^T.

    The in-degree is the ``np.bincount`` of the receivers, the column sums
    of A, and the sender sum is ``sparse_matmul`` by the transposed
    adjacency: the fold as it reads a directed block.
    """
    msg, node = prop.f_message, prop.f_node
    d = msg.w_recv.shape[0]
    in_degree = np.bincount(edges.receivers, minlength=edges.node_count).reshape(-1, 1)
    w_top = ad.gather_rows(node.weight, np.arange(d))
    w_bot = ad.gather_rows(node.weight, np.arange(d, node.in_dim))
    own = ad.add(ad.matmul(h, ad.matmul(msg.w_recv, w_bot)), ad.matmul(msg.bias, w_bot))
    out = ad.add(ad.matmul(h, w_top), ad.multiply(ad.constant(in_degree), own))
    out = ad.add(out, ad.sparse_matmul(edges.adjacency.T,
                                       ad.matmul(h, ad.matmul(msg.w_send, w_bot))))
    return ad.add(out, node.bias)


def gmn_propagation_chain(prop, h: ad.Tensor, edges) -> ad.Tensor:
    """``GmnPropagation`` unfolded on the tape: ``edge_aggregate_chain``, concat, f_node."""
    msg = prop.f_message
    aggregate = edge_aggregate_chain(ad.matmul(h, msg.w_recv), ad.matmul(h, msg.w_send),
                                     msg.bias, edges, msg.activation)
    return prop.f_node(ad.concat_columns([h, aggregate]))


def tu_graphs_one_by_one(root, name: str) -> list[tuple[sp.csr_matrix, np.ndarray, int]]:
    """(adjacency, features, label) of each graph in valid TU files, built per graph.

    Each graph's edges make a float64 COO matrix, then a CSR with duplicate
    listings collapsed to 1, then its maximum with its transpose; node
    degrees are the row sums of those matrices. Features and labels follow
    ``load_tu_dataset``'s rules as a graph reads them: one-hot rows as
    bool, degree scalars in float64.
    """
    def read(suffix: str, cols: int = 1) -> np.ndarray:
        return _read_int_rows(os.path.join(root, f"{name}_{suffix}.txt"), cols).reshape(-1, cols)

    edges = read("A", 2)
    indicator = read("graph_indicator")[:, 0]
    graph_labels = read("graph_labels")[:, 0]
    counts = np.bincount(indicator)[1:]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    edge_graph = indicator[edges[:, 0] - 1] - 1

    adjacencies = []
    degrees = []
    for g, n in enumerate(counts):
        rows, cols = (edges[edge_graph == g] - 1 - offsets[g]).T
        adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
        adj.data[:] = 1.0
        adj = adj.maximum(adj.T)
        adj.eliminate_zeros()
        adjacencies.append(adj)
        degrees.append(np.asarray(adj.sum(axis=1)).reshape(-1))
    degrees = np.concatenate(degrees)

    node_labels = None
    if os.path.isfile(os.path.join(root, f"{name}_node_labels.txt")):
        node_labels = read("node_labels")[:, 0]
        label_values = np.unique(node_labels)
    class_of = {v: i for i, v in enumerate(np.unique(graph_labels).tolist())}

    out = []
    for g, n in enumerate(counts):
        lo = offsets[g]
        if node_labels is not None:
            feats = np.zeros((n, len(label_values)), dtype=bool)
            feats[np.arange(n), np.searchsorted(label_values, node_labels[lo:lo + n])] = True
        else:
            feats = (degrees[lo:lo + n] / max(degrees.max(), 1.0)).reshape(n, 1)
        out.append((adjacencies[g], feats, class_of[int(graph_labels[g])]))
    return out


def scatter_add_bincount(x: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """Sum row e of ``x`` into row ``idx[e]``: one bincount over flat output positions."""
    width = x.shape[1]
    flat = (idx[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=x.reshape(-1), minlength=rows * width).reshape(rows, width)


def _gcn_dense(gcn, h, a):
    """act(D (A + I) D h W) for one graph's dense n x n adjacency tensor."""
    a_tilde = ad.add(a, ad.constant(np.eye(a.shape[0])))
    inv_sqrt_deg = ad.reciprocal(ad.sqrt(ad.row_sum(a_tilde)))
    normalised = ad.multiply(ad.multiply(a_tilde, inv_sqrt_deg), ad.transpose(inv_sqrt_deg))
    return ACTIVATIONS[gcn.activation](ad.matmul(ad.matmul(normalised, h), gcn.weight))


def _similarity_dense_on_tape(a, p, lam):
    """Column-cosine similarity of one graph's (A + lam I)^p as dense tape ops."""
    n = a.shape[0]
    base = ad.add(a, ad.constant(lam * np.eye(n))) if lam != 0.0 else a
    ahat = base
    for _ in range(p - 1):
        ahat = ad.matmul(ahat, base)
    gram = ad.matmul(ad.transpose(ahat), ahat)
    diag = np.arange(n).reshape(n, 1)
    inv_norms = ad.reciprocal(ad.clamp_min(ad.sqrt(ad.gather(gram, diag, diag)), 1e-12))
    return ad.multiply(gram, ad.matmul(inv_norms, ad.transpose(inv_norms)))


def _pool_dense(z, logits, spread):
    s = ad.row_softmax(logits)
    st = ad.transpose(s)
    return ad.matmul(st, z), ad.tanh(ad.matmul(st, spread(s))), s


def _loss_le_one(s):
    log_p = ad.log(ad.clamp_min(s, 1e-12))
    return ad.scalar_multiply(ad.sum_all(ad.multiply(s, log_p)), -1.0 / s.shape[0])


def _loss_lc_one(s):
    n, clusters = s.shape
    q = ad.scalar_multiply(ad.col_sum(s), 1.0 / n)
    entropy = ad.scalar_multiply(ad.sum_all(ad.multiply(q, ad.log(ad.clamp_min(q, 1e-12)))), -1.0)
    return ad.clamp_min(ad.subtract(ad.constant([[np.log(clusters)]]), entropy), 0.0)


def forward_graph_loop(model, adjacency, features, label: int, mapped=None) -> Forward:
    """``SimPoolModel.forward_graph`` on one graph, as it ran before batches were packed.

    Stage 0 runs the model's own GMN stacks on the graph's ``Edges``;
    pooling, the GCNs, the on-tape similarity, the sum pool and the five
    loss terms are dense formulas on this graph alone.
    """
    edges = raw_edges([adjacency])
    x = ad.constant(features)
    f0 = model._assign_features_0(x, None, features, mapped)
    x1, a1, s0 = _pool_dense(model.z_stack(edges, x), model.s_stack(edges, *f0), edges.spread)
    f1 = x1
    if model.assign_inputs != "node":
        f1 = _similarity_dense_on_tape(a1, model.sim.p, model.sim.lam)
        if model.assign_inputs == "both":
            f1 = ad.concat_columns([f1, x1])
    x2, a2, s1 = _pool_dense(_gcn_dense(model.gcn1, x1, a1), model.s1_mlp(f1),
                             lambda s: ad.matmul(a1, s))
    pooled = ad.col_sum(_gcn_dense(model.gcn2, x2, a2))
    probs = ad.row_softmax(model.classifier(pooled))
    picked = ad.gather(probs, np.array([[0]]), np.array([[int(label)]]))
    task = ad.scalar_multiply(ad.log(ad.clamp_min(picked, 1e-12)), -1.0)
    terms = (task, _loss_le_one(s0), _loss_le_one(s1), _loss_lc_one(s0), _loss_lc_one(s1))
    return Forward(
        probs=probs.values,
        losses=dict(zip(LOSS_TERMS, terms)),
        assign_argmax=(np.argmax(s0.values, axis=1), np.argmax(s1.values, axis=1)),
    )


def adam_step_formula(params, m, v, t: int, lr: float) -> None:
    """One Adam step at count ``t``; the moments ``m`` and ``v``, by name, update in place."""
    for name, p in params.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.values)
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * grad
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * (grad * grad)
        m_hat = m[name] / (1.0 - BETA1**t)
        v_hat = v[name] / (1.0 - BETA2**t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + EPS)
