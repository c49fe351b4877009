"""Reference implementations that the production paths must reproduce.

The similarity oracles are the textbook O(n^2)-memory formulas behind the
sparse path in ``simpool.similarity``; the GMN oracle loops over edges one
message at a time, and ``edge_aggregate_chain`` is ``ad.edge_aggregate``
spelt out as the tape ops it fuses. ``tu_graphs_one_by_one`` builds a TU
dataset's graphs one sparse matrix at a time, the reference for the
loader's row ranges of one block-diagonal matrix. Tests compare against
them. ``decode_index`` reads the source node back out of one
``index_map`` entry.
"""

import os
import warnings

import numpy as np
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool.data import _read_int_rows
from simpool.layers import ACTIVATIONS
from simpool.similarity import SimilarityConfig, SimilarityFeatures


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
        raise ValueError("adjacency is not symmetric; use the asymmetric variant")
    ahat = _power(a, cfg.lam, cfg.p)
    gram = ahat.T @ ahat
    dense = _normalize_gram(gram, np.diagonal(gram).copy())
    return SimilarityFeatures(source_node_count=a.shape[0], dense=dense)


def similarity_dense_asymmetric(a, cfg: SimilarityConfig) -> SimilarityFeatures:
    """Cosine similarity between rows of [Ahat | Ahat^T] for any square A."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    ahat = _power(a, cfg.lam, cfg.p)
    gram = ahat @ ahat.T + ahat.T @ ahat
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
    """``GmnPropagation`` with one message per nonzero A[j, i], summed into i."""
    n = h.shape[0]
    aggregate = np.zeros((n, prop.f_message.bias.shape[1]))
    for j in range(n):
        for i in range(n):
            if a[j, i] != 0:
                aggregate[i] += a[j, i] * gmn_message(prop.f_message, h[i], h[j])
    return prop.f_node(ad.constant(np.concatenate([h, aggregate], axis=1))).values


def edge_aggregate_chain(p_recv, p_send, bias, edges, activation: str) -> ad.Tensor:
    """``ad.edge_aggregate`` as separate tape ops: gather both ends, add, act, weigh, scatter.

    Every intermediate has one row per edge and stays on the tape.
    """
    pre = ad.add(ad.add(ad.gather_rows(p_recv, edges.receivers),
                        ad.gather_rows(p_send, edges.senders)), bias)
    messages = ad.multiply(ACTIVATIONS[activation](pre), edges.weights)
    return ad.scatter_rows(messages, edges.receivers, edges.node_count)


def tu_graphs_one_by_one(root, name: str) -> list[tuple[sp.csr_matrix, np.ndarray, int]]:
    """(adjacency, features, label) of each graph in valid TU files, built per graph.

    Each graph's edges make a COO matrix, then a CSR with duplicate
    listings collapsed to 1, then its maximum with its transpose; node
    degrees are the row sums of those matrices. Features and labels follow
    ``load_tu_dataset``'s rules.
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
            feats = np.zeros((n, len(label_values)))
            feats[np.arange(n), np.searchsorted(label_values, node_labels[lo:lo + n])] = 1.0
        else:
            feats = (degrees[lo:lo + n] / max(degrees.max(), 1.0)).reshape(n, 1)
        out.append((adjacencies[g], feats, class_of[int(graph_labels[g])]))
    return out
