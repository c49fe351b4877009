"""Structural similarity features computed from adjacency matrices.

The similarity between two nodes is the cosine of the corresponding
columns of (A + lambda*I)^p. For asymmetric adjacency the rows of
[Ahat | Ahat^T] are compared instead. Both come from one sparse Gram
matrix, so only node pairs that share a nonzero row or column of Ahat^p
are ever stored. The index mapping encodes each node's top-k most
similar neighbours into a fixed-width, differentiable feature matrix.
A dataset is preprocessed in runs of consecutive graphs, each run one
block-diagonal union with one Gram product and one top-k pass; a union's
Gram is block diagonal, so each graph gets the features it gets alone.

Exactness: for integer-valued adjacency (0/1 edges, integer lambda) every
Gram accumulation is exact in float64, so the result is bit-identical to
the dense computation. Real-valued weights agree to rounding error only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .layers import block_diagonal, block_offsets

__all__ = [
    "SimilarityConfig",
    "SimilarityFeatures",
    "SparseStats",
    "similarity_sparse",
    "compute_features",
    "index_map",
    "symmetric_similarity_on_tape",
    "preprocess_dataset",
]


@dataclass(frozen=True)
class SimilarityConfig:
    """Parameters of the structural similarity computation."""

    p: int = 1
    lam: float = 0.0
    alpha: float = 1.0
    k: int = 12

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("power p must be >= 1")
        if self.lam < 0:
            raise ValueError("self-connection weight lambda must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("top-k width must be >= 1")


@dataclass
class SimilarityFeatures:
    """Similarity matrix (CSR, zeros not stored) and/or its top-k encoding."""

    source_node_count: int
    dense: sp.csr_matrix | None = None
    mapped: np.ndarray | None = None


@dataclass
class SparseStats:
    """Measured cost of one sparse similarity computation."""

    node_count: int
    edge_count: int
    pair_count: int = 0
    multiply_adds: int = 0


def similarity_sparse(
    a,
    cfg: SimilarityConfig,
    return_stats: bool = False,
):
    """Cosine similarity from the sparse Gram matrix of Ahat^p.

    The Gram is Ahat^T Ahat, plus Ahat Ahat^T when ``a`` is not symmetric,
    so only pairs sharing a nonzero row of Ahat^p (or, for asymmetric
    input, a nonzero column) can have nonzero cosine; everything the
    sparse products do not reach is an exact (structural) zero.
    Exactly parallel columns (Cauchy-Schwarz equality, an exact predicate
    for integer-valued input) get unit similarity, so diagonals and
    duplicated neighbourhoods come out as exactly 1. Zero-norm columns
    compare as 0 against everything, including themselves.
    """
    a = sp.csr_matrix(a, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if a.nnz and a.data.min() < 0:
        raise ValueError("adjacency entries must be non-negative")
    if not a.has_canonical_format or not a.data.all():
        a = a.copy()  # the caller's matrix keeps its layout
        a.sum_duplicates()
        a.eliminate_zeros()

    n = a.shape[0]
    base = (a + cfg.lam * sp.identity(n, format="csr")).tocsr()
    base.eliminate_zeros()
    ahat = base
    for _ in range(cfg.p - 1):
        ahat = ahat @ base
    # Ahat^T Ahat accumulates one d x d outer product per row of degree d
    row_degree = np.diff(ahat.indptr).astype(np.int64)
    gram = ahat.T @ ahat
    stats = SparseStats(node_count=n, edge_count=int(a.nnz),
                        multiply_adds=int((row_degree**2).sum()))
    # canonical CSR with no stored zeros: equal arrays mean equal matrices
    at = a.T.tocsr()
    if not (np.array_equal(a.indptr, at.indptr) and np.array_equal(a.indices, at.indices)
            and np.array_equal(a.data, at.data)):
        gram = gram + ahat @ ahat.T
        col_degree = np.bincount(ahat.indices, minlength=n).astype(np.int64)
        stats.multiply_adds += int((col_degree**2).sum())

    norms_sq = gram.diagonal()
    norms = np.sqrt(norms_sq)
    gram_coo = gram.tocoo()
    i, j, g = gram_coo.row, gram_coo.col, gram_coo.data
    stats.pair_count = len(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = g / (norms[i] * norms[j])
    parallel = (g * g == norms_sq[i] * norms_sq[j]) & (g != 0)
    c[parallel] = np.sign(g[parallel])
    c = np.clip(c, -1.0, 1.0)
    dense = sp.csr_matrix((c, (i, j)), shape=(n, n))
    dense.eliminate_zeros()

    features = SimilarityFeatures(source_node_count=n, dense=dense)
    if return_stats:
        return features, stats
    return features


def compute_features(a, cfg: SimilarityConfig) -> SimilarityFeatures:
    """Similarity features of an adjacency (dense or sparse): one graph or a disjoint union."""
    return similarity_sparse(a, cfg)


# ---------------------------------------------------------------------------
# index mapping
# ---------------------------------------------------------------------------

def index_map(features, cfg: SimilarityConfig, offsets=None) -> SimilarityFeatures:
    """Encode each node's top-k similarities as (alpha*C + j) / (|V| + 1).

    ``offsets`` cut the n rows into graphs of a disjoint union, graph g
    owning rows and columns ``offsets[g]:offsets[g + 1]``; they must rise
    from 0 to n, and the default is one graph. ``j`` is the 1-based column
    of the selected similarity within its row's graph and ``|V|`` that
    graph's node count, so every row encodes as it would alone, every
    nonzero output lands in (0, 1 - (1-alpha)/(|V|+1)] and decodes back to
    the source node index. Each row keeps its k largest nonzero entries in
    descending order, ties going to the smaller column index; rows with
    fewer than k nonzero entries are zero-padded. Similarities must be
    non-negative, so that the ranking over stored entries is the ranking
    over the whole row, and must not cross graphs.
    """
    matrix = features.dense if isinstance(features, SimilarityFeatures) else features
    if matrix is None:
        raise ValueError("no similarity matrix stored")
    c = sp.csr_matrix(matrix, dtype=np.float64)
    n = c.shape[0]
    if c.shape != (n, n):
        raise ValueError("index_map expects a square similarity matrix")
    if c.nnz and c.data.min() < 0:
        raise ValueError("index_map expects non-negative similarities")
    offsets = np.array([0, n] if offsets is None else offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n \
            or np.any(np.diff(offsets) < 0):
        raise ValueError(f"graph offsets must rise from 0 to {n}, got {offsets.tolist()}")
    sizes = np.diff(offsets)
    graph = np.repeat(np.arange(sizes.size), sizes)

    # the stored nonzeros row by row; indptr counts them up to each row's start
    stored = c.data != 0
    indptr = np.concatenate([[0], np.cumsum(stored)])[c.indptr]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    cols, vals = c.indices[stored], c.data[stored]
    owner = graph[rows]
    if np.any((cols < offsets[owner]) | (cols >= offsets[owner + 1])):
        raise ValueError("index_map expects no similarity between nodes of different graphs")
    order = np.lexsort((cols, -vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    rank = np.arange(rows.size) - indptr[rows]
    top = rank < cfg.k
    rows, cols, vals, rank = rows[top], cols[top], vals[top], rank[top]

    owner = graph[rows]
    mapped = np.zeros((n, cfg.k), dtype=np.float64)
    mapped[rows, rank] = (cfg.alpha * vals + (cols - offsets[owner] + 1)) / (sizes[owner] + 1)
    return SimilarityFeatures(source_node_count=n, dense=c, mapped=mapped)


# ---------------------------------------------------------------------------
# on-tape variants for learned adjacency
# ---------------------------------------------------------------------------

def symmetric_similarity_on_tape(a: ad.Tensor, p: int = 1, lam: float = 0.0) -> ad.Tensor:
    """Differentiable column-cosine similarity of (A + lambda*I)^p, block by block.

    ``a`` stacks one symmetric n x n block per graph, (B n) x n, and so
    does the result. Each block's products run through the segmented
    ``ad.matmul``, whose left operand is the column ranges of a transpose:
    a symmetric block's transpose is the block itself. Row r's inverse
    norm scales row r, and every row of a block takes its block's row of
    inverse norms as column scales.
    """
    segments = block_offsets(a)
    count, n = segments.size - 1, a.shape[1]
    base = a if lam == 0.0 else ad.add(a, ad.constant(np.tile(lam * np.eye(n), (count, 1))))
    ahat = base
    for _ in range(p - 1):
        ahat = ad.matmul(ad.transpose(ahat), base, segments)
    gram = ad.matmul(ad.transpose(ahat), ahat, segments)
    rows = np.arange(a.shape[0])
    block, within = rows // n, rows % n
    # one row of inverse column norms per block: its diagonal's square roots
    norms_sq = ad.gather(gram, rows.reshape(count, n), within.reshape(count, n))
    inv_norms = ad.reciprocal(ad.clamp_min(ad.sqrt(norms_sq), 1e-12))
    row_scale = ad.gather(inv_norms, block.reshape(-1, 1), within.reshape(-1, 1))
    return ad.multiply(ad.multiply(gram, row_scale), ad.gather_rows(inv_norms, block))


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

# A run's Gram multiply-adds, the sum of its graphs' squared degrees. Its
# temporaries peak near 60 bytes per multiply-add, about 2 MB a run, which
# keeps ENZYMES' set-up under the training step's peak RSS; one union of the
# whole DD dataset raised preprocessing's peak RSS by 270 MB
GRAM_RUN_MULTIPLY_ADDS = 1 << 15


def _graph_runs(graphs) -> list[tuple[int, int]]:
    """(first, end) positions of runs of consecutive graphs.

    Each run's sum of squared adjacency row degrees, the multiply-adds of
    its Gram, fits ``GRAM_RUN_MULTIPLY_ADDS``; a graph larger than that is
    a run of its own.
    """
    cuts, total = [0], 0
    for g, graph in enumerate(graphs):
        degree = np.diff(graph.adjacency.indptr).astype(np.int64)
        cost = int(degree @ degree)
        if g > cuts[-1] and total + cost > GRAM_RUN_MULTIPLY_ADDS:
            cuts.append(g)
            total = 0
        total += cost
    cuts.append(len(graphs))
    return list(zip(cuts[:-1], cuts[1:])) if graphs else []


def preprocess_dataset(dataset, cfg: SimilarityConfig) -> list[np.ndarray]:
    """Mapped structural features for every graph in a dataset, in dataset order.

    The graphs go in runs of whole graphs (``_graph_runs``). Each run is
    one ``layers.block_diagonal`` union with one ``compute_features`` and
    one ``index_map`` call over the run's graph offsets; the union's Gram
    is block diagonal, so every graph's cosines and top-k encoding are
    the ones it gets alone, byte for byte. Graph g's entry is a view of
    its rows of its run's n x k array.
    """
    graphs = dataset.graphs
    mapped = []
    for first, end in _graph_runs(graphs):
        union, offsets = block_diagonal([g.adjacency for g in graphs[first:end]])
        run = index_map(compute_features(union, cfg), cfg, offsets).mapped
        mapped.extend(run[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
    return mapped
