"""Structural similarity features computed from adjacency matrices.

The similarity between two nodes is the cosine of the corresponding
columns of (A + lambda*I)^p. For asymmetric adjacency the rows of
[Ahat | Ahat^T] are compared instead. Both come from one sparse Gram
matrix, so only node pairs that share a nonzero row or column of Ahat^p
are ever stored. The index mapping encodes each node's top-k most
similar neighbours into a fixed-width, differentiable feature matrix.

Exactness: for integer-valued adjacency (0/1 edges, integer lambda) every
Gram accumulation is exact in float64, so the result is bit-identical to
the dense computation. Real-valued weights agree to rounding error only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad

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
    if (a != a.T).nnz:
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
    """Similarity features of one graph's adjacency (dense or sparse)."""
    return similarity_sparse(a, cfg)


# ---------------------------------------------------------------------------
# index mapping
# ---------------------------------------------------------------------------

def index_map(features, cfg: SimilarityConfig) -> SimilarityFeatures:
    """Encode each node's top-k similarities as (alpha*C + j) / (|V| + 1).

    ``j`` is the 1-based column index of the selected similarity, so every
    nonzero output lands in (0, 1 - (1-alpha)/(|V|+1)] and decodes back to
    the source node index. Each row keeps its k largest nonzero entries in
    descending order, ties going to the smaller column index; rows with
    fewer than k nonzero entries are zero-padded. Similarities must be
    non-negative, so that the ranking over stored entries is the ranking
    over the whole row.
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

    rows = np.repeat(np.arange(n), np.diff(c.indptr))
    stored = c.data != 0
    rows, cols, vals = rows[stored], c.indices[stored], c.data[stored]
    order = np.lexsort((cols, -vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    top = rank < cfg.k

    mapped = np.zeros((n, cfg.k), dtype=np.float64)
    mapped[rows[top], rank[top]] = (cfg.alpha * vals[top] + (cols[top] + 1)) / (n + 1)
    return SimilarityFeatures(source_node_count=n, dense=c, mapped=mapped)


# ---------------------------------------------------------------------------
# on-tape variants for learned adjacency
# ---------------------------------------------------------------------------

def symmetric_similarity_on_tape(a: ad.Tensor, p: int = 1, lam: float = 0.0) -> ad.Tensor:
    """Differentiable column-cosine similarity of (A + lambda*I)^p."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("adjacency tensor must be square")
    base = ad.add(a, ad.constant(lam * np.eye(n))) if lam != 0.0 else a
    ahat = base
    for _ in range(p - 1):
        ahat = ad.matmul(ahat, base)
    gram = ad.matmul(ad.transpose(ahat), ahat)
    diag_idx = np.arange(n).reshape(n, 1)
    norms_sq = ad.gather(gram, diag_idx, diag_idx)
    inv_norms = ad.reciprocal(ad.clamp_min(ad.sqrt(norms_sq), 1e-12))
    scale = ad.matmul(inv_norms, ad.transpose(inv_norms))
    return ad.multiply(gram, scale)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def preprocess_dataset(dataset, cfg: SimilarityConfig) -> list[np.ndarray]:
    """Mapped structural features for every graph in a dataset."""
    mapped = []
    for graph in dataset.graphs:
        feats = compute_features(graph.adjacency, cfg)
        mapped.append(index_map(feats, cfg).mapped)
    return mapped
