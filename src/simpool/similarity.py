"""Structural similarity features computed from adjacency matrices.

The similarity between two nodes is the cosine of the corresponding
columns of (A + lambda*I)^p. Graphs are undirected (``data.Dataset``
checks it), so A and Ahat^p are symmetric and the cosines come from one
sparse Gram matrix, Ahat Ahat: only node pairs that share a nonzero row
of Ahat^p are ever stored, and the cosines are the Gram's values
rescaled in its own CSR layout. The index mapping encodes each node's
top-k most similar neighbours into a fixed-width, differentiable feature matrix, ranking
each row among its own stored entries. A dataset is preprocessed in runs
of consecutive graphs, each run one block-diagonal union with one Gram
product and one top-k pass; a union's Gram is block diagonal, so each
graph gets the features it gets alone.

Dtypes: the Gram, the cosines and ``index_map`` compute in float64, and
``compute_features`` and ``index_map`` return float64. Only
``preprocess_dataset`` narrows: it stores each run's mapped rows in
``ad.tape_dtype()`` as it is when it runs, the rule ``layers.Edges``
follows for its adjacency. Training reads the rows in the tape dtype
anyway, so rounding them once here gives the bytes ``ad.constant`` would
give on every step, and a float32 tape keeps half the bytes resident.

Exactness: for integer-valued adjacency (0/1 edges, integer lambda) every
Gram accumulation is exact in float64, so the result is bit-identical to
the dense computation. Real-valued weights agree to rounding error only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import NON_NEGATIVE, UNIT_INTERVAL, require_integer, require_real
from .layers import block_offsets

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
        require_integer("p", self.p, 1)
        require_integer("k", self.k, 1)
        require_real("lam", self.lam, NON_NEGATIVE)  # a self-connection weight
        require_real("alpha", self.alpha, UNIT_INTERVAL)


@dataclass
class SimilarityFeatures:
    """A similarity matrix (CSR, zeros not stored) and, from ``index_map``, its top-k encoding."""

    source_node_count: int
    dense: sp.csr_matrix
    mapped: np.ndarray | None = None


@dataclass
class SparseStats:
    """Measured cost of one sparse similarity computation."""

    node_count: int
    pair_count: int = 0
    multiply_adds: int = 0


def similarity_sparse(
    a,
    cfg: SimilarityConfig,
    return_stats: bool = False,
):
    """Cosine similarity of the columns of Ahat^p, from its sparse Gram matrix.

    ``a`` is an undirected graph's adjacency, as ``data.Dataset`` checks: an
    input that is not symmetric once canonical raises ``ValueError``. So
    the Gram Ahat^T Ahat is Ahat Ahat, and only pairs sharing a nonzero
    row of Ahat^p can have nonzero cosine; everything the sparse product
    does not reach is an exact (structural) zero. The cosines are a CSR on
    the Gram's own ``indptr`` and ``indices``, so a row's columns may come
    unsorted.
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
    # canonical CSR with no stored zeros: equal arrays mean equal matrices
    at = a.T.tocsr()
    if not (np.array_equal(a.indptr, at.indptr) and np.array_equal(a.indices, at.indices)
            and np.array_equal(a.data, at.data)):
        raise ValueError("adjacency must be symmetric: structural similarity is defined "
                         "on undirected graphs")

    n = a.shape[0]
    base = a if cfg.lam == 0 else a + cfg.lam * sp.identity(n, format="csr")
    ahat = base
    for _ in range(cfg.p - 1):
        ahat = ahat @ base
    # Ahat^T Ahat accumulates one d x d outer product per row of degree d
    row_degree = np.diff(ahat.indptr).astype(np.int64)
    stats = SparseStats(node_count=n, multiply_adds=int((row_degree**2).sum()))
    gram = ahat @ ahat

    norms_sq = gram.diagonal()
    norms = np.sqrt(norms_sq)
    per_row, j, g = np.diff(gram.indptr), gram.indices, gram.data
    stats.pair_count = len(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = g / (np.repeat(norms, per_row) * norms[j])
    parallel = (g * g == np.repeat(norms_sq, per_row) * norms_sq[j]) & (g != 0)
    c[parallel] = np.sign(g[parallel])
    dense = sp.csr_matrix((np.clip(c, -1.0, 1.0, out=c), j, gram.indptr), shape=(n, n))
    dense.eliminate_zeros()

    features = SimilarityFeatures(source_node_count=n, dense=dense)
    return (features, stats) if return_stats else features


def compute_features(a, cfg: SimilarityConfig) -> SimilarityFeatures:
    """Similarity features of an undirected adjacency (dense or sparse): one graph or a union."""
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
    over the whole row, and must not cross graphs. Rows are ranked among
    their own entries, one sort per row length, whatever their column order.
    """
    matrix = features.dense if isinstance(features, SimilarityFeatures) else features
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

    if not c.data.all():  # a stored zero is no similarity; the caller's matrix keeps its layout
        c = c.copy()
        c.eliminate_zeros()
    indptr, cols, vals = c.indptr, c.indices, c.data
    length = np.diff(indptr)
    owner = np.repeat(np.repeat(np.arange(sizes.size), sizes), length)  # each entry's graph
    local, size = cols - offsets[owner], sizes[owner]
    if np.any((local < 0) | (local >= size)):
        raise ValueError("index_map expects no similarity between nodes of different graphs")
    code = (cfg.alpha * vals + (local + 1)) / (size + 1)

    mapped = np.zeros((n, cfg.k), dtype=np.float64)
    for width in np.unique(length[length > 0]):
        rows = np.flatnonzero(length == width)
        start = indptr[rows, None]
        entries = start + np.arange(width)  # rows x width: one row's entries per line
        order = np.lexsort((cols[entries], -vals[entries]), axis=1)[:, :cfg.k]
        mapped[rows, :order.shape[1]] = code[start + order]
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
    count, n = segments.count, a.shape[1]
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

# A run's Gram multiply-adds, the sum of its graphs' squared degrees. On ENZYMES-like
# data its temporaries peak near 37 bytes per multiply-add, 4.8 MB a run, which raises
# both ENZYMES benchmark workloads' peak RSS by about 1% over runs of 2^15; on DD-like
# data it takes preprocessing from 0.70 to 0.54 s. A union of the whole DD dataset added 270 MB
GRAM_RUN_MULTIPLY_ADDS = 1 << 17


def preprocess_dataset(dataset, cfg: SimilarityConfig) -> list[np.ndarray]:
    """Mapped structural features for every graph in a dataset, in dataset order.

    The graphs go in ``ad.cost_runs`` of whole graphs, each costing its
    Gram's multiply-adds, the sum of its squared row degrees. Each run is
    one ``Dataset.union``, a slice of the dataset's store, with one
    ``compute_features`` and one ``index_map`` call over the run's graph
    offsets; the union's Gram is block diagonal, so every graph's cosines
    and top-k encoding are the ones it gets alone, byte for byte. Each
    run's n x k array is ``index_map``'s float64 output cast once to
    ``ad.tape_dtype()``, so build the features under the ``ad.precision``
    of the model that reads them, as its batches' ``Edges`` are; under
    float64 they are ``index_map``'s bytes. Graph g's entry is a view of
    its rows of its run's array.
    """
    degree = np.diff(dataset.indptr).astype(np.int64)
    squares = np.concatenate([[0], np.cumsum(degree * degree)])
    costs = np.diff(squares[dataset.node_offsets]).tolist()
    dtype, mapped = ad.tape_dtype(), []
    for first, end in ad.cost_runs(costs, GRAM_RUN_MULTIPLY_ADDS):
        union, offsets = dataset.union(np.arange(first, end))
        run = index_map(compute_features(union, cfg), cfg, offsets).mapped.astype(dtype, copy=False)
        mapped.extend(run[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
    return mapped
