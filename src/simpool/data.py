"""Graph-classification datasets: loading, validation, batching, splits.

Datasets arrive as TU-style text files (1-based edge list, graph
indicator, graph labels, optional node labels). Loaded graphs are
immutable; adjacency is kept as CSR, features dense.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "Dataset",
    "PaddedBatch",
    "DatasetFormatError",
    "DatasetIntegrityError",
    "load_tu_dataset",
    "make_batches",
    "kfold_split",
    "dataset_hash",
]

DATASET_MAGIC = b"SPG1"


class DatasetFormatError(ValueError):
    """A mandatory dataset file is missing or unparseable."""


class DatasetIntegrityError(ValueError):
    """Dataset files are present but internally inconsistent."""


@dataclass(frozen=True)
class Graph:
    """One labelled graph: sparse adjacency plus dense node features.

    Every stored adjacency entry is 0 or 1: a graph is its structure.
    """

    adjacency: sp.csr_matrix
    node_features: np.ndarray
    label: int

    def __post_init__(self):
        n, cols = self.adjacency.shape
        if n != cols:
            raise ValueError(f"adjacency must be square, got {self.adjacency.shape}")
        if n < 1:
            raise ValueError("graph must have at least one node")
        if np.any((self.adjacency.data != 0) & (self.adjacency.data != 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if self.node_features.shape[0] != n:
            raise ValueError("feature rows must match node count")

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of graphs sharing a feature space."""

    name: str
    graphs: tuple[Graph, ...]
    num_classes: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("dataset needs at least one class")
        dims = {g.feature_dim for g in self.graphs}
        if len(dims) > 1:
            raise DatasetIntegrityError(f"inconsistent feature dims {sorted(dims)}")
        for g in self.graphs:
            if not 0 <= g.label < self.num_classes:
                raise DatasetIntegrityError(f"label {g.label} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim if self.graphs else 0

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass(frozen=True)
class PaddedBatch:
    """Dense, zero-padded batch; masked rows/columns are exactly zero."""

    adjacency: np.ndarray  # B x N x N
    features: np.ndarray  # B x N x d
    node_mask: np.ndarray  # B x N, leading ones
    labels: np.ndarray  # B
    indices: np.ndarray  # B source positions in the dataset

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    def node_counts(self) -> np.ndarray:
        return self.node_mask.sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# TU-format loading
# ---------------------------------------------------------------------------

def _read_int_rows(path: str, expected_cols: int) -> np.ndarray:
    """Parse whitespace/comma separated integer rows; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().replace(",", " ")
    if not text.strip():
        return np.zeros((0, expected_cols), dtype=np.int64)
    error = None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2, comments=None)
        if rows.shape[1] == expected_cols:
            return rows
    except ValueError as exc:
        error = exc
    # malformed: name the first offending line
    name = os.path.basename(path)
    for lineno, line in enumerate(text.split("\n"), 1):
        parts = line.split()
        if parts and len(parts) != expected_cols:
            raise DatasetFormatError(
                f"{name}:{lineno}: expected {expected_cols} fields, got {len(parts)}"
            )
        try:
            list(map(int, parts))
        except ValueError as exc:
            raise DatasetFormatError(f"{name}:{lineno}: non-integer field") from exc
    raise DatasetFormatError(f"{name}: {error}") from error


def load_tu_dataset(root_path, name: str) -> Dataset:
    """Load a TU-format dataset directory.

    Node features are one-hot node labels when `<name>_node_labels.txt`
    exists, otherwise a single degree scalar normalised by the dataset's
    maximum degree. Adjacency is 0/1 and symmetrised; class labels are
    remapped to a contiguous range.
    """
    root = os.fspath(root_path)

    def path_of(suffix: str) -> str:
        return os.path.join(root, f"{name}_{suffix}.txt")

    for suffix in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(path_of(suffix)):
            raise DatasetFormatError(f"missing mandatory file {name}_{suffix}.txt under {root}")

    edges = _read_int_rows(path_of("A"), 2)
    indicator = _read_int_rows(path_of("graph_indicator"), 1).reshape(-1)
    graph_labels_raw = _read_int_rows(path_of("graph_labels"), 1).reshape(-1)

    num_nodes = indicator.shape[0]
    if num_nodes == 0:
        raise DatasetFormatError("empty graph indicator")
    num_graphs = graph_labels_raw.shape[0]
    if indicator.min() < 1 or indicator.max() != num_graphs:
        raise DatasetIntegrityError(
            f"graph indicator range [{indicator.min()}, {indicator.max()}] "
            f"inconsistent with {num_graphs} graph labels"
        )
    if np.any(np.diff(indicator) < 0) or len(np.unique(indicator)) != num_graphs:
        raise DatasetIntegrityError("graph indicator must be sorted and contiguous")

    # node id ranges per graph (TU ids are 1-based and globally consecutive)
    counts = np.bincount(indicator, minlength=num_graphs + 1)[1:]
    offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()

    src, dst = edges.T - 1
    if edges.size and (edges.min() < 1 or edges.max() > num_nodes):
        raise DatasetIntegrityError("edge endpoint outside the node id range")
    crosses = indicator[src] != indicator[dst]
    if crosses.any():
        bad = int(np.argmax(crosses))
        raise DatasetIntegrityError(
            f"edge ({edges[bad, 0]}, {edges[bad, 1]}) crosses graph boundaries"
        )

    node_labels = None
    if os.path.isfile(path_of("node_labels")):
        node_labels = _read_int_rows(path_of("node_labels"), 1).reshape(-1)
        if node_labels.shape[0] != num_nodes:
            raise DatasetIntegrityError("node label count differs from node count")

    # no edge crosses graphs, so the dataset is one block-diagonal matrix:
    # build it once and cut each graph out as a row range
    adj = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(num_nodes, num_nodes)).tocsr()
    adj.data[:] = 1.0  # collapse duplicate listings
    adj = adj.maximum(adj.T)  # symmetrise
    degrees = np.diff(adj.indptr)
    if node_labels is not None:
        label_values, label_pos = np.unique(node_labels, return_inverse=True)
        features = np.zeros((num_nodes, len(label_values)))
        features[np.arange(num_nodes), label_pos] = 1.0
    else:
        features = (degrees / max(degrees.max(), 1.0)).reshape(num_nodes, 1)
    class_values, classes = np.unique(graph_labels_raw, return_inverse=True)

    graphs = []
    for lo, hi, label in zip(offsets[:-1], offsets[1:], classes.tolist()):
        p0, p1 = adj.indptr[lo], adj.indptr[hi]
        block = sp.csr_matrix(
            (adj.data[p0:p1], adj.indices[p0:p1] - lo, adj.indptr[lo:hi + 1] - p0),
            shape=(hi - lo, hi - lo),
        )
        graphs.append(Graph(adjacency=block, node_features=features[lo:hi], label=label))

    ds = Dataset(
        name=name,
        graphs=tuple(graphs),
        num_classes=len(class_values),
        metadata={
            "feature_kind": "node_label_onehot" if node_labels is not None else "degree_scalar",
            "source": root,
        },
    )
    ds.metadata["content_hash"] = dataset_hash(ds)
    return ds


# ---------------------------------------------------------------------------
# batching and splits
# ---------------------------------------------------------------------------

def make_batches(
    ds: Dataset,
    batch_size: int,
    shuffle_seed: int | None = None,
    subset: np.ndarray | None = None,
) -> list[PaddedBatch]:
    """Partition a dataset (or an index subset) into padded batches."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if len(ds) == 0:
        raise ValueError("cannot batch an empty dataset")
    positions = np.arange(len(ds)) if subset is None else np.asarray(subset, dtype=np.int64)
    if positions.size == 0:
        raise ValueError("cannot batch an empty index subset")
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        positions = positions[rng.permutation(positions.size)]

    batches = []
    for start in range(0, positions.size, batch_size):
        chunk = positions[start:start + batch_size]
        graphs = [ds.graphs[i] for i in chunk]
        n_max = max(g.node_count for g in graphs)
        b = len(graphs)
        adjacency = np.zeros((b, n_max, n_max))
        features = np.zeros((b, n_max, ds.feature_dim))
        mask = np.zeros((b, n_max))
        labels = np.zeros(b, dtype=np.int64)
        for slot, g in enumerate(graphs):
            n = g.node_count
            adjacency[slot, :n, :n] = g.adjacency.toarray()
            features[slot, :n, :] = g.node_features
            mask[slot, :n] = 1.0
            labels[slot] = g.label
        batches.append(
            PaddedBatch(
                adjacency=adjacency,
                features=features,
                node_mask=mask,
                labels=labels,
                indices=chunk.copy(),
            )
        )
    return batches


def kfold_split(ds: Dataset, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold split: disjoint validation folds covering the dataset.

    Overall fold sizes differ by at most one, and so does each class's
    histogram across folds (items are dealt to folds round-robin with a
    pointer that carries over between classes).
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > len(ds):
        raise ValueError(f"cannot split {len(ds)} graphs into {folds} folds")
    rng = np.random.default_rng(seed)
    labels = ds.labels()
    assignment = np.zeros(len(ds), dtype=np.int64)
    pointer = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        assignment[members] = (pointer + np.arange(members.size)) % folds
        pointer += members.size

    splits = []
    everything = np.arange(len(ds))
    for f in range(folds):
        val = everything[assignment == f]
        train = everything[assignment != f]
        splits.append((train, val))
    return splits


# ---------------------------------------------------------------------------
# binary formats: the dataset content hash and the checkpoint reader
# ---------------------------------------------------------------------------

class ByteReader:
    """Sequential reader over a binary container held in memory.

    Every read past the end, and any byte left over at ``finish``, raises
    ``error`` (a named exception type of the caller) instead of numpy's
    or struct's generic messages.
    """

    def __init__(self, raw: bytes, error: type[Exception], what: str):
        self.view = memoryview(raw)
        self.pos = 0
        self.error = error
        self.what = what

    def take(self, size: int) -> memoryview:
        if size < 0 or self.pos + size > len(self.view):
            raise self.error(
                f"truncated {self.what}: {size} bytes needed at offset {self.pos}, "
                f"file has {len(self.view)}"
            )
        out = self.view[self.pos:self.pos + size]
        self.pos += size
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype).copy()

    def finish(self) -> None:
        extra = len(self.view) - self.pos
        if extra:
            raise self.error(f"{extra} trailing bytes after the {self.what}")


def _serialize_dataset(ds: Dataset, write) -> None:
    """Pass the canonical serialization to ``write`` one piece at a time."""
    write(DATASET_MAGIC)
    name_bytes = ds.name.encode("utf-8")
    write(struct.pack("<qqqq", 1, len(name_bytes), ds.num_classes, len(ds)))
    write(name_bytes)
    write(struct.pack("<q", ds.feature_dim))
    for g in ds.graphs:
        coo = g.adjacency.tocoo()
        write(struct.pack("<qqq", g.node_count, g.label, coo.nnz))
        write(np.ascontiguousarray(coo.row, dtype="<i8"))
        write(np.ascontiguousarray(coo.col, dtype="<i8"))
        write(np.ascontiguousarray(coo.data, dtype="<f8"))
        write(np.ascontiguousarray(g.node_features, dtype="<f8"))


def dataset_hash(ds: Dataset) -> str:
    """Content hash over the canonical serialization."""
    digest = hashlib.sha256()
    _serialize_dataset(ds, digest.update)
    return digest.hexdigest()
