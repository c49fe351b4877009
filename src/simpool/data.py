"""Graph-classification datasets: loading, validation, batching, splits.

Datasets arrive as TU-style text files (1-based edge list, graph
indicator, graph labels, optional node labels). Loaded graphs are
immutable; adjacency is kept as CSR, features dense: one-hot node labels
as bool, one byte per entry (the tape casts 0 and 1 exactly to its own
dtype), and the degree scalar in float64, whose ratios float32 would
round. The content hash reads every feature as float64 whatever its
storage dtype.
"""

from __future__ import annotations

import hashlib
import os
import struct
import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .layers import Edges

__all__ = [
    "Graph",
    "Dataset",
    "PaddedBatch",
    "DatasetFormatError",
    "DatasetIntegrityError",
    "load_tu_dataset",
    "batch_positions",
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
    """One labelled undirected graph: sparse adjacency plus dense node features.

    Every stored adjacency entry is 0 or 1, no edge is stored twice, and
    the adjacency is symmetric (a stored zero is no edge): a graph is its
    undirected structure. Here is where that is checked, and the model
    relies on it throughout: ``layers.Edges`` reads A as A^T, the
    similarity Gram is Ahat Ahat, and stage 1's tanh(S^T A S) is symmetric
    only when A is. The adjacency is a scipy sparse matrix or array in CSR
    format, whose row order the content hash reads. ``node_features`` is
    n x d, one row per node, in a float or bool dtype: the tape casts it to
    its own. ``load_tu_dataset`` gives one-hot rows as bool and degree
    scalars in float64.
    """

    adjacency: sp.csr_matrix
    node_features: np.ndarray
    label: int

    def __post_init__(self):
        if not (sp.issparse(self.adjacency) and self.adjacency.format == "csr"):
            kind = type(self.adjacency).__name__
            kind = (f"{kind} in {self.adjacency.format.upper()} format"
                    if sp.issparse(self.adjacency) else f"dense {kind}")
            raise TypeError(f"adjacency must be a scipy sparse matrix or array in CSR "
                            f"format, got {kind}")
        n, cols = self.adjacency.shape
        if n != cols:
            raise ValueError(f"adjacency must be square, got {self.adjacency.shape}")
        if n < 1:
            raise ValueError("graph must have at least one node")
        if np.any((self.adjacency.data != 0) & (self.adjacency.data != 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        # A is symmetric exactly when its edge keys i n + j and j n + i sort to the
        # same list; per graph this costs a third to a fifth of a scipy A != A.T
        edge = self.adjacency.data != 0
        i = np.repeat(np.arange(n), np.diff(self.adjacency.indptr))[edge]
        j = self.adjacency.indices[edge]
        keys = np.sort(i * n + j)
        if (keys[1:] == keys[:-1]).any():  # equal neighbours: an edge stored twice
            raise ValueError("adjacency stores an edge twice: each edge must be one entry")
        if not (keys == np.sort(j * n + i)).all():
            raise ValueError("adjacency must be symmetric: a graph is undirected")
        if self.node_features.ndim != 2 or self.node_features.shape[0] != n:
            raise ValueError(
                f"node_features must be {n} x d, one row per node; got shape "
                f"{self.node_features.shape}"
            )

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
    """A batch of graphs as one disjoint union, with a padded dense copy.

    The model reads the union: ``edges`` lists every graph's edges over
    the stacked node rows, and its ``node_offsets`` cut ``features``, the
    graphs' node rows in batch order, into graphs. ``adjacency`` and
    ``node_mask`` are the same graphs zero-padded to the largest one
    (masked rows and columns are exactly zero); the model, ``size`` and
    ``node_counts`` do not read them. Build one with ``PaddedBatch.of``.
    """

    adjacency: np.ndarray  # B x N x N
    features: np.ndarray  # (sum of node counts) x d, the graphs' node rows stacked
    node_mask: np.ndarray  # B x N, leading ones
    labels: np.ndarray  # B
    indices: np.ndarray  # B source positions in the dataset
    edges: Edges  # the union's edge list

    @classmethod
    def of(cls, graphs, indices=None) -> PaddedBatch:
        """The batch of ``graphs``; ``indices`` are their dataset positions (default 0..B-1)."""
        b = len(graphs)
        n_max = max(g.node_count for g in graphs)
        adjacency = np.zeros((b, n_max, n_max))
        mask = np.zeros((b, n_max))
        for slot, g in enumerate(graphs):
            n = g.node_count
            adjacency[slot, :n, :n] = g.adjacency.toarray()
            mask[slot, :n] = 1.0
        return cls(
            adjacency=adjacency,
            features=np.concatenate([g.node_features for g in graphs]),
            node_mask=mask,
            labels=np.array([g.label for g in graphs], dtype=np.int64),
            indices=np.arange(b) if indices is None else np.array(indices, dtype=np.int64),
            edges=Edges([g.adjacency for g in graphs]),
        )

    @property
    def size(self) -> int:
        return self.labels.size

    def node_counts(self) -> np.ndarray:
        return np.diff(self.edges.node_offsets)


# ---------------------------------------------------------------------------
# TU-format loading
# ---------------------------------------------------------------------------

def _field_count(raw: bytes, per_line: int) -> int | None:
    """The number of whitespace-separated fields in ``raw``.

    None when a non-blank line holds another number than ``per_line``.
    The text goes in blocks of whole lines of about 64 KiB, so that its
    byte masks stay small and short-lived.
    """
    total, lo = 0, 0
    while lo < len(raw):
        hi = raw.find(b"\n", lo + (1 << 16)) + 1 or len(raw)
        byte = np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo)
        field_start, line_end = byte > ord(" "), byte == ord("\n")
        field_start[1:] &= ~field_start[:-1]  # a solid byte after a blank one starts a field
        # field starts and line ends in text order: count the starts before each end
        events = line_end[field_start | line_end]
        fields = np.diff(np.flatnonzero(events), prepend=-1, append=events.size) - 1
        if np.any((fields != 0) & (fields != per_line)):
            return None
        total, lo = total + int(fields.sum()), hi
    return total


def _read_int_rows(path: str, expected_cols: int) -> np.ndarray:
    """Parse whitespace/comma separated integer rows; blank lines are skipped.

    One C pass parses the whole text. Its values stand only if every
    non-blank line holds ``expected_cols`` fields, the pass read the text
    to its end and no value sits at an int64 limit (the pass clamps an
    overflow there); otherwise the line scan names the offending line.
    """
    with open(path, "rb") as fh:
        raw = fh.read().replace(b",", b" ")
    count = _field_count(raw, expected_cols)
    if count == 0:
        return np.zeros((0, expected_cols), dtype=np.int64)
    values = None
    if count is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy only warns about a short parse
            try:
                values = np.fromstring(raw, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                pass
    limit = np.iinfo(np.int64)
    if (values is not None and values.size == count
            and limit.min < values.min() and values.max() < limit.max):
        return values.reshape(-1, expected_cols)
    # malformed: name the first offending line
    name = os.path.basename(path)
    for lineno, line in enumerate(raw.split(b"\n"), 1):
        parts = line.split()
        if parts and len(parts) != expected_cols:
            raise DatasetFormatError(
                f"{name}:{lineno}: expected {expected_cols} fields, got {len(parts)}"
            )
        try:
            list(map(int, parts))
        except ValueError as exc:
            raise DatasetFormatError(f"{name}:{lineno}: non-integer field") from exc
    raise DatasetFormatError(f"{name}: fields must be decimal integers inside the int64 range")


def load_tu_dataset(root_path, name: str) -> Dataset:
    """Load a TU-format dataset directory.

    Node features are one-hot node labels when `<name>_node_labels.txt`
    exists, otherwise a single degree scalar normalised by the dataset's
    maximum degree. One-hot rows are bool, one byte per entry: either tape
    dtype casts 0 and 1 exactly, and DD's 89 labels make them most of the
    loaded dataset, at a quarter of float32's memory and an eighth of
    float64's. Degree scalars stay float64, since float32 would round their
    ratios. Every graph's features are a view of rows of one array.
    Adjacency is 0/1 and symmetrised; class labels are remapped to a
    contiguous range.
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
        features = np.zeros((num_nodes, len(label_values)), dtype=bool)
        features[np.arange(num_nodes), label_pos] = True
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

def batch_positions(
    ds: Dataset,
    batch_size: int,
    shuffle_seed: int | None = None,
    subset: np.ndarray | None = None,
) -> list[np.ndarray]:
    """The dataset positions of each batch of ``make_batches``, in batch order.

    ``subset`` lists dataset positions as a 1-D integer array (or a list of
    ints); a boolean mask or a float array raises ``ValueError`` rather than
    being read as positions 0 and 1 or truncated.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, Integral) or batch_size < 1:
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    if len(ds) == 0:
        raise ValueError("cannot batch an empty dataset")
    positions = np.arange(len(ds)) if subset is None else np.asarray(subset)
    if positions.ndim != 1:
        raise ValueError(f"subset must be 1-D dataset positions, got shape {positions.shape}")
    if positions.size == 0:
        raise ValueError("cannot batch an empty index subset")
    if positions.dtype.kind not in "iu":
        raise ValueError(f"subset must hold integer dataset positions, got dtype {positions.dtype}")
    positions = positions.astype(np.int64, copy=False)
    outside = (positions < 0) | (positions >= len(ds))
    if outside.any():
        raise ValueError(f"subset position {positions[outside][0]} outside [0, {len(ds)})")
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        positions = positions[rng.permutation(positions.size)]
    return np.split(positions, np.arange(batch_size, positions.size, batch_size))


def make_batches(
    ds: Dataset,
    batch_size: int,
    shuffle_seed: int | None = None,
    subset: np.ndarray | None = None,
) -> list[PaddedBatch]:
    """Partition a dataset (or a subset of its positions) into batches of disjoint unions."""
    return [PaddedBatch.of([ds.graphs[i] for i in chunk], chunk)
            for chunk in batch_positions(ds, batch_size, shuffle_seed, subset)]


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

    def text(self, size: int) -> str:
        at = self.pos
        try:
            return bytes(self.take(size)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.what} text at offset {at} is not UTF-8") from exc

    def array(self, dtype: str, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype).copy()

    def finish(self) -> None:
        extra = len(self.view) - self.pos
        if extra:
            raise self.error(f"{extra} trailing bytes after the {self.what}")


def _serialize_dataset(ds: Dataset, write) -> None:
    """Pass the canonical serialization to ``write`` one piece at a time.

    ``write`` must consume each piece before it returns: every graph's
    features pass through one buffer sized for the largest graph, not a
    fresh copy per graph.
    """
    write(DATASET_MAGIC)
    name_bytes = ds.name.encode("utf-8")
    write(struct.pack("<qqqq", 1, len(name_bytes), ds.num_classes, len(ds)))
    write(name_bytes)
    write(struct.pack("<q", ds.feature_dim))
    # features serialize as <f8 whatever their storage dtype, so bool one-hot
    # rows hash as their float64 values did
    buffer = np.empty(max((g.node_features.size for g in ds.graphs), default=0), dtype="<f8")
    for g in ds.graphs:
        # the CSR's stored entries in storage order, as (row, col, value) columns
        a = g.adjacency
        write(struct.pack("<qqq", g.node_count, g.label, a.nnz))
        write(np.repeat(np.arange(g.node_count, dtype="<i8"), np.diff(a.indptr)))
        write(np.ascontiguousarray(a.indices, dtype="<i8"))
        write(np.ascontiguousarray(a.data, dtype="<f8"))
        rows = buffer[:g.node_features.size].reshape(g.node_features.shape)
        np.copyto(rows, g.node_features)
        write(rows)


def dataset_hash(ds: Dataset) -> str:
    """Content hash over the canonical serialization."""
    digest = hashlib.sha256()
    _serialize_dataset(ds, digest.update)
    return digest.hexdigest()
