"""Graph-classification datasets: one store of arrays, and the graphs and batches cut from it.

Datasets arrive as TU-style text files (1-based edge list, graph
indicator, graph labels, optional node labels). A ``Dataset`` is one
store of arrays, checked once when it is built:

- ``indptr`` and int32 ``indices``: the CSR pattern of the whole
  dataset's adjacency, symmetric and block diagonal over its graphs. It
  has no ``data`` array: every stored position is an edge of weight 1.
- ``node_offsets``: graph g owns nodes ``node_offsets[g]:node_offsets[g + 1]``.
- ``graph_labels``: one int64 class per graph.
- ``node_features``: the node-label column in the smallest unsigned
  dtype, read as one-hot bool rows (the tape casts 0 and 1 exactly to its
  own dtype); or rows: the degree scalar in float64, whose ratios float32
  would round, or whatever rows the dataset was built from.

A graph (``Graph``) and a batch (``Batch``) are cut from the store when
they are asked for, through ``Dataset.union`` and ``Dataset.node_rows``,
and trust its checks. The content hash (``dataset_hash``) is the sha256
of the store itself: a header, then ``node_offsets``, ``graph_labels``,
``indptr``, ``indices`` and the label column or rows, each whole in one
fixed little-endian dtype, so that it does not depend on the storage
dtypes.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import struct
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .layers import Edges

__all__ = [
    "Graph",
    "Dataset",
    "Batch",
    "PaddedBatch",
    "DatasetFormatError",
    "DatasetIntegrityError",
    "load_tu_dataset",
    "batch_positions",
    "make_batches",
    "kfold_split",
    "dataset_hash",
]

DATASET_MAGIC = b"SPG2"


class DatasetFormatError(ValueError):
    """A mandatory dataset file is missing or unparseable."""


class DatasetIntegrityError(ValueError):
    """Dataset files are present but internally inconsistent."""


def _checked_pattern(adjacency, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted CSR pattern of a square 0/1 ``adjacency``, checked to be undirected graphs.

    A stored zero is no edge. No edge may be stored twice, go one way only,
    or join two of the graphs whose node ``counts`` cut the matrix.
    """
    if np.any((adjacency.data != 0) & (adjacency.data != 1)):
        raise ValueError("adjacency entries must be 0 or 1")
    if not adjacency.data.all():  # the caller's matrix keeps its stored zeros
        adjacency = adjacency.copy()
        adjacency.eliminate_zeros()
    if not adjacency.has_sorted_indices:
        adjacency = adjacency.sorted_indices()
    indptr, indices = adjacency.indptr, adjacency.indices
    # in sorted rows an edge stored twice is a neighbour equal to the one before it
    twice = indices[1:] == indices[:-1]
    starts = indptr[1:-1]
    twice[starts[(0 < starts) & (starts < indices.size)] - 1] = False
    if twice.any():
        raise ValueError("adjacency stores an edge twice: each edge must be one entry")
    # the pattern read by columns is A^T; converted to rows, it comes sorted
    n = indptr.size - 1
    transpose = sp.csc_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                              shape=(n, n)).tocsr()
    if not (np.array_equal(transpose.indptr, indptr)
            and np.array_equal(transpose.indices, indices)):
        raise ValueError("adjacency must be symmetric: a graph is undirected")
    graph_of = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    crosses = np.repeat(graph_of, np.diff(indptr)) != graph_of[indices]
    if crosses.any():
        entry = int(np.argmax(crosses))
        row = int(np.searchsorted(indptr, entry, side="right")) - 1
        raise DatasetIntegrityError(f"edge ({row}, {indices[entry]}) crosses graph "
                                    f"boundaries (nodes counted from 0)")
    return indptr, indices


class Dataset:
    """Labelled undirected graphs sharing a feature space, as one store of arrays.

    ``adjacency`` is the N x N matrix of every graph, a scipy sparse matrix
    or array in CSR format, and ``node_offsets`` (0 to N, at least one node
    per graph) cut it into graphs. Every stored entry is 0 or 1, and a
    stored zero is no edge. No edge is stored twice, joins two graphs or
    goes one way only: a graph is its undirected structure. The model
    relies on it throughout: ``layers.Edges`` reads A as A^T, the
    similarity Gram is Ahat Ahat, and stage 1's tanh(S^T A S) is symmetric
    only when A is. ``node_features`` holds N x d rows in a float or bool
    dtype, or a column of N unsigned node labels, which read as one-hot
    bool rows as wide as the largest label plus one. ``labels`` holds one
    class in [0, num_classes) per graph.

    All of this is checked here, once, on the whole matrix; the offsets,
    the labels and ``num_classes`` must be integers, not floats or bools.
    The store keeps its own copies of what it checked: the matrix's pattern
    (``indptr`` and int32 ``indices``, no ``data``), the offsets, the
    labels as int64 ``graph_labels`` and the features in their dtype, and
    everything cut from it trusts them.
    """

    def __init__(self, name: str, adjacency, node_offsets, node_features, labels,
                 num_classes: int, metadata: dict | None = None):
        if not (sp.issparse(adjacency) and adjacency.format == "csr"):
            kind = type(adjacency).__name__
            kind = (f"{kind} in {adjacency.format.upper()} format"
                    if sp.issparse(adjacency) else f"dense {kind}")
            raise TypeError(f"adjacency must be a scipy sparse matrix or array in CSR "
                            f"format, got {kind}")
        n, cols = adjacency.shape
        if n != cols:
            raise ValueError(f"adjacency must be square, got {adjacency.shape}")
        offsets = integer_array("node_offsets", node_offsets).astype(np.int64)
        if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0 or offsets[-1] != n:
            raise ValueError(f"node offsets must rise from 0 to {n}, got {offsets.tolist()}")
        counts = np.diff(offsets)
        if np.any(counts < 1):
            raise ValueError("graph must have at least one node")
        indptr, indices = _checked_pattern(adjacency, counts)
        features = np.array(node_features, order="C")
        if not (features.ndim == 2 and features.shape[0] == n
                or features.ndim == 1 and features.size == n and features.dtype.kind == "u"):
            raise ValueError(
                f"node_features must be {n} x d, one row per node, or a column of {n} "
                f"unsigned node labels; got shape {features.shape}"
            )
        if features.ndim == 2 and features.dtype.kind not in "fb":
            raise ValueError(f"node_features rows must be float or bool, "
                             f"got dtype {features.dtype}")
        require_integer("num_classes", num_classes, 1)
        labels = integer_array("labels", labels).astype(np.int64).reshape(-1)
        if labels.size != counts.size:
            raise ValueError(f"{counts.size} graphs need one label each, got {labels.size}")
        outside = (labels < 0) | (labels >= num_classes)
        if outside.any():
            raise DatasetIntegrityError(f"label {labels[outside][0]} outside [0, {num_classes})")

        self.name = name
        # copies: a pattern that scipy cut from a longer array would keep all of it alive
        self.indptr = indptr.copy()
        self.indices = indices.astype(np.int32)
        self.node_offsets = offsets
        self.graph_labels = labels
        self.node_features = features
        self.feature_dim = (features.shape[1] if features.ndim == 2
                            else int(features.max()) + 1 if n else 0)
        self.num_classes = int(num_classes)
        self.metadata = {} if metadata is None else metadata

    def __len__(self) -> int:
        return self.graph_labels.size

    @property
    def graphs(self) -> tuple[Graph, ...]:
        """One ``Graph`` view per graph, each building its arrays whenever they are read."""
        return tuple(Graph(self, i) for i in range(len(self)))

    def labels(self) -> np.ndarray:
        return self.graph_labels.copy()

    def _node_ranges(self, positions) -> list[tuple[int, int]]:
        """The [lo, hi) node range of each run of consecutive graphs in ``positions``.

        Every cut passes here, so every cut checks that its positions are integers.
        """
        p = integer_array("graph positions", positions).reshape(-1)
        if p.size == 0 or p.min() < 0 or p.max() >= len(self):
            raise IndexError(f"graph positions must be one or more of [0, {len(self)})")
        cuts = np.flatnonzero(np.diff(p) != 1) + 1
        first, end = p[np.r_[0, cuts]], p[np.r_[cuts - 1, p.size - 1]] + 1
        return list(zip(self.node_offsets[first].tolist(), self.node_offsets[end].tolist()))

    def union(self, positions, dtype=np.float64) -> tuple[sp.csr_matrix, np.ndarray]:
        """The disjoint union of the graphs at ``positions``, in that order, and its node offsets.

        The union is a square CSR with a one in ``dtype`` at each edge. Each
        run of consecutive positions is one slice of the store, shifted to
        its place: consecutive positions cut one slice, and any others join
        their slices in one concatenation. This is the one constructor of
        every matrix cut from the store, and it trusts the store's checks:
        scipy checks only the arrays' lengths and dtypes, and the matrix is
        marked canonical, so nothing sorts or sums it again.
        """
        indptr, indices, nodes, stored = [], [], 0, 0
        for k, (lo, hi) in enumerate(self._node_ranges(positions)):
            p0, p1 = int(self.indptr[lo]), int(self.indptr[hi])
            indptr.append(self.indptr[lo + (k > 0):hi + 1] - (p0 - stored))
            indices.append(self.indices[p0:p1] - (lo - nodes))
            nodes, stored = nodes + hi - lo, stored + p1 - p0
        union = sp.csr_matrix((np.ones(stored, dtype=dtype), np.concatenate(indices),
                               np.concatenate(indptr)), shape=(nodes, nodes))
        union.has_canonical_format = True
        p = np.asarray(positions)
        counts = self.node_offsets[p + 1] - self.node_offsets[p]
        return union, np.concatenate([[0], np.cumsum(counts)])

    def node_rows(self, positions) -> np.ndarray:
        """The node feature rows of the graphs at ``positions``, stacked in that order.

        A new array: one-hot bool rows built from the label column, or a
        copy of the stored rows.
        """
        parts = [self.node_features[lo:hi] for lo, hi in self._node_ranges(positions)]
        stacked = np.concatenate(parts)
        if stacked.ndim == 2:
            return stacked
        onehot = np.zeros((stacked.size, self.feature_dim), dtype=bool)
        onehot[np.arange(stacked.size), stacked] = True
        return onehot


class Graph:
    """Graph ``position`` of a ``Dataset``: a view that holds no arrays.

    ``adjacency`` is the graph's own CSR, rows and columns counted from
    its first node, with a float64 one at each edge; ``node_features`` its
    rows as ``Dataset.node_rows`` gives them (one-hot bool rows from a
    label column); ``label`` its class. Each is built from the store every
    time it is read, and checked nowhere: the store was checked when it was
    built. So a loop over ``Dataset.graphs`` holds one graph's arrays at a
    time, not a copy of the dataset. ``position`` must be an integer in
    [0, len(dataset)): the constructor checks it as every cut of the store
    does, so that no property reads another graph or a negative count.
    """

    def __init__(self, dataset: Dataset, position: int):
        dataset._node_ranges([position])
        self.dataset = dataset
        self.position = position

    @property
    def adjacency(self) -> sp.csr_matrix:
        return self.dataset.union([self.position])[0]

    @property
    def node_features(self) -> np.ndarray:
        return self.dataset.node_rows([self.position])

    @property
    def label(self) -> int:
        return int(self.dataset.graph_labels[self.position])

    @property
    def node_count(self) -> int:
        offsets = self.dataset.node_offsets
        return int(offsets[self.position + 1] - offsets[self.position])


@dataclass(frozen=True)
class Batch:
    """A batch of graphs as one disjoint union: what the model reads.

    ``edges`` lists every graph's edges over the stacked node rows, and its
    ``node_offsets`` cut ``features``, the graphs' node rows in batch
    order (one-hot bool rows built once per batch from a label column),
    into graphs. ``Batch.of`` cuts one from a dataset's store.
    """

    features: np.ndarray  # (sum of node counts) x d, the graphs' node rows stacked
    labels: np.ndarray  # B
    indices: np.ndarray  # B source positions in the dataset
    edges: Edges  # the union's edge list

    @classmethod
    def of(cls, dataset: Dataset, positions) -> Batch:
        """The union of the graphs at dataset ``positions``, its edges in ``ad.tape_dtype()``."""
        adjacency, offsets = dataset.union(positions, ad.tape_dtype())
        positions = np.array(positions, dtype=np.int64)  # integers: the union checked them
        return cls(
            features=dataset.node_rows(positions),
            labels=dataset.graph_labels[positions],
            indices=positions,
            edges=Edges(adjacency, offsets),
        )

    @property
    def size(self) -> int:
        return self.labels.size

    def node_counts(self) -> np.ndarray:
        return np.diff(self.edges.node_offsets)


# numpy's huge-page threshold: numpy advises transparent huge pages
# (madvise MADV_HUGEPAGE) for every buffer of 4 MiB or more. Below it numpy
# gives none, and glibc reuses heap pages, so smaller buffers stay np.zeros.
HUGE_PAGE_ADVICE_BYTES = 4 << 20


def _zeros_committed_on_write(shape: tuple[int, ...]) -> np.ndarray:
    """float64 zeros of ``shape`` in C order whose 4 KiB pages become resident when written.

    From ``HUGE_PAGE_ADVICE_BYTES`` up they are a private anonymous mapping
    advised against huge pages. It reserves its address space in full, as
    ``calloc`` does, so a shape over an ``RLIMIT_AS`` cap raises
    ``MemoryError`` here.
    """
    nbytes = math.prod(shape) * np.dtype(np.float64).itemsize
    if nbytes < HUGE_PAGE_ADVICE_BYTES:
        return np.zeros(shape)
    try:
        # MAP_PRIVATE: the default flags make a shared (shmem) mapping, slower to fault in
        buffer = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as error:
        raise MemoryError(f"cannot reserve {nbytes} bytes for a float64 array of shape "
                          f"{shape}: {error}") from error
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # so that THP mode "always" behaves as "madvise"
        try:
            buffer.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:  # a kernel without transparent huge pages rejects the advice
            pass
    return np.frombuffer(buffer, dtype=np.float64).reshape(shape)


@dataclass(frozen=True)
class PaddedBatch(Batch):
    """A ``Batch`` with a dense copy of its graphs, zero-padded to the largest one.

    ``adjacency`` is B x N x N float64 and ``node_mask`` B x N; masked rows
    and columns are exactly zero. Nothing in the package reads them: their
    only readers are the benchmark's batch hook
    (``bench/spans.py::_make_batches_hook``) and its capped-memory test,
    which needs the padded allocation to fail. The benchmark change that
    deletes the padded batch (ROADMAP item 8) deletes this subclass.

    Memory: ``adjacency`` reserves its whole B N^2 x 8 bytes of address
    space, so a batch over an address-space cap raises ``MemoryError`` when
    it is built, but only the 4 KiB pages its edges are written to become
    resident. From numpy it would get huge-page advice (every buffer of 4
    MiB or more), and under THP mode ``madvise`` each 2 MiB region a sparse
    scatter touched would be a whole zeroed huge page: 104 MiB for a
    20-graph batch holding a 3,000-node ring, against 13 MB on 4 KiB pages.
    """

    adjacency: np.ndarray  # B x N x N
    node_mask: np.ndarray  # B x N, leading ones

    @classmethod
    def of(cls, dataset: Dataset, positions) -> PaddedBatch:
        """``Batch.of(dataset, positions)`` with the padded copy, written from its edge list."""
        union = Batch.of(dataset, positions)
        counts, edges = union.node_counts(), union.edges
        slot = np.repeat(np.arange(counts.size), counts)
        local = np.arange(edges.node_count) - np.repeat(edges.node_offsets[:-1], counts)
        n = int(counts.max())
        adjacency = _zeros_committed_on_write((counts.size, n, n))
        mask = np.zeros((counts.size, n))
        adjacency[slot[edges.senders], local[edges.senders], local[edges.receivers]] = 1.0
        mask[slot, local] = 1.0
        return cls(**vars(union), adjacency=adjacency, node_mask=mask)


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
    """Load a TU-format dataset directory into one ``Dataset`` store.

    Node features are the node-label column when `<name>_node_labels.txt`
    exists: each node's label, as its position among the sorted distinct
    labels, in the smallest unsigned dtype (one byte per node for DD's 89
    labels), read as one-hot rows. Otherwise they are a single degree
    scalar normalised by the dataset's maximum degree, in float64, since
    float32 would round its ratios. Edges listed twice or in one direction
    only become one symmetric 0/1 pattern; class labels are remapped to a
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
    offsets = np.concatenate([[0], np.cumsum(np.bincount(indicator)[1:])])

    if edges.size and (edges.min() < 1 or edges.max() > num_nodes):
        raise DatasetIntegrityError("edge endpoint outside the node id range")
    node_labels = None
    if os.path.isfile(path_of("node_labels")):
        node_labels = _read_int_rows(path_of("node_labels"), 1).reshape(-1)
        if node_labels.shape[0] != num_nodes:
            raise DatasetIntegrityError("node label count differs from node count")

    # one matrix for the whole file: bool entries sum duplicate listings to True,
    # and the maximum with the transpose adds each edge's missing direction
    src, dst = edges.T - 1
    adj = sp.coo_matrix((np.ones(src.size, dtype=bool), (src, dst)),
                        shape=(num_nodes, num_nodes)).tocsr()
    adj = adj.maximum(adj.T)
    if node_labels is not None:
        label_values, label_pos = np.unique(node_labels, return_inverse=True)
        features = label_pos.astype(np.min_scalar_type(label_values.size - 1))
    else:
        degrees = np.diff(adj.indptr)
        features = (degrees / max(degrees.max(), 1.0)).reshape(num_nodes, 1)
    class_values, classes = np.unique(graph_labels_raw, return_inverse=True)

    ds = Dataset(name, adj, offsets, features, classes, len(class_values), metadata={
        "feature_kind": "node_label_onehot" if node_labels is not None else "degree_scalar",
        "source": root,
    })
    ds.metadata["content_hash"] = dataset_hash(ds)
    return ds


# ---------------------------------------------------------------------------
# batching and splits
# ---------------------------------------------------------------------------

def require_integer(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``least``.

    A bool is not an integer here, nor is a float with an integral value.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def integer_array(name: str, values, what: str = "integers") -> np.ndarray:
    """``values`` as an array; ``ValueError`` naming ``name`` unless its dtype is an integer one.

    ``require_integer`` for arrays, before any cast would turn a bool mask
    into 0s and 1s or truncate floats. An empty array passes in any dtype.
    """
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold {what}, got dtype {array.dtype}")
    return array


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
    require_integer("batch_size", batch_size, 1)
    if len(ds) == 0:
        raise ValueError("cannot batch an empty dataset")
    positions = (np.arange(len(ds)) if subset is None
                 else integer_array("subset", subset, "integer dataset positions"))
    if positions.ndim != 1:
        raise ValueError(f"subset must be 1-D dataset positions, got shape {positions.shape}")
    if positions.size == 0:
        raise ValueError("cannot batch an empty index subset")
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
    """Partition a dataset (or a subset of its positions) into padded batches.

    Training, evaluation and the gradient checks build plain ``Batch``es
    from ``batch_positions``. The padded batches this returns are read
    only by the benchmark: its batch hook (``bench/spans.py::_make_batches_hook``)
    and its capped-memory test. The benchmark change that deletes
    ``PaddedBatch`` (ROADMAP item 8) makes this return ``Batch``.

    Each padded ``adjacency`` reserves its address space in full and
    commits only the 4 KiB pages its edges are written to (see
    ``PaddedBatch``): numpy would advise huge pages for it, and under THP
    mode ``madvise`` a sparse scatter would then commit whole zeroed 2 MiB
    pages. A batch past an address-space cap raises ``MemoryError``.
    """
    return [PaddedBatch.of(ds, chunk)
            for chunk in batch_positions(ds, batch_size, shuffle_seed, subset)]


def kfold_split(ds: Dataset, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold split: disjoint validation folds covering the dataset.

    Overall fold sizes differ by at most one, and so does each class's
    histogram across folds (items are dealt to folds round-robin with a
    pointer that carries over between classes).
    """
    require_integer("folds", folds, 2)
    require_integer("seed", seed, 0)
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
# the dataset content hash (checkpoints are numpy .npz archives: model.save_checkpoint)
# ---------------------------------------------------------------------------

def dataset_hash(ds: Dataset) -> str:
    """The sha256 of the store, in hex: the content hash a cached fold or checkpoint is checked against.

    The digest reads ``DATASET_MAGIC`` (``SPG2``); a ``<qqqqq`` header of
    the name's length in bytes, ``num_classes``, the graph count,
    ``feature_dim``, and 1 for a node-label column or 0 for rows; the
    UTF-8 name; then ``node_offsets``, ``graph_labels`` and ``indptr`` as
    ``<i8``, ``indices`` as ``<i4``, and the label column as ``<u8`` or
    the rows as ``<f8``. The counts in the header fix every array's length.
    Each array goes to sha256 whole, in its fixed dtype, so that the
    digest does not depend on the storage dtype: only an array stored in
    another dtype (the label column, an int32 ``indptr``, bool rows) is
    cast, and nothing is expanded to one-hot rows or cut per graph.
    """
    digest = hashlib.sha256(DATASET_MAGIC)
    name = ds.name.encode("utf-8")
    column = ds.node_features.ndim == 1
    digest.update(struct.pack("<qqqqq", len(name), ds.num_classes, len(ds), ds.feature_dim,
                              column))
    digest.update(name)
    for array, dtype in ((ds.node_offsets, "<i8"), (ds.graph_labels, "<i8"), (ds.indptr, "<i8"),
                         (ds.indices, "<i4"), (ds.node_features, "<u8" if column else "<f8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype))
    return digest.hexdigest()
