"""Shared fixtures: float64 tapes, synthetic TU-format datasets, tiny graph
factories, and a backward-pass fault for negative controls."""

import numpy as np
import pytest
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool.data import Batch, Dataset, load_tu_dataset
from simpool.layers import Edges


@pytest.fixture(autouse=True)
def float64_tape():
    """Run every test on a float64 tape.

    The oracles compare at 1e-12 and finite differences need float64, so
    tests build their tensors, models and batches in float64; a test of
    float32 training opens ``ad.precision(np.float32)`` itself.
    """
    with ad.precision(np.float64):
        yield


def write_tu_dataset(root, name, graphs, graph_labels, node_labels=None):
    """Write TU-format text files for a list of dense adjacency matrices.

    `graphs` is a list of (n, n) 0/1 arrays; undirected edges are emitted
    in both directions, matching the common convention.
    """
    root.mkdir(parents=True, exist_ok=True)
    edge_lines = []
    indicator_lines = []
    offset = 0
    for gid, adj in enumerate(graphs, start=1):
        n = adj.shape[0]
        for i in range(n):
            indicator_lines.append(str(gid))
            for j in range(n):
                if adj[i, j] != 0:
                    edge_lines.append(f"{offset + i + 1}, {offset + j + 1}")
        offset += n
    (root / f"{name}_A.txt").write_text("\n".join(edge_lines) + "\n")
    (root / f"{name}_graph_indicator.txt").write_text("\n".join(indicator_lines) + "\n")
    (root / f"{name}_graph_labels.txt").write_text(
        "\n".join(str(l) for l in graph_labels) + "\n"
    )
    if node_labels is not None:
        (root / f"{name}_node_labels.txt").write_text(
            "\n".join(str(l) for l in node_labels) + "\n"
        )
    return root


def ring_graph(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def clique_pair_graph(m):
    """Two m-cliques joined by a single bridge edge."""
    n = 2 * m
    a = np.zeros((n, n))
    a[:m, :m] = 1.0
    a[m:, m:] = 1.0
    np.fill_diagonal(a, 0.0)
    a[m - 1, m] = a[m, m - 1] = 1.0
    return a


def random_graph(rng, n, p):
    a = (rng.random((n, n)) < p).astype(np.float64)
    a = np.triu(a, 1)
    return a + a.T


@pytest.fixture
def toy_dataset(tmp_path):
    """Ten small graphs, two structurally distinct classes, node labels."""
    rng = np.random.default_rng(99)
    graphs, labels, node_labels = [], [], []
    for i in range(10):
        if i % 2 == 0:
            g = ring_graph(int(rng.integers(5, 9)))
            labels.append(1)
        else:
            g = clique_pair_graph(int(rng.integers(3, 5)))
            labels.append(2)
        graphs.append(g)
        node_labels.extend(int(d) for d in g.sum(axis=1))
    root = write_tu_dataset(tmp_path / "TOY", "TOY", graphs, labels, node_labels)
    return load_tu_dataset(root, "TOY")


def separable_dataset(tmp_path, count=60, seed=5):
    """Rings vs bridged cliques: separable by structure and degree."""
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(count):
        if i % 2 == 0:
            graphs.append(ring_graph(int(rng.integers(6, 13))))
            labels.append(0)
        else:
            graphs.append(clique_pair_graph(int(rng.integers(3, 6))))
            labels.append(1)
    root = write_tu_dataset(tmp_path / "SEP", "SEP", graphs, [l + 1 for l in labels])
    return load_tu_dataset(root, "SEP")


def mixed_dataset(tmp_path):
    """Five graphs of five sizes, three features; the 7-node graph is a
    6-ring plus an isolated node, and the 4-node one has no edges."""
    rng = np.random.default_rng(15)
    ring = np.zeros((7, 7))
    for i in range(6):
        ring[i, (i + 1) % 6] = ring[(i + 1) % 6, i] = 1.0
    graphs = [random_graph(rng, n, 0.5) for n in (5, 9, 12)] + [ring, np.zeros((4, 4))]
    node_labels = rng.integers(1, 4, size=sum(g.shape[0] for g in graphs))
    root = write_tu_dataset(tmp_path / "MIX", "MIX", graphs, [1, 2, 3, 2, 1], node_labels)
    ds = load_tu_dataset(root, "MIX")
    assert ds.graphs[3].adjacency.toarray()[6].sum() == 0 and ds.graphs[4].adjacency.nnz == 0
    assert ds.feature_dim == 3
    return ds


def many_label_dataset(tmp_path):
    """Three random graphs whose nodes carry 62 distinct labels of 89."""
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, n, 0.3) for n in (30, 12, 50)]
    node_labels = rng.integers(1, 90, size=sum(g.shape[0] for g in graphs))
    root = write_tu_dataset(tmp_path / "MANY", "MANY", graphs, [1, 2, 1], node_labels)
    ds = load_tu_dataset(root, "MANY")
    assert ds.feature_dim == np.unique(node_labels).size == 62
    return ds


def dataset_of(graphs, num_classes=None, name="GRAPHS"):
    """A ``Dataset`` of ``graphs``, (adjacency, node feature rows, label) triples.

    The adjacencies are dense or sparse; their block-diagonal union and the
    stacked rows go through the one ``Dataset`` constructor and its checks.
    ``num_classes`` defaults to the largest label plus one.
    """
    blocks, features, labels = zip(*graphs)
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    return Dataset(name, sp.block_diag([sp.csr_matrix(b) for b in blocks], format="csr"),
                   offsets, np.concatenate(features), labels,
                   max(labels) + 1 if num_classes is None else num_classes)


def batch_of(graphs):
    """The ``Batch`` of all of ``graphs``, triples as ``dataset_of`` takes them."""
    return Batch.of(dataset_of(graphs), np.arange(len(graphs)))


def union_edges(blocks):
    """The ``Edges`` of undirected ``blocks`` as ``Batch.of`` cuts them from a dataset of them."""
    return batch_of([(b, np.zeros((b.shape[0], 1)), 0) for b in blocks]).edges


def raw_edges(blocks):
    """``Edges`` over the block diagonal of square 0/1 ``blocks``, taken as they are.

    No ``Dataset`` checks the blocks, so one may be directed: for
    ``ad.edge_aggregate``, which serves any 0/1 block, and for oracles
    that read one graph's matrix. Undirected unions go through
    ``dataset_of`` and ``batch_of``, or ``union_edges``.
    """
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    return Edges(sp.block_diag([sp.csr_matrix(b) for b in blocks], format="csr"), offsets)


def row_store(ds, dtype=np.float64):
    """``ds`` rebuilt with its node features as ``dtype`` rows, one-hot rows for a label column.

    A row store takes the per-edge path of the first GMN propagation, so it
    is the reference for a label column's label-pair path.
    """
    everything = np.arange(len(ds))
    return Dataset(ds.name, ds.union(everything)[0], ds.node_offsets,
                   ds.node_rows(everything).astype(dtype), ds.graph_labels, ds.num_classes,
                   metadata=dict(ds.metadata))


@pytest.fixture
def corrupt_backward(monkeypatch):
    """Return ``corrupt(op, scale)``: scale the gradient entering every
    backward closure of primitive ``op`` recorded from then on.

    It wraps ``autodiff._record``, the hook every primitive records its
    backward closure through; ``monkeypatch`` restores it after the test.
    """

    def corrupt(op: str, scale: float = 2.0) -> None:
        original = ad._record

        def record(op_name, out, parents, backward):
            if op_name == op:
                clean = backward
                backward = lambda g: clean(g * scale)
            return original(op_name, out, parents, backward)

        monkeypatch.setattr(ad, "_record", record)

    return corrupt
