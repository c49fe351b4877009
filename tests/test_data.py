"""Tests for dataset loading, batching, folds, and the content hash."""

import dataclasses
import errno
import mmap
import os
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from simpool.data import (
    HUGE_PAGE_ADVICE_BYTES,
    Batch,
    Dataset,
    DatasetFormatError,
    DatasetIntegrityError,
    Graph,
    PaddedBatch,
    _read_int_rows,
    batch_positions,
    dataset_hash,
    kfold_split,
    load_tu_dataset,
    make_batches,
)

from conftest import (
    dataset_of,
    row_store,
    many_label_dataset,
    mixed_dataset,
    random_graph,
    ring_graph,
    separable_dataset,
    write_tu_dataset,
)
from oracles import tu_graphs_one_by_one


def sparse_ring(n):
    """The n-node ring as a CSR matrix, with no dense n x n copy."""
    i = np.arange(n)
    j = (i + 1) % n
    return sp.csr_matrix((np.ones(2 * n), (np.r_[i, j], np.r_[j, i])), shape=(n, n))


def rings(*sizes):
    return dataset_of([(sparse_ring(n), np.ones((n, 1)), 0) for n in sizes], name="RINGS")


def is_symmetric(graph):
    return (graph.adjacency != graph.adjacency.T).nnz == 0


class TestLoader:
    def test_single_edge_dataset(self, tmp_path):
        root = tmp_path / "MINI"
        root.mkdir()
        (root / "MINI_A.txt").write_text("1, 2\n")
        (root / "MINI_graph_indicator.txt").write_text("1\n1\n")
        (root / "MINI_graph_labels.txt").write_text("1\n")
        ds = load_tu_dataset(root, "MINI")
        assert len(ds) == 1
        assert ds.num_classes == 1
        g = ds.graphs[0]
        assert g.node_count == 2
        a = g.adjacency.toarray()
        assert a[0, 1] == 1.0 and a[1, 0] == 1.0
        assert is_symmetric(g)

    def test_one_directional_edges_are_symmetrised(self, tmp_path):
        root = tmp_path / "DIR"
        root.mkdir()
        (root / "DIR_A.txt").write_text("1, 2\n2, 3\n")
        (root / "DIR_graph_indicator.txt").write_text("1\n1\n1\n")
        (root / "DIR_graph_labels.txt").write_text("1\n")
        ds = load_tu_dataset(root, "DIR")
        assert is_symmetric(ds.graphs[0])
        assert ds.graphs[0].adjacency.nnz == 4

    def test_node_labels_become_onehot(self, toy_dataset, tmp_path):
        # the store keeps one byte per node, the label's position; a graph reads
        # its one-hot rows as bool, one byte per entry
        for ds in (toy_dataset, many_label_dataset(tmp_path)):
            assert ds.metadata["feature_kind"] == "node_label_onehot"
            assert ds.node_features.dtype == np.uint8
            assert ds.node_features.shape == (ds.node_offsets[-1],)
            rows = [g.node_features for g in ds.graphs]
            assert all(f.dtype == np.bool_ and f.shape == (g.node_count, ds.feature_dim)
                       for f, g in zip(rows, ds.graphs))
            feats = np.vstack(rows)
            assert set(np.unique(feats)) <= {0.0, 1.0}
            np.testing.assert_array_equal(feats.sum(axis=1), np.ones(len(feats)))
            np.testing.assert_array_equal(feats.argmax(axis=1), ds.node_features)

    def test_degree_features_without_node_labels(self, tmp_path):
        graphs = [ring_graph(5), ring_graph(7)]
        root = write_tu_dataset(tmp_path / "DEG", "DEG", graphs, [1, 2])
        ds = load_tu_dataset(root, "DEG")
        assert ds.metadata["feature_kind"] == "degree_scalar"
        assert ds.feature_dim == 1
        # every ring node has degree 2 == dataset max degree
        for g in ds.graphs:
            assert g.node_features.dtype == np.float64  # float32 would round degree ratios
            np.testing.assert_array_equal(g.node_features, np.ones((g.node_count, 1)))

    def test_labels_remapped_contiguous(self, tmp_path):
        graphs = [ring_graph(4), ring_graph(5), ring_graph(6)]
        root = write_tu_dataset(tmp_path / "REMAP", "REMAP", graphs, [7, -2, 7])
        ds = load_tu_dataset(root, "REMAP")
        assert ds.num_classes == 2
        assert [g.label for g in ds.graphs] == [1, 0, 1]

    def test_missing_file_raises_format_error(self, tmp_path):
        root = tmp_path / "BROKEN"
        root.mkdir()
        (root / "BROKEN_A.txt").write_text("1, 2\n")
        with pytest.raises(DatasetFormatError):
            load_tu_dataset(root, "BROKEN")

    def test_cross_graph_edge_rejected(self, tmp_path):
        root = tmp_path / "XG"
        root.mkdir()
        (root / "XG_A.txt").write_text("1, 3\n")
        (root / "XG_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (root / "XG_graph_labels.txt").write_text("1\n2\n")
        with pytest.raises(DatasetIntegrityError):
            load_tu_dataset(root, "XG")

    def test_non_contiguous_indicator_rejected(self, tmp_path):
        root = tmp_path / "NC"
        root.mkdir()
        (root / "NC_A.txt").write_text("1, 2\n")
        (root / "NC_graph_indicator.txt").write_text("1\n2\n1\n2\n")
        (root / "NC_graph_labels.txt").write_text("1\n2\n")
        with pytest.raises(DatasetIntegrityError):
            load_tu_dataset(root, "NC")

    def test_edge_out_of_range_rejected(self, tmp_path):
        root = tmp_path / "OOR"
        root.mkdir()
        (root / "OOR_A.txt").write_text("1, 99\n")
        (root / "OOR_graph_indicator.txt").write_text("1\n1\n")
        (root / "OOR_graph_labels.txt").write_text("1\n")
        with pytest.raises(DatasetIntegrityError):
            load_tu_dataset(root, "OOR")

    def test_blank_lines_skipped(self, tmp_path):
        root = tmp_path / "BL"
        root.mkdir()
        (root / "BL_A.txt").write_text("\n1, 2\n\n  \n2,3\n")
        (root / "BL_graph_indicator.txt").write_text("1\n1\n\n1\n")
        (root / "BL_graph_labels.txt").write_text("1\n\n")
        ds = load_tu_dataset(root, "BL")
        assert ds.graphs[0].node_count == 3
        assert ds.graphs[0].adjacency.nnz == 4

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        root = tmp_path / "COLS"
        root.mkdir()
        # every row has three fields, so only the column count is wrong
        (root / "COLS_A.txt").write_text("\n1, 2, 1\n2, 1, 1\n")
        (root / "COLS_graph_indicator.txt").write_text("1\n1\n")
        (root / "COLS_graph_labels.txt").write_text("1\n")
        with pytest.raises(DatasetFormatError, match=r"COLS_A\.txt:2: expected 2 fields, got 3"):
            load_tu_dataset(root, "COLS")
        (root / "COLS_A.txt").write_text("1, 2\n\n2, 1, 1\n")
        with pytest.raises(DatasetFormatError, match=r"COLS_A\.txt:3: expected 2 fields, got 3"):
            load_tu_dataset(root, "COLS")

    def test_non_integer_field_names_file_and_line(self, tmp_path):
        root = tmp_path / "NI"
        root.mkdir()
        (root / "NI_A.txt").write_text("1, 2\n2, 1\n")
        (root / "NI_graph_labels.txt").write_text("1\n")
        for bad in ("1.0", "x"):
            (root / "NI_graph_indicator.txt").write_text(f"1\n\n{bad}\n")
            with pytest.raises(DatasetFormatError, match=r"NI_graph_indicator\.txt:3: non-integer field"):
                load_tu_dataset(root, "NI")

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        root = write_tu_dataset(tmp_path / "B", "B", [ring_graph(3)], [1], [1, 2, 1])
        (root / "B_graph_indicator.txt").write_bytes(b"1\n1\n\xff\n")
        with pytest.raises(DatasetFormatError, match=r"B_graph_indicator\.txt:3: non-integer field"):
            load_tu_dataset(root, "B")
        (root / "B_graph_indicator.txt").write_bytes(b"1\n1\n1\n")
        (root / "B_node_labels.txt").write_bytes(b"1\n\xe92\n1\n")
        with pytest.raises(DatasetFormatError, match=r"B_node_labels\.txt:2: non-integer field"):
            load_tu_dataset(root, "B")

    def test_field_count_is_checked_line_by_line(self, tmp_path):
        # 3 + 1 fields add up to two 2-field rows; line 1 is still the wrong one
        root = tmp_path / "BAL"
        root.mkdir()
        (root / "BAL_A.txt").write_text("1 2 3\n4\n")
        (root / "BAL_graph_indicator.txt").write_text("1\n1\n1\n1\n")
        (root / "BAL_graph_labels.txt").write_text("1\n")
        with pytest.raises(DatasetFormatError, match=r"BAL_A\.txt:1: expected 2 fields, got 3"):
            load_tu_dataset(root, "BAL")

    def test_file_of_many_blocks_parses_whole(self, tmp_path):
        # about 600 KB of lines with uneven spacing, read block by block
        rng = np.random.default_rng(21)
        rows = rng.integers(-10**9, 10**9, size=(30000, 2))
        lines = [f"{a},{' ' * int(s)}{b}" for (a, b), s in zip(rows, rng.integers(0, 4, 30000))]
        path = tmp_path / "MANY_A.txt"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size > 4 * (1 << 16)
        assert np.array_equal(_read_int_rows(str(path), 2), rows)
        lines[25000] += " 7"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"MANY_A\.txt:25001: expected 2 fields, got 3"):
            _read_int_rows(str(path), 2)

    def test_values_outside_int64_rejected(self, tmp_path):
        root = tmp_path / "BIG"
        root.mkdir()
        (root / "BIG_A.txt").write_text("1, 2\n")
        (root / "BIG_graph_indicator.txt").write_text("1\n1\n")
        (root / "BIG_graph_labels.txt").write_text(f"{2**63}\n")
        with pytest.raises(DatasetFormatError, match=r"BIG_graph_labels\.txt: .*int64"):
            load_tu_dataset(root, "BIG")

    def test_crlf_files_load_as_their_lf_copies(self, tmp_path):
        graphs = [ring_graph(4), ring_graph(6)]
        lf = write_tu_dataset(tmp_path / "LF", "LE", graphs, [1, 2], [1, 2, 1, 2] + [3] * 6)
        crlf = tmp_path / "CRLF"
        crlf.mkdir()
        for path in lf.iterdir():
            (crlf / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in (crlf / "LE_A.txt").read_bytes()
        assert dataset_hash(load_tu_dataset(crlf, "LE")) == dataset_hash(load_tu_dataset(lf, "LE"))

    def test_every_loaded_adjacency_symmetric(self, toy_dataset):
        for g in toy_dataset.graphs:
            assert is_symmetric(g)


def one_graph(adjacency, features, label=0):
    """A dataset of one graph, through the one ``Dataset`` constructor."""
    return Dataset("ONE", adjacency, [0, adjacency.shape[0]], features, [label], label + 1)


class TestGraph:
    """The checks every graph passes once, when ``Dataset`` builds its store."""

    def test_adjacency_is_square_and_0_or_1(self):
        features = np.ones((4, 1))
        a = sp.csr_matrix(ring_graph(4))
        a.data[0] = 0.0  # a stored zero is no edge: (0, 1) and its mirror (1, 0) go
        a.data[a.indptr[1]] = 0.0
        assert one_graph(a, features).graphs[0].node_count == 4
        assert one_graph(a, features).indices.size == 6
        a.data[0] = 1.5
        with pytest.raises(ValueError, match="0 or 1"):
            one_graph(a, features)
        with pytest.raises(ValueError, match="square"):
            one_graph(sp.csr_matrix((4, 3)), features)
        # every graph of the store has a node: an empty one is rejected
        with pytest.raises(ValueError, match="at least one node"):
            Dataset("E", sp.csr_matrix(ring_graph(4)), [0, 0, 4], features, [0, 0], 1)

    def test_directed_adjacency_rejected(self):
        # stage 1 reads each coarse block as symmetric, which holds only for a symmetric A
        features = np.ones((4, 1))
        directed = ring_graph(4)
        directed[1, 0] = 0.0  # keep 0 -> 1, drop 1 -> 0
        stored_zero = sp.csr_matrix(ring_graph(4))
        stored_zero.data[stored_zero.indptr[1]] = 0.0  # 1 -> 0 stored, but no edge
        for a in (sp.csr_matrix(directed), stored_zero):
            with pytest.raises(ValueError, match="symmetric"):
                one_graph(a, features)
        # one asymmetric block among symmetric ones is found on the whole matrix
        with pytest.raises(ValueError, match="symmetric"):
            dataset_of([(ring_graph(3), np.ones((3, 1)), 0), (directed, features, 0),
                        (ring_graph(5), np.ones((5, 1)), 0)])

    def test_edge_stored_twice_rejected(self):
        # (0, 1) and (1, 0) each stored twice would read as 2.0 and fail only in a batch
        features = np.ones((2, 1))
        twice = sp.csr_matrix(([1.0, 1.0, 1.0, 1.0], [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2))
        assert twice.toarray()[0, 1] == 2.0
        with pytest.raises(ValueError, match="stores an edge twice"):
            one_graph(twice, features)
        # a stored zero beside the edge is no second entry
        zero_and_one = sp.csr_matrix(([0.0, 1.0, 1.0], [1, 1, 0], [0, 2, 3]), shape=(2, 2))
        assert one_graph(zero_and_one, features).graphs[0].node_count == 2

    def test_adjacency_must_be_csr(self):
        # the content hash and the symmetry check read CSR rows: a COO matrix has no
        # indptr, a CSC one would be read by columns, a dense array's .data is its buffer
        features = np.ones((4, 1))
        ring = ring_graph(4)
        for a, kind in ((sp.coo_matrix(ring), "coo_matrix in COO format"),
                        (sp.csc_matrix(ring), "csc_matrix in CSC format"),
                        (sp.csc_array(ring), "csc_array in CSC format"),
                        (ring, "dense ndarray")):
            with pytest.raises(TypeError, match=f"CSR format, got {kind}$"):
                one_graph(a, features)
        for a in (sp.csr_matrix(ring), sp.csr_array(ring)):
            assert one_graph(a, features).graphs[0].node_count == 4

    def test_features_must_be_one_row_per_node(self):
        a = sp.csr_matrix(ring_graph(2))
        # a 1-D column holds node labels only in an unsigned dtype
        for features in (np.ones(2), np.ones((3, 1)), np.ones((2, 1, 1)),
                         np.ones(3, dtype=np.uint8)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {features.shape}")):
                one_graph(a, features)
        column = one_graph(a, np.array([0, 2], dtype=np.uint8))
        assert column.feature_dim == 3
        assert column.graphs[0].node_features.tolist() == [[True, False, False],
                                                           [False, False, True]]

    def test_feature_rows_must_be_float_or_bool(self):
        # strings would fail only in dataset_hash, and integer rows reach Batch.features as they are
        a = sp.csr_matrix(ring_graph(3))
        for features in (np.array([["a"]] * 3), np.ones((3, 2), dtype=np.int64),
                         np.ones((3, 1), dtype=np.uint8), np.ones((3, 1), dtype=complex)):
            message = f"node_features rows must be float or bool, got dtype {features.dtype}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                one_graph(a, features)
        for dtype in (np.float32, np.float64, bool):
            assert one_graph(a, np.ones((3, 1), dtype=dtype)).node_features.dtype == dtype

    def test_graph_position_must_lie_in_the_dataset(self, toy_dataset):
        # -1 would read the last graph's label and a negative node count
        n = len(toy_dataset)
        for position in (-1, n, n + 3):
            for read in ("adjacency", "node_features", "label", "node_count"):
                with pytest.raises(IndexError, match=re.escape(f"one or more of [0, {n})")):
                    getattr(Graph(toy_dataset, position), read)
        last = Graph(toy_dataset, n - 1)
        assert (last.label, last.node_count) == (int(toy_dataset.graph_labels[-1]),
                                                 int(np.diff(toy_dataset.node_offsets)[-1]))

    def test_edge_between_graphs_rejected(self):
        # the union of two rings plus an edge from node 2 of the first to node 3
        a = sp.block_diag([ring_graph(3), ring_graph(4)], format="lil")
        a[2, 3] = a[3, 2] = 1.0
        with pytest.raises(DatasetIntegrityError, match=r"edge \(2, 3\) crosses graph"):
            Dataset("X", a.tocsr(), [0, 3, 7], np.ones((7, 1)), [0, 0], 1)

    def test_labels_one_per_graph_inside_the_classes(self):
        a = sp.csr_matrix(ring_graph(3))
        with pytest.raises(ValueError, match="^num_classes must be an integer >= 1, got 0"):
            Dataset("L", a, [0, 3], np.ones((3, 1)), [0], 0)
        with pytest.raises(DatasetIntegrityError, match=r"label 2 outside \[0, 2\)"):
            Dataset("L", a, [0, 3], np.ones((3, 1)), [2], 2)
        with pytest.raises(ValueError, match="1 graphs need one label each, got 2"):
            Dataset("L", a, [0, 3], np.ones((3, 1)), [0, 1], 2)


    def test_offsets_labels_and_classes_must_be_integers(self):
        # read as integers, [0, 2.9] would cut graphs at node 2, [0.7] be class 0,
        # 2.5 classes be 2 and True classes be 1
        a = sp.csr_matrix(ring_graph(3))
        rows = np.ones((3, 1))
        for offsets, labels, classes, message in (
                ([0, 2.9], [0], 1, "node_offsets must hold integers, got dtype float64"),
                (np.array([0, 3], dtype=np.float32), [0], 1, "node_offsets must hold integers"),
                ([0, 3], [0.7], 1, "labels must hold integers, got dtype float64"),
                ([0, 3], np.array([True]), 2, "labels must hold integers, got dtype bool"),
                ([0, 3], [0], 2.5, "num_classes must be an integer >= 1, got 2.5"),
                ([0, 3], [0], True, "num_classes must be an integer >= 1, got True")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                Dataset("I", a, offsets, rows, labels, classes)
        ds = Dataset("I", a, np.array([0, 3], dtype=np.uint8), rows, np.array([1], dtype=np.int8),
                     np.int64(2))
        assert ds.node_offsets.dtype == ds.graph_labels.dtype == np.int64
        assert ds.labels().tolist() == [1] and ds.num_classes == 2

    def test_positions_must_be_integers(self, toy_dataset):
        # read as positions, a float list would be truncated and a bool mask pick graphs 0 and 1
        for positions, dtype in (([1.9, 0.2], "float64"), (np.array([True, False]), "bool"),
                                 ([1.0], "float64")):
            message = f"^graph positions must hold integers, got dtype {dtype}$"
            for cut in (lambda p: Batch.of(toy_dataset, p), toy_dataset.union,
                        toy_dataset.node_rows):
                with pytest.raises(ValueError, match=message):
                    cut(positions)
        with pytest.raises(ValueError, match="^graph positions must hold integers"):
            Graph(toy_dataset, 1.0).adjacency
        with pytest.raises(IndexError, match=r"one or more of \[0, 10\)"):
            toy_dataset.union([])
        batch = Batch.of(toy_dataset, np.array([3, 1], dtype=np.uint8))
        assert batch.indices.tolist() == [3, 1] and batch.indices.dtype == np.int64

    def test_store_keeps_its_own_copies(self):
        # a caller's array written after the checks must not reach the store
        a = sp.csr_matrix(ring_graph(3))
        column, offsets, labels = np.array([0, 1, 2], dtype=np.uint8), np.array([0, 3]), np.array([1])
        rows = np.ones((3, 2))
        by_column = Dataset("OWN", a, offsets, column, labels, 2)
        by_rows = Dataset("OWN", a, offsets, rows, labels, 2)
        digests = dataset_hash(by_column), dataset_hash(by_rows)
        column[1], offsets[1], labels[0], rows[0, 0] = 7, 2, 5, 9.0
        assert by_column.feature_dim == 3 and by_column.node_offsets.tolist() == [0, 3]
        assert by_column.labels().tolist() == [1]
        assert (dataset_hash(by_column), dataset_hash(by_rows)) == digests
        assert Batch.of(by_column, [0]).features.tolist() == np.eye(3, dtype=bool).tolist()
        assert Batch.of(by_rows, [0]).features.tolist() == np.ones((3, 2)).tolist()


def per_graph_dataset(tmp_path, request, kind):
    """The dataset named ``kind``, loaded from TU files under ``tmp_path``."""
    if kind == "toy":
        return request.getfixturevalue("toy_dataset")
    return {"mixed": mixed_dataset, "many_labels": many_label_dataset,
            "degree": lambda root: separable_dataset(root, count=9)}[kind](tmp_path)


ORACLE_DATASETS = ("toy", "mixed", "many_labels", "degree")


def assert_same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


class TestLoaderOracle:
    """Graphs and batches cut from one store against graphs built one by one."""

    # graph 1: a duplicate listing, one-directional edges, a self-loop and an
    # isolated last node; graph 2 has no edges; the dataset's last node is isolated
    EDGES = "1, 2\n1, 2\n2, 3\n3, 3\n2, 1\n7, 8\n8, 7\n9, 10\n10, 7\n7, 7\n9, 10\n"
    INDICATOR = "1\n1\n1\n1\n2\n2\n3\n3\n3\n3\n3\n"

    @pytest.mark.parametrize("edges", ("mixed", "edgeless"))
    @pytest.mark.parametrize("node_labels", (True, False))
    def test_graphs_match_per_graph_construction(self, tmp_path, edges, node_labels):
        (tmp_path / "ORC_A.txt").write_text(self.EDGES if edges == "mixed" else "")
        (tmp_path / "ORC_graph_indicator.txt").write_text(self.INDICATOR)
        (tmp_path / "ORC_graph_labels.txt").write_text("5\n-1\n5\n")
        if node_labels:
            (tmp_path / "ORC_node_labels.txt").write_text("3\n1\n3\n7\n1\n1\n7\n3\n2\n2\n9\n")
        ds = load_tu_dataset(tmp_path, "ORC")
        reference = tu_graphs_one_by_one(tmp_path, "ORC")
        assert len(ds) == len(reference) == 3
        for g, (adjacency, features, label) in zip(ds.graphs, reference):
            assert_same_csr(g.adjacency, adjacency)
            assert g.node_features.dtype == features.dtype
            assert g.node_features.shape == features.shape
            assert g.node_features.tobytes() == features.tobytes()
            assert g.label == label

    @pytest.mark.parametrize("kind", ORACLE_DATASETS)
    def test_every_view_matches_the_per_graph_loader(self, tmp_path, request, kind):
        ds = per_graph_dataset(tmp_path, request, kind)
        reference = tu_graphs_one_by_one(ds.metadata["source"], ds.name)
        assert len(ds.graphs) == len(reference)
        for i, (adjacency, features, label) in enumerate(reference):
            g = ds.graphs[i]
            assert_same_csr(g.adjacency, adjacency)
            assert set(g.adjacency.data.tolist()) <= {1.0}
            assert g.node_features.dtype == features.dtype
            assert g.node_features.tobytes() == features.tobytes()
            assert g.node_count == adjacency.shape[0] and g.label == label

    @pytest.mark.parametrize("kind", ORACLE_DATASETS)
    def test_every_batch_union_is_the_block_diag_of_its_graphs(self, tmp_path, request, kind):
        ds = per_graph_dataset(tmp_path, request, kind)
        reference = tu_graphs_one_by_one(ds.metadata["source"], ds.name)
        rng = np.random.default_rng(30)
        everything = np.arange(len(ds))
        for positions in (everything, everything[1:3], everything[-1:], rng.permutation(len(ds)),
                          np.array([len(ds) - 1, 0, 1, 2])):
            batch = Batch.of(ds, positions)
            want = sp.block_diag([reference[i][0] for i in positions], format="csr")
            assert_same_csr(batch.edges.adjacency, want)
            np.testing.assert_array_equal(
                batch.edges.node_offsets,
                np.cumsum([0] + [reference[i][0].shape[0] for i in positions]))
            features = np.concatenate([reference[i][1] for i in positions])
            assert batch.features.dtype == features.dtype
            assert batch.features.tobytes() == features.tobytes()
            assert batch.labels.tolist() == [reference[i][2] for i in positions]
            assert batch.indices.tolist() == positions.tolist()


class TestStoreMemory:
    """200 node labels: one-hot rows would be most of the loaded dataset, and
    below one byte per one-hot entry no n x d array fits."""

    @staticmethod
    def wide(tmp_path):
        rng = np.random.default_rng(31)
        graphs = [random_graph(rng, int(n), 0.1) for n in rng.integers(20, 60, size=40)]
        nodes = sum(g.shape[0] for g in graphs)
        root = write_tu_dataset(tmp_path / "WIDE", "WIDE", graphs, [1, 2] * 20,
                                np.arange(nodes) % 200 + 1)
        return root, nodes

    def test_store_keeps_no_node_by_feature_array(self, tmp_path):
        root, nodes = self.wide(tmp_path)
        load_tu_dataset(root, "WIDE")  # first calls fill caches that would count as held
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = load_tu_dataset(root, "WIDE")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ds.feature_dim == 200
        assert held < nodes * ds.feature_dim

    def test_a_loop_over_the_views_holds_one_graph_at_a_time(self, tmp_path):
        root, nodes = self.wide(tmp_path)
        ds = load_tu_dataset(root, "WIDE")
        tracemalloc.start()
        try:
            for g in ds.graphs:
                assert g.node_features.sum() == g.node_count and g.adjacency.nnz >= 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nodes * ds.feature_dim / 2


class TestBatches:
    def test_single_batch_padding(self, tmp_path):
        graphs = [ring_graph(2), ring_graph(3), ring_graph(5)]
        root = write_tu_dataset(tmp_path / "PAD", "PAD", graphs, [1, 1, 2])
        ds = load_tu_dataset(root, "PAD")
        (batch,) = make_batches(ds, batch_size=3)
        assert batch.adjacency.shape == (3, 5, 5)
        np.testing.assert_array_equal(batch.node_counts(), [2, 3, 5])
        # masked-out region is exactly zero
        assert np.all(batch.adjacency[0, 2:, :] == 0.0)
        assert np.all(batch.adjacency[0, :, 2:] == 0.0)
        # node rows are packed, not padded: the graphs' rows in batch order
        assert batch.features.tobytes() == np.concatenate(
            [g.node_features for g in ds.graphs]).tobytes()
        np.testing.assert_array_equal(batch.edges.node_offsets, [0, 2, 5, 10])
        np.testing.assert_array_equal(batch.edges.adjacency.toarray(), sp.block_diag(
            [g.adjacency for g in ds.graphs]).toarray())
        # leading-ones mask
        np.testing.assert_array_equal(batch.node_mask[0], [1, 1, 0, 0, 0])

    def test_batch_count_ceiling(self, toy_dataset):
        batches = make_batches(toy_dataset, batch_size=3)
        assert len(batches) == 4
        assert [b.size for b in batches] == [3, 3, 3, 1]
        covered = np.concatenate([b.indices for b in batches])
        np.testing.assert_array_equal(np.sort(covered), np.arange(10))

    def test_same_seed_same_composition(self, toy_dataset):
        a = make_batches(toy_dataset, batch_size=4, shuffle_seed=123)
        b = make_batches(toy_dataset, batch_size=4, shuffle_seed=123)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)
            np.testing.assert_array_equal(x.adjacency, y.adjacency)

    def test_batch_size_validation(self, toy_dataset):
        with pytest.raises(ValueError):
            make_batches(toy_dataset, batch_size=0)

    def test_batch_size_must_be_an_integer(self, toy_dataset):
        # True made batches of one, 2.5 failed later as a slice index
        for value in (True, 2.5, float("nan"), "2", 0):
            with pytest.raises(ValueError, match="^batch_size must be an integer >= 1"):
                batch_positions(toy_dataset, value)
        assert len(batch_positions(toy_dataset, np.int64(5))) == 2

    def test_sizes_read_the_union_not_the_padding(self, tmp_path):
        # an edgeless graph and an isolated node count as nodes, and neither
        # size nor node_counts reads the padded arrays
        ds = mixed_dataset(tmp_path)
        batch = make_batches(ds, batch_size=len(ds))[0]
        counts = [g.node_count for g in ds.graphs]
        assert batch.size == len(ds)
        assert batch.node_counts().tolist() == counts and batch.node_counts().dtype == np.int64
        hollow = dataclasses.replace(batch, adjacency=np.zeros((0, 0, 0)),
                                     node_mask=np.zeros((0, 0)))
        assert hollow.size == len(ds) and hollow.node_counts().tolist() == counts

    def test_padded_batch_is_the_union_plus_its_padding(self, tmp_path):
        # make_batches' padded batch holds the bytes Batch.of builds, and a plain
        # Batch carries no padded copy
        ds = mixed_dataset(tmp_path)
        positions = [3, 0, 4]
        graphs = [ds.graphs[i] for i in positions]
        union = Batch.of(ds, positions)
        (padded,) = make_batches(ds, batch_size=3, subset=positions)
        assert type(union) is Batch and type(padded) is PaddedBatch
        assert not hasattr(union, "adjacency") and not hasattr(union, "node_mask")
        for name in ("features", "labels", "indices"):
            got, want = getattr(padded, name), getattr(union, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for name in ("node_offsets", "senders", "receivers", "degree"):
            assert getattr(padded.edges, name).tobytes() == getattr(union.edges, name).tobytes()
        assert padded.adjacency.shape == (3, 7, 7) and padded.node_mask.shape == (3, 7)
        for slot, g in enumerate(graphs):
            n = g.node_count
            np.testing.assert_array_equal(padded.adjacency[slot, :n, :n], g.adjacency.toarray())
            np.testing.assert_array_equal(padded.node_mask[slot], np.arange(7) < n)
        assert padded.adjacency.sum() == sum(g.adjacency.sum() for g in graphs)

    def test_padded_copy_commits_only_the_pages_it_writes(self):
        # the padded copy reserves 20 x 3000^2 float64, 1.44 GB, and its ones touch
        # about 13 MB of 4 KiB pages; zeroed 2 MiB huge pages would commit about 109 MB
        statm = "/proc/self/statm"
        if not os.path.exists(statm):
            pytest.skip("resident memory is read from /proc/self/statm")

        def resident_bytes():
            with open(statm) as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        ds = rings(3000, *[8] * 19)
        before = resident_bytes()
        (batch,) = make_batches(ds, batch_size=20)
        grown = resident_bytes() - before
        assert batch.adjacency.shape == (20, 3000, 3000) and batch.adjacency.dtype == np.float64
        assert grown < 40e6, f"resident memory grew by {grown / 1e6:.1f} MB"
        assert batch.adjacency.flags.c_contiguous and batch.adjacency.flags.writeable
        rows, cols = np.nonzero(batch.adjacency[0])
        assert rows.size == 6000
        assert np.all(((cols - rows) % 3000 == 1) | ((rows - cols) % 3000 == 1))

    def test_padded_copy_past_the_threshold_holds_the_bytes_of_zeros(self):
        # 3 x 800^2 float64 is 15 MB, past numpy's 4 MiB huge-page threshold, so the
        # copy is mapped; it must hold the bytes a zeroed numpy array would
        ds = dataset_of([(random_graph(np.random.default_rng(1), 800, 0.01), np.ones((800, 1)), 0),
                         (sparse_ring(5), np.ones((5, 1)), 1),
                         (np.zeros((1, 1)), np.ones((1, 1)), 0)], name="MAPPED")
        (batch,) = make_batches(ds, batch_size=3)
        want = np.zeros((3, 800, 800))
        for slot, g in enumerate(ds.graphs):
            want[slot, :g.node_count, :g.node_count] = g.adjacency.toarray()
        assert batch.adjacency.nbytes >= HUGE_PAGE_ADVICE_BYTES
        assert batch.adjacency.dtype == want.dtype and batch.adjacency.shape == want.shape
        assert batch.adjacency.tobytes() == want.tobytes()

    def test_padded_copy_past_the_address_space_raises_memory_error(self, monkeypatch):
        # a mapping refused under an RLIMIT_AS cap raises OSError(ENOMEM); the
        # benchmark counts a failed step by MemoryError, as numpy's own zeros raise
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refuse)
        ds = rings(1000, 8)
        with pytest.raises(MemoryError, match=r"shape \(2, 1000, 1000\)") as caught:
            make_batches(ds, batch_size=2)
        assert isinstance(caught.value.__cause__, OSError)
        # under numpy's 4 MiB huge-page threshold the copy is numpy's zeros, never mapped
        (small,) = make_batches(ds, batch_size=1, subset=[1])
        assert small.adjacency.shape == (1, 8, 8) and small.adjacency.sum() == 16

    def test_subset_must_be_integer_positions(self, toy_dataset):
        # read as positions, a mask would pick graphs 0 and 1 and a float array truncate
        for subset, dtype in ((np.array([True, False, True, True]), "bool"),
                              (np.array([0.7, 2.9]), "float64"),
                              ([1.0, 2.0], "float64")):
            with pytest.raises(ValueError, match=f"integer dataset positions, got dtype {dtype}"):
                make_batches(toy_dataset, batch_size=2, subset=subset)
            with pytest.raises(ValueError, match=f"got dtype {dtype}"):
                batch_positions(toy_dataset, 2, subset=subset)
        with pytest.raises(ValueError, match=r"1-D dataset positions, got shape \(2, 1\)"):
            batch_positions(toy_dataset, 2, subset=np.array([[0], [1]]))
        for subset in ([3, 1, 4], np.array([3, 1, 4], dtype=np.uint8)):
            chunks = batch_positions(toy_dataset, 2, subset=subset)
            assert [c.tolist() for c in chunks] == [[3, 1], [4]]
            assert all(c.dtype == np.int64 for c in chunks)

    def test_subset_positions_must_lie_in_the_dataset(self, toy_dataset):
        # a negative position would wrap to the end, and one past the end used to raise IndexError
        for subset, bad in (([-1], -1), ([3, 10, 12], 10), ([0, 1, 2, 9, -4], -4)):
            with pytest.raises(ValueError, match=rf"position {bad} outside \[0, 10\)"):
                make_batches(toy_dataset, batch_size=2, subset=subset)


class TestKFold:
    def test_equal_split(self, toy_dataset):
        splits = kfold_split(toy_dataset, folds=5, seed=0)
        assert len(splits) == 5
        for _, val in splits:
            assert len(val) == 2

    def test_folds_partition_dataset(self, toy_dataset):
        splits = kfold_split(toy_dataset, folds=3, seed=1)
        all_val = np.concatenate([val for _, val in splits])
        np.testing.assert_array_equal(np.sort(all_val), np.arange(10))
        for train, val in splits:
            assert np.intersect1d(train, val).size == 0
            assert len(train) + len(val) == 10

    def test_sizes_differ_by_at_most_one(self, tmp_path):
        rng = np.random.default_rng(2)
        graphs = [ring_graph(int(rng.integers(3, 7))) for _ in range(23)]
        labels = [int(rng.integers(1, 4)) for _ in range(23)]
        root = write_tu_dataset(tmp_path / "ODD", "ODD", graphs, labels)
        ds = load_tu_dataset(root, "ODD")
        splits = kfold_split(ds, folds=5, seed=3)
        sizes = sorted(len(val) for _, val in splits)
        assert sizes[-1] - sizes[0] <= 1

    def test_stratification_within_one(self, tmp_path):
        rng = np.random.default_rng(4)
        graphs = [ring_graph(int(rng.integers(3, 6))) for _ in range(40)]
        labels = [1] * 25 + [2] * 15
        root = write_tu_dataset(tmp_path / "STRAT", "STRAT", graphs, labels)
        ds = load_tu_dataset(root, "STRAT")
        splits = kfold_split(ds, folds=4, seed=5)
        y = ds.labels()
        for cls in (0, 1):
            per_fold = [int((y[val] == cls).sum()) for _, val in splits]
            assert max(per_fold) - min(per_fold) <= 1

    def test_too_many_folds_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            kfold_split(toy_dataset, folds=11, seed=0)

    def test_folds_and_seed_must_be_integers(self, toy_dataset):
        for folds, seed, field in ((2.5, 0, "folds"), (True, 0, "folds"), (1, 0, "folds"),
                                   (2, 2.5, "seed"), (2, -1, "seed"), (2, True, "seed")):
            with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
                kfold_split(toy_dataset, folds=folds, seed=seed)
        assert len(kfold_split(toy_dataset, folds=np.int64(2), seed=np.uint8(3))) == 2

    def test_deterministic(self, toy_dataset):
        s1 = kfold_split(toy_dataset, folds=5, seed=42)
        s2 = kfold_split(toy_dataset, folds=5, seed=42)
        for (t1, v1), (t2, v2) in zip(s1, s2):
            np.testing.assert_array_equal(v1, v2)
            np.testing.assert_array_equal(t1, t2)


class TestCache:
    """The content hash, the key a cached fold or checkpoint is checked against."""

    def test_hash_stable_and_content_sensitive(self, toy_dataset, tmp_path):
        h1 = dataset_hash(toy_dataset)
        assert h1 == toy_dataset.metadata["content_hash"]
        # one more ring node, same name and labels
        other = write_tu_dataset(tmp_path / "OTHER", "TOY", [ring_graph(5)], [1])
        longer = write_tu_dataset(tmp_path / "LONGER", "TOY", [ring_graph(6)], [1])
        assert dataset_hash(load_tu_dataset(other, "TOY")) != dataset_hash(
            load_tu_dataset(longer, "TOY")
        )

    @staticmethod
    def store(name="H", adjacency=None, offsets=(0, 4, 7), column=(0, 2, 1, 0, 0, 2, 2),
              labels=(0, 1), column_dtype=np.uint8):
        """Two graphs: a triangle and an isolated node, then a triangle."""
        if adjacency is None:
            adjacency = sp.block_diag([ring_graph(3), np.zeros((1, 1)), ring_graph(3)],
                                      format="csr")
        return Dataset(name, adjacency, np.array(offsets), np.array(column, dtype=column_dtype),
                       np.array(labels), 2)

    def test_hash_reads_no_storage_dtype(self, toy_dataset):
        base = dataset_hash(self.store())
        assert dataset_hash(self.store(column_dtype=np.uint16)) == base
        wide = self.store()
        assert wide.indptr.dtype == np.int32
        wide.indptr = wide.indptr.astype(np.int64)
        assert dataset_hash(wide) == base
        # rows hash as float64, whatever their dtype; a column is not its one-hot rows
        everything = np.arange(len(toy_dataset))
        rows = toy_dataset.node_rows(everything)
        assert rows.dtype == bool
        digests = {dataset_hash(Dataset("TOY", toy_dataset.union(everything)[0],
                                        toy_dataset.node_offsets, rows.astype(dtype),
                                        toy_dataset.graph_labels, toy_dataset.num_classes))
                   for dtype in (bool, np.float32, np.float64)}
        assert len(digests) == 1
        assert digests == {dataset_hash(row_store(toy_dataset))}
        assert dataset_hash(toy_dataset) not in digests

    def test_hash_changes_with_every_part(self):
        extra_edge = sp.block_diag([ring_graph(3), np.zeros((1, 1)), ring_graph(3)], format="lil")
        extra_edge[0, 3] = extra_edge[3, 0] = 1.0
        variants = {
            "base": self.store(),
            "edge": self.store(adjacency=extra_edge.tocsr()),
            "node label": self.store(column=(0, 2, 1, 1, 0, 2, 2)),
            "graph label": self.store(labels=(1, 1)),
            "name": self.store(name="H2"),
            "boundary": self.store(offsets=(0, 3, 7)),  # the isolated node joins graph 1
        }
        digests = {key: dataset_hash(ds) for key, ds in variants.items()}
        assert len(set(digests.values())) == len(variants), digests

    def test_hash_holds_no_node_by_feature_array(self):
        # one 3,000-node graph with about 60 node labels; one-hot float64 rows
        # of it would take 8 bytes per node and label
        rng = np.random.default_rng(34)
        n = 3000
        upper = sp.random(n, n, density=0.002, random_state=rng, format="csr")
        adjacency = (upper + upper.T).astype(bool).astype(np.float64)
        column = rng.integers(0, 60, size=n).astype(np.uint8)
        ds = Dataset("BIG", adjacency, [0, n], column, [0], 1)
        assert ds.feature_dim == 60
        dataset_hash(ds)  # first calls fill caches that would count as allocated
        tracemalloc.start()
        try:
            digest = dataset_hash(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == dataset_hash(ds)
        assert peak < n * ds.feature_dim

    def test_hash_pinned_for_toy_dataset(self, toy_dataset):
        # any change to the serialization changes every stored hash
        assert dataset_hash(toy_dataset) == (
            "a828512cc8611f140de5e4860bda154458a460392e128b3f1085468127a06dca"
        )
