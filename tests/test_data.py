"""Tests for dataset loading, batching, folds, and the content hash."""

import numpy as np
import pytest
import scipy.sparse as sp

from simpool.data import (
    DatasetFormatError,
    DatasetIntegrityError,
    Graph,
    dataset_hash,
    kfold_split,
    load_tu_dataset,
    make_batches,
)

from conftest import ring_graph, write_tu_dataset
from oracles import tu_graphs_one_by_one


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

    def test_node_labels_become_onehot(self, toy_dataset):
        ds = toy_dataset
        assert ds.metadata["feature_kind"] == "node_label_onehot"
        feats = np.vstack([g.node_features for g in ds.graphs])
        assert set(np.unique(feats)) <= {0.0, 1.0}
        np.testing.assert_array_equal(feats.sum(axis=1), np.ones(len(feats)))

    def test_degree_features_without_node_labels(self, tmp_path):
        graphs = [ring_graph(5), ring_graph(7)]
        root = write_tu_dataset(tmp_path / "DEG", "DEG", graphs, [1, 2])
        ds = load_tu_dataset(root, "DEG")
        assert ds.metadata["feature_kind"] == "degree_scalar"
        assert ds.feature_dim == 1
        # every ring node has degree 2 == dataset max degree
        for g in ds.graphs:
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

    def test_every_loaded_adjacency_symmetric(self, toy_dataset):
        for g in toy_dataset.graphs:
            assert is_symmetric(g)


class TestGraph:
    def test_adjacency_is_square_and_0_or_1(self):
        features = np.ones((4, 1))
        a = sp.csr_matrix(ring_graph(4))
        a.data[0] = 0.0  # a stored zero is no edge
        assert Graph(adjacency=a, node_features=features, label=0).node_count == 4
        a.data[0] = 1.5
        with pytest.raises(ValueError, match="0 or 1"):
            Graph(adjacency=a, node_features=features, label=0)
        with pytest.raises(ValueError, match="square"):
            Graph(adjacency=sp.csr_matrix((4, 3)), node_features=features, label=0)


class TestLoaderOracle:
    """Row ranges of one block-diagonal CSR against graphs built one by one."""

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
            for attr in ("indptr", "indices", "data"):
                got, want = getattr(g.adjacency, attr), getattr(adjacency, attr)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
            assert g.node_features.dtype == features.dtype
            assert g.node_features.shape == features.shape
            assert g.node_features.tobytes() == features.tobytes()
            assert g.label == label


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
        assert np.all(batch.features[1, 3:, :] == 0.0)
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

    def test_hash_pinned_for_toy_dataset(self, toy_dataset):
        # any change to the serialization changes every stored hash
        assert dataset_hash(toy_dataset) == (
            "13fa791a662e1e5af51adc785d087563c1a8c12f696d87e2c7a0fef22f335049"
        )
