"""Tests for structural similarity features and the index mapping."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dataset_of, mixed_dataset
from oracles import (
    decode_index,
    index_map_dense,
    preprocess_graph_loop,
    graph_runs,
    rank_cols,
    similarity_dense_symmetric,
)
from simpool import autodiff as ad
from simpool import similarity
from simpool.model import resolve_preset
from simpool.similarity import (
    SimilarityConfig,
    compute_features,
    index_map,
    preprocess_dataset,
    similarity_sparse,
    symmetric_similarity_on_tape,
)


def random_symmetric(rng, n, density=0.4, weighted=False):
    a = (rng.random((n, n)) < density).astype(np.float64)
    if weighted:
        a *= rng.uniform(0.5, 2.0, size=(n, n))
    a = np.triu(a, 1)
    return a + a.T


def random_sparse_graph(rng, n, mean_degree):
    p = min(1.0, mean_degree / max(n - 1, 1))
    a = (rng.random((n, n)) < p).astype(np.float64)
    a = np.triu(a, 1)
    return a + a.T


class TestDenseSymmetric:
    def test_identity_adjacency(self):
        cfg = SimilarityConfig(p=1, lam=0.0)
        feats = similarity_dense_symmetric(np.eye(5), cfg)
        np.testing.assert_array_equal(feats.dense, np.eye(5))

    def test_complete_graph_with_self_loops(self):
        a = np.ones((3, 3)) - np.eye(3)
        feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
        np.testing.assert_array_equal(feats.dense, np.ones((3, 3)))

    def test_path_graph_hand_cosines(self):
        # path 1-2-3 with self-loops: columns of [[1,1,0],[1,1,1],[0,1,1]]
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
        c = feats.dense
        np.testing.assert_allclose(c[0, 1], 2 / np.sqrt(6), rtol=1e-12)
        np.testing.assert_allclose(c[1, 2], 2 / np.sqrt(6), rtol=1e-12)
        np.testing.assert_allclose(c[0, 2], 0.5, rtol=1e-12)
        np.testing.assert_array_equal(np.diagonal(c), np.ones(3))

    def test_isolated_node_zero_row(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=0.0))
        assert feats.dense[2, 2] == 0.0
        assert np.all(feats.dense[2, :] == 0.0)
        assert np.all(feats.dense[:, 2] == 0.0)

    def test_asymmetric_input_rejected(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        with pytest.raises(ValueError):
            similarity_dense_symmetric(a, SimilarityConfig())

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_symmetric(rng, 12, weighted=True)
            c = similarity_dense_symmetric(a, SimilarityConfig(p=2, lam=0.5)).dense
            assert c.min() >= 0.0 and c.max() <= 1.0


class TestPermutationCovariance:
    def test_similarity_permutes_with_adjacency(self):
        rng = np.random.default_rng(2)
        cfg = SimilarityConfig(p=1, lam=1.0)
        for _ in range(100):
            n = int(rng.integers(3, 33))
            a = random_symmetric(rng, n, weighted=True)
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            c = similarity_dense_symmetric(a, cfg).dense
            c_perm = similarity_dense_symmetric(p @ a @ p.T, cfg).dense
            np.testing.assert_allclose(c_perm, p @ c @ p.T, atol=1e-10)


class TestSparsePath:
    def test_matches_dense_exactly(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 3):
            for trial in range(100):
                cfg = SimilarityConfig(p=p, lam=float(trial % 3))
                n = int(rng.integers(2, 65))
                a = random_sparse_graph(rng, n, mean_degree=min(6, n - 1))
                dense = similarity_dense_symmetric(a, cfg).dense
                sparse = similarity_sparse(sp.coo_matrix(a), cfg).dense.toarray()
                assert np.array_equal(dense, sparse), f"{cfg} trial {trial} differs"

    def test_directed_input_rejected(self):
        # graphs are undirected: an asymmetric input, dense or sparse, is named
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            a = (rng.random((n, n)) < 0.2).astype(np.float64)  # self-loops allowed
            a[0, 1], a[1, 0] = 1.0, 0.0  # never symmetric
            for adjacency in (a, sp.csr_matrix(a), sp.coo_matrix(a)):
                for compute in (similarity_sparse, compute_features):
                    with pytest.raises(ValueError, match="must be symmetric"):
                        compute(adjacency, SimilarityConfig(p=1 + trial % 2))

    def test_symmetry_is_read_off_the_canonical_matrix(self):
        # duplicate listings, unsorted indices and stored zeros do not make a
        # symmetric input look directed
        rng = np.random.default_rng(18)
        cfg = SimilarityConfig()
        for trial in range(30):
            n = int(rng.integers(3, 30))
            a = random_sparse_graph(rng, n, mean_degree=min(4, n - 1))
            coo = sp.coo_matrix(a)
            order = rng.permutation(coo.nnz)
            # every entry listed twice as halves, in shuffled order, plus a stored zero
            rows = np.concatenate([coo.row[order], coo.row[order], [n - 1]])
            cols = np.concatenate([coo.col[order], coo.col[order], [0]])
            data = np.concatenate([coo.data[order] / 2, coo.data[order] / 2, [0.0]])
            by_row = np.argsort(rows, kind="stable")
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
            raw = sp.csr_matrix((data[by_row], cols[by_row], indptr), shape=(n, n))
            assert not raw.has_canonical_format
            before = [arr.copy() for arr in (raw.indptr, raw.indices, raw.data)]
            got, stats = similarity_sparse(raw, cfg, return_stats=True)
            want = similarity_dense_symmetric(a, cfg).dense
            assert np.array_equal(got.dense.toarray(), want), trial
            _, canonical = similarity_sparse(sp.csr_matrix(a), cfg, return_stats=True)
            assert stats.multiply_adds == canonical.multiply_adds
            for arr, kept in zip((raw.indptr, raw.indices, raw.data), before):
                assert np.array_equal(arr, kept)

    def test_negative_adjacency_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            similarity_sparse(a, SimilarityConfig())

    def test_matches_dense_lambda_zero(self):
        rng = np.random.default_rng(4)
        cfg = SimilarityConfig(p=1, lam=0.0)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a = random_sparse_graph(rng, n, mean_degree=4)
            dense = similarity_dense_symmetric(a, cfg).dense
            sparse = similarity_sparse(sp.csr_matrix(a), cfg).dense.toarray()
            assert np.array_equal(dense, sparse)

    def test_disconnected_cliques_zero_block(self):
        block = np.ones((4, 4)) - np.eye(4)
        a = np.zeros((8, 8))
        a[:4, :4] = block
        a[4:, 4:] = block
        c = similarity_sparse(sp.csr_matrix(a), SimilarityConfig(p=1, lam=0.0)).dense.toarray()
        assert np.all(c[:4, 4:] == 0.0)
        assert np.all(c[4:, :4] == 0.0)

    def test_star_graph_leaf_similarity_is_one(self):
        n = 6  # centre 0 plus 5 leaves
        a = np.zeros((n, n))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        c = similarity_sparse(sp.csr_matrix(a), SimilarityConfig(p=1, lam=0.0)).dense.toarray()
        leaves = np.arange(1, n)
        for i in leaves:
            for j in leaves:
                assert c[i, j] == 1.0

    def test_flop_count_tracks_degree_squared(self):
        rng = np.random.default_rng(5)
        n = 256
        ratios = {}
        for mean_degree in (2, 4, 8):
            flops = 0
            for _ in range(5):
                a = random_sparse_graph(rng, n, mean_degree)
                _, stats = similarity_sparse(
                    sp.csr_matrix(a), SimilarityConfig(p=1, lam=0.0), return_stats=True
                )
                # Gram multiply-adds, a multiply and a divide per stored pair,
                # a square root per node
                flops += stats.multiply_adds + 2 * stats.pair_count + stats.node_count
            ratios[mean_degree] = flops / (mean_degree**2 * n)
        spread = max(ratios.values()) / min(ratios.values())
        assert spread < 3.0, f"flop ratios {ratios} spread {spread:.2f}"


class TestIndexMap:
    def test_path_graph_worked_example(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
        cfg = SimilarityConfig(p=1, lam=1.0, alpha=1.0, k=2)
        mapped = index_map(feats, cfg).mapped
        c12 = feats.dense[0, 1]
        np.testing.assert_allclose(mapped[0], [(1.0 + 1.0) / 4.0, (c12 + 2.0) / 4.0], rtol=1e-15)

    def test_zero_row_maps_to_zero(self):
        dense = np.zeros((3, 3))
        dense[0, 0] = 1.0
        dense[0, 1] = dense[1, 0] = 0.5
        dense[1, 1] = 1.0
        mapped = index_map(dense, SimilarityConfig(k=2)).mapped
        assert np.all(mapped[2] == 0.0)
        # explicitly stored zeros count as zero similarities too
        stored_zeros = sp.csr_matrix(
            ([1.0, 0.5, 0.5, 1.0, 0.0], [0, 1, 0, 1, 0], [0, 2, 4, 5]), shape=(3, 3)
        )
        assert stored_zeros.nnz == 5
        assert np.array_equal(index_map(stored_zeros, SimilarityConfig(k=2)).mapped, mapped)

    def test_alpha_zero_pure_index_encoding(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 8)
        feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
        cfg = SimilarityConfig(alpha=0.0, k=4, lam=1.0)
        mapped = index_map(feats, cfg).mapped
        idx = rank_cols(feats.dense, 4)
        nz = mapped != 0
        np.testing.assert_array_equal(mapped[nz], (idx + 1.0)[nz] / 9.0)

    def test_matches_dense_ranking_bit_identical(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 20))
            a = random_symmetric(rng, n, weighted=True)
            feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
            alpha = float(rng.choice([0.0, 0.3, 0.8, 1.0]))
            k = int(rng.integers(1, n + 4))
            cfg = SimilarityConfig(alpha=alpha, k=k, lam=1.0)
            mapped = index_map(sp.csr_matrix(feats.dense), cfg).mapped
            oracle = index_map_dense(feats.dense, cfg)
            assert mapped.tobytes() == oracle.tobytes(), f"trial {trial}"

    def test_unions_match_dense_oracle_bytes(self):
        # few distinct values, so long rows tie past k; per-row densities spread the
        # row lengths; every row lists its entries in random order among stored zeros
        rng = np.random.default_rng(20)
        seen = {"lengths": set(), "ties_past_k": 0, "short": 0, "zeros": 0, "unsorted": 0}
        for trial in range(60):
            sizes = rng.integers(1, 40, size=int(rng.integers(1, 6)))
            blocks = [rng.choice([0.25, 0.5, 1.0], size=(n, n))
                      * (rng.random((n, n)) < rng.random((n, 1))) for n in sizes]
            k = int(sizes.max()) + 2 if trial % 5 == 0 else int(rng.integers(1, 12))
            cfg = SimilarityConfig(alpha=float(rng.choice([0.0, 0.4, 1.0])), k=k)
            union = sp.block_diag(blocks).toarray()
            within = sp.block_diag([np.ones((n, n)) for n in sizes]).toarray() > 0
            rows, cols = np.nonzero((union != 0) | (within & (rng.random(union.shape) < 0.1)))
            order = np.lexsort((rng.random(rows.size), rows))
            rows, cols = rows[order], cols[order]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=union.shape[0]))])
            raw = sp.csr_matrix((union[rows, cols], cols, indptr), shape=union.shape)
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            mapped = index_map(raw, cfg, offsets).mapped
            for lo, hi, block in zip(offsets[:-1], offsets[1:], blocks):
                assert mapped[lo:hi].tobytes() == index_map_dense(block, cfg).tobytes(), trial
            length = np.count_nonzero(union, axis=1)
            seen["lengths"] |= set(length.tolist())
            seen["ties_past_k"] += int(np.any(np.count_nonzero(union == 1.0, axis=1) > k))
            seen["short"] += int(np.any((length > 0) & (length < k)))
            seen["zeros"] += int(raw.nnz > np.count_nonzero(union))
            seen["unsorted"] += int(not raw.has_sorted_indices)
        assert len(seen.pop("lengths")) > 30 and min(seen.values()) > 0, seen

    def test_negative_similarities_rejected(self):
        dense = np.array([[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            index_map(dense, SimilarityConfig(k=2))

    def test_offsets_encode_each_graph_as_alone(self):
        rng = np.random.default_rng(12)
        blocks = [random_symmetric(rng, n) for n in (4, 1, 7)]
        cfg = SimilarityConfig(alpha=0.3, k=3, lam=1.0)
        alone = [similarity_dense_symmetric(b, cfg).dense for b in blocks]
        offsets = [0, 4, 5, 12]
        mapped = index_map(sp.block_diag(alone), cfg, offsets).mapped
        for lo, hi, c in zip(offsets[:-1], offsets[1:], alone):
            assert mapped[lo:hi].tobytes() == index_map(c, cfg).mapped.tobytes()

    @pytest.mark.parametrize("offsets", ([1, 5], [0, 4], [0, 3, 2, 5], [[0, 5]], [5]))
    def test_offsets_must_rise_from_zero_to_n(self, offsets):
        with pytest.raises(ValueError, match="graph offsets must rise from 0 to 5"):
            index_map(np.eye(5), SimilarityConfig(k=2), offsets)

    def test_similarity_across_graphs_rejected(self):
        dense = np.eye(4)
        dense[1, 2] = 0.5  # row 1 is in graph 0 (nodes 0-1), column 2 in graph 1
        with pytest.raises(ValueError, match="between nodes of different graphs"):
            index_map(dense, SimilarityConfig(k=2), [0, 2, 4])
        mapped = index_map(dense, SimilarityConfig(k=2), [0, 3, 4]).mapped
        assert mapped[1, 1] == (0.5 + 3) / 4

    def test_nonzero_range_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 24))
            alpha = float(rng.random())
            a = random_sparse_graph(rng, n, 3)
            feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
            mapped = index_map(feats, SimilarityConfig(alpha=alpha, k=5, lam=1.0)).mapped
            nz = mapped[mapped != 0]
            assert np.all(nz > 0.0)
            assert np.all(nz <= 1.0 - (1.0 - alpha) / (n + 1) + 1e-15)

    def test_rows_ordered_by_descending_source_similarity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(3, 16))
            a = random_symmetric(rng, n, weighted=True)
            feats = similarity_dense_symmetric(a, SimilarityConfig(p=1, lam=1.0))
            k = 4
            idx = rank_cols(feats.dense, k)
            source = np.take_along_axis(feats.dense, idx, axis=1)
            diffs = np.diff(source, axis=1)
            assert np.all(diffs <= 1e-15)

    def test_padding_when_k_exceeds_node_count(self):
        feats = similarity_dense_symmetric(np.zeros((3, 3)), SimilarityConfig(lam=1.0))
        mapped = index_map(feats, SimilarityConfig(k=6, lam=1.0)).mapped
        assert mapped.shape == (3, 6)
        assert np.all(mapped[:, 3:] == 0.0)


class TestPreprocessDataset:
    @staticmethod
    def dataset(tmp_path):
        """A one-node graph, the mixed dataset, a 21-node star whose 20 leaves tie, a 5-node star."""
        star = np.zeros((21, 21))
        star[0, 1:] = star[1:, 0] = 1.0
        extra = [(a, np.ones((a.shape[0], 3)), 0) for a in (np.zeros((1, 1)), star, star[:5, :5])]
        mixed = mixed_dataset(tmp_path)
        graphs = [(g.adjacency, g.node_features, g.label) for g in mixed.graphs]
        return dataset_of(extra[:1] + graphs + extra[1:], mixed.num_classes, "MIXED")

    @pytest.mark.parametrize("runs", ("graph_per_run", "one_run"))
    @pytest.mark.parametrize("cfg", (resolve_preset("enzymes").sim,
                                     SimilarityConfig(p=2, lam=0.5, alpha=0.3)),
                             ids=("enzymes", "p2"))
    def test_matches_the_graph_loop_bytes(self, tmp_path, monkeypatch, cfg, runs):
        """Under either tape dtype the rows are the float64 loop's, rounded once
        to it, and every graph's rows are a view of its run's array."""
        ds = self.dataset(tmp_path)
        per_graph = runs == "graph_per_run"
        monkeypatch.setattr(similarity, "GRAM_RUN_MULTIPLY_ADDS", 0 if per_graph else 1 << 62)
        assert len(graph_runs(ds.graphs)) == (len(ds) if per_graph else 1)
        star = ds.graphs[-2]
        assert np.count_nonzero(compute_features(star.adjacency, cfg).dense[1].toarray()) > cfg.k
        oracle = preprocess_graph_loop(ds, cfg)
        for dtype in (np.float64, np.float32):
            with ad.precision(dtype):
                mapped = preprocess_dataset(ds, cfg)
            assert len(mapped) == len(oracle) == len(ds)
            for got, want in zip(mapped, oracle):
                assert want.dtype == np.float64 and got.dtype == dtype
                assert got.shape == want.shape and got.tobytes() == want.astype(dtype).tobytes()
            assert all(isinstance(m.base, np.ndarray) and m.base.dtype == dtype for m in mapped)
            run_arrays = {id(m.base): m.base for m in mapped}.values()
            assert len(run_arrays) == (len(ds) if per_graph else 1)
            assert sum(run.nbytes for run in run_arrays) == sum(m.nbytes for m in mapped)

    def test_runs_cut_between_whole_graphs(self):
        # a complete graph on 20 nodes costs 20 * 19^2 Gram multiply-adds
        graphs = dataset_of([(np.ones((20, 20)) - np.eye(20), np.ones((20, 1)), 0)] * 40).graphs
        per_run = similarity.GRAM_RUN_MULTIPLY_ADDS // (20 * 19**2)
        assert 1 < per_run < 40
        runs = graph_runs(graphs)
        assert runs[0] == (0, per_run) and runs[-1][1] == 40
        assert all(a[1] == b[0] for a, b in zip(runs[:-1], runs[1:]))
        assert graph_runs([]) == []

    def test_peak_memory_is_a_few_runs_not_the_dataset(self):
        # 400 equal complete graphs: each run's Gram temporaries are per-run, only
        # the n x k outputs add up over the dataset
        clique = sp.csr_matrix(np.ones((20, 20)) - np.eye(20))
        ds = dataset_of([(clique, np.ones((20, 1)), 0)] * 400, name="CLIQUES")
        cfg = resolve_preset("enzymes").sim
        runs = graph_runs(ds.graphs)
        assert len(runs) >= 20

        def peak(dataset):
            tracemalloc.start()
            try:
                out = preprocess_dataset(dataset, cfg)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        assert runs[0][0] == 0
        one_run, _ = peak(dataset_of([(clique, np.ones((20, 1)), 0)] * runs[0][1], name="ONE"))
        whole, mapped = peak(ds)
        outputs = sum(m.nbytes for m in mapped)  # the views tile their runs' arrays
        assert whole < 3 * one_run + outputs, (whole / one_run, outputs / one_run)


class TestDecodeIndex:
    def test_worked_example(self):
        assert decode_index(0.704125, 3, alpha=1.0) == 2

    def test_alpha_zero_exact(self):
        for n in (3, 9, 40):
            for j in range(1, n + 1):
                assert decode_index(j / (n + 1), n, alpha=0.0) == j

    def test_collision_flagged(self):
        # alpha = 1 with unit similarity at column j lands exactly on j + 1
        with pytest.warns(RuntimeWarning):
            assert decode_index((1.0 + 2.0) / 5.0, 4, alpha=1.0) == 3

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for alpha in (0.0, 0.5, 0.8):
            cfg = SimilarityConfig(alpha=alpha, k=4, lam=1.0)
            for _ in range(50):
                n = int(rng.integers(2, 20))
                a = random_sparse_graph(rng, n, 3)
                feats = similarity_dense_symmetric(a, cfg)
                mapped = index_map(feats, cfg).mapped
                idx = rank_cols(feats.dense, 4)
                for i in range(n):
                    for t in range(min(4, n)):
                        if mapped[i, t] == 0:
                            continue
                        assert decode_index(mapped[i, t], n, alpha=alpha) == idx[i, t] + 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode_index(0.0, 5)
        with pytest.raises(ValueError):
            decode_index(1.5, 5)


class TestOnTape:
    def test_tape_similarity_matches_offline(self):
        rng = np.random.default_rng(11)
        for p in (1, 2):
            a = random_symmetric(rng, 6, weighted=True)
            offline = similarity_dense_symmetric(a, SimilarityConfig(p=p, lam=0.5)).dense
            on_tape = symmetric_similarity_on_tape(ad.constant(a), p=p, lam=0.5).values
            # offline applies exact-parallel snapping, so compare loosely
            np.testing.assert_allclose(on_tape, offline, atol=1e-9)

    def test_stacked_blocks_match_each_block_alone(self):
        rng = np.random.default_rng(13)
        blocks = [random_symmetric(rng, 4, weighted=True) for _ in range(3)]
        blocks[1][...] = 0.0  # an edgeless block
        for p in (1, 2):
            stacked = symmetric_similarity_on_tape(ad.constant(np.vstack(blocks)), p=p,
                                                   lam=0.5).values
            for g, a in enumerate(blocks):
                alone = symmetric_similarity_on_tape(ad.constant(a), p=p, lam=0.5).values
                np.testing.assert_allclose(stacked[4 * g:4 * g + 4], alone, rtol=1e-14,
                                           atol=1e-15)

    def test_tape_similarity_gradients(self):
        rng = np.random.default_rng(12)
        a = random_symmetric(rng, 5, weighted=True) + 0.1
        x = ad.parameter(a)
        weights = ad.constant(rng.normal(size=(5, 5)))

        def f(t):
            sym = ad.scalar_multiply(ad.add(t, ad.transpose(t)), 0.5)
            return ad.sum_all(ad.multiply(symmetric_similarity_on_tape(sym, p=1, lam=0.5), weights))

        assert ad.grad_check(f, x) < 1e-4


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"p": 0}, {"lam": -0.5}, {"alpha": 1.5}, {"alpha": -0.1}, {"k": 0}],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SimilarityConfig(**kwargs)

    def test_non_finite_or_non_integer_values_name_their_field(self):
        # nan or inf lambda would map to nan rows, a float p or k fail later inside scipy
        for field, value in (("lam", float("nan")), ("lam", float("inf")), ("p", 1.5),
                             ("p", True), ("k", 2.5), ("k", True), ("k", "12")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SimilarityConfig(**{field: value})
        assert SimilarityConfig(p=np.int64(2), k=np.int32(3)).k == 3

    def test_p_and_k_below_one_name_their_field_and_value(self):
        for field in ("p", "k"):
            for value in (0, -1):
                with pytest.raises(ValueError,
                                   match=f"^{field} must be an integer >= 1, got {value}$"):
                    SimilarityConfig(**{field: value})

    def test_compute_features_dispatch(self):
        rng = np.random.default_rng(16)
        a = random_sparse_graph(rng, 10, 3)
        for cfg in (SimilarityConfig(p=1, lam=1.0), SimilarityConfig(p=2, lam=1.0)):
            for adjacency in (sp.csr_matrix(a), a):
                feats = compute_features(adjacency, cfg)
                assert sp.issparse(feats.dense) and feats.dense.format == "csr"
