"""Tests for structural similarity features and the index mapping."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    decode_index,
    index_map_dense,
    rank_cols,
    similarity_dense_asymmetric,
    similarity_dense_symmetric,
)
from simpool import autodiff as ad
from simpool.similarity import (
    SimilarityConfig,
    compute_features,
    index_map,
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


class TestDenseAsymmetric:
    def test_reduces_to_symmetric_on_symmetric_input(self):
        rng = np.random.default_rng(1)
        cfg = SimilarityConfig(p=1, lam=1.0)
        for _ in range(50):
            a = random_symmetric(rng, 10)
            sym = similarity_dense_symmetric(a, cfg).dense
            asym = similarity_dense_asymmetric(a, cfg).dense
            np.testing.assert_allclose(asym, sym, atol=1e-12)

    def test_single_directed_edge(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        c = similarity_dense_asymmetric(a, SimilarityConfig(p=1, lam=1.0)).dense
        np.testing.assert_allclose(c[0, 1], 2.0 / 3.0, rtol=1e-12)
        np.testing.assert_array_equal(np.diagonal(c), np.ones(2))

    def test_zero_matrix_gives_identity(self):
        c = similarity_dense_asymmetric(np.zeros((4, 4)), SimilarityConfig(p=1, lam=1.0)).dense
        np.testing.assert_array_equal(c, np.eye(4))


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
        # directed input takes the asymmetric Gram, symmetric input the symmetric one
        rng = np.random.default_rng(3)
        for p in (1, 2, 3):
            for directed in (False, True):
                oracle = similarity_dense_asymmetric if directed else similarity_dense_symmetric
                for trial in range(100):
                    cfg = SimilarityConfig(p=p, lam=float(trial % 3))
                    n = int(rng.integers(2, 65))
                    a = random_sparse_graph(rng, n, mean_degree=min(6, n - 1))
                    if directed:
                        a = np.triu(a)  # keep one direction of every edge
                    dense = oracle(a, cfg).dense
                    sparse = similarity_sparse(sp.coo_matrix(a), cfg).dense.toarray()
                    assert np.array_equal(dense, sparse), f"{cfg} trial {trial} differs"

    def test_directed_input_with_default_config_is_the_asymmetric_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(2, 40))
            a = (rng.random((n, n)) < 0.2).astype(np.float64)  # self-loops allowed
            a[0, 1], a[1, 0] = 1.0, 0.0  # never symmetric
            dense = similarity_dense_asymmetric(a, SimilarityConfig()).dense
            sparse = similarity_sparse(sp.csr_matrix(a), SimilarityConfig()).dense.toarray()
            assert np.array_equal(dense, sparse), f"trial {trial} differs"

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

    def test_negative_similarities_rejected(self):
        dense = np.array([[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            index_map(dense, SimilarityConfig(k=2))

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

    def test_compute_features_dispatch(self):
        rng = np.random.default_rng(16)
        a = random_sparse_graph(rng, 10, 3)
        for cfg in (SimilarityConfig(p=1, lam=1.0), SimilarityConfig(p=2, lam=1.0)):
            for adjacency in (sp.csr_matrix(a), a, np.triu(a)):
                feats = compute_features(adjacency, cfg)
                assert sp.issparse(feats.dense) and feats.dense.format == "csr"
