"""Tier-1 smoke run of the finite-difference suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool import gradcheck
from simpool.data import Batch, Dataset
from simpool.model import SimPoolModel
from simpool.similarity import preprocess_dataset


def test_suite_passes_except_full_model():
    # full_model_width16 alone takes about 19 s at two graphs, so it stays out
    checks = [name for name in gradcheck.SUITE_CHECKS if name != "full_model_width16"]
    results = gradcheck.run_suite(checks=checks)
    assert [r.name for r in results] == checks
    for r in results:
        assert r.graphs == 20
        assert r.tolerance == gradcheck.TOLERANCE
        assert r.passed, f"{r.name}: {r.max_error:.2e} >= {r.tolerance:.0e}"


def test_label_pair_check_reaches_the_label_path(corrupt_backward):
    # only the label path gathers rows in this check: a wrong gather gradient must fail it
    (clean,) = gradcheck.run_suite(graphs_per_check=2, checks=["gmn_label_pairs"])
    corrupt_backward("gather_rows", 1.01)
    (corrupted,) = gradcheck.run_suite(graphs_per_check=2, checks=["gmn_label_pairs"])
    assert clean.passed and not corrupted.passed


def test_unknown_check_names_are_rejected():
    # an unknown name used to select nothing, and an empty suite passes
    with pytest.raises(ValueError, match=r"unknown checks \['pooling', 'gnc'\]; valid names: "
                                         r"\['gmn_encoder', .*'packed_batch'\]"):
        gradcheck.run_suite(checks=["gcn", "pooling", "gnc"])


def test_at_least_one_graph_per_check():
    # zero graphs gave every check max_error 0.0, so every check passed
    for value in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="^graphs_per_check must be an integer >= 1, got "):
            gradcheck.run_suite(graphs_per_check=value, checks=["loss_le"])


def test_suite_runs_in_float64_whatever_the_setting():
    checks = ["gcn", "loss_lc"]
    pinned = gradcheck.run_suite(graphs_per_check=2, checks=checks)
    with ad.precision(np.float32):
        inside = gradcheck.run_suite(graphs_per_check=2, checks=checks)
    assert [r.max_error for r in inside] == [r.max_error for r in pinned]


def test_full_model_check_runs_the_training_path(monkeypatch):
    # it used to build its rows with compute_features and index_map and call forward_graph;
    # the whole check takes about 16 s a graph, so the forward pass stops at its first call
    class Reached(Exception):
        pass

    seen = []

    def forward_batch(model, batch, mapped_by_index=None):
        seen.append((batch, mapped_by_index))
        raise Reached

    monkeypatch.setattr(SimPoolModel, "forward_batch", forward_batch)
    with pytest.raises(Reached):
        gradcheck._check_full_model(np.random.default_rng(0), 5)
    (batch, mapped), = seen
    # the check's draws, in order: the model seed, the graph, its node rows, its label
    rng = np.random.default_rng(0)
    rng.integers(0, 2**31)
    a = gradcheck._random_graph(rng, 5)
    x = rng.uniform(-1, 1, size=(5, 3))
    ds = Dataset("gradcheck", sp.csr_matrix(a), [0, 5], x, [int(rng.integers(0, 6))], 6)
    assert isinstance(batch, Batch) and batch.size == 1
    assert batch.indices.tolist() == [0] and batch.labels.tolist() == ds.graph_labels.tolist()
    assert (batch.edges.adjacency != sp.csr_matrix(a)).nnz == 0
    assert np.array_equal(batch.features, x)
    (rows,) = preprocess_dataset(ds, gradcheck.resolve_preset("enzymes", scale=1 / 32).sim)
    assert len(mapped) == 1 and mapped[0].dtype == rows.dtype == np.float64
    assert mapped[0].tobytes() == rows.tobytes()
