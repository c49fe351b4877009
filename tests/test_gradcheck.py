"""Tier-1 smoke run of the finite-difference suite."""

import numpy as np
import pytest

from simpool import autodiff as ad
from simpool import gradcheck


def test_suite_passes_except_full_model():
    # full_model_width16 alone takes about 19 s at two graphs, so it stays out
    checks = [name for name in gradcheck.SUITE_CHECKS if name != "full_model_width16"]
    results = gradcheck.run_suite(checks=checks)
    assert [r.name for r in results] == checks
    for r in results:
        assert r.graphs == 20
        assert r.tolerance == gradcheck.TOLERANCE
        assert r.passed, f"{r.name}: {r.max_error:.2e} >= {r.tolerance:.0e}"


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
