"""Tier-1 smoke run of the finite-difference suite."""

import numpy as np

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


def test_suite_runs_in_float64_whatever_the_setting():
    checks = ["gcn", "loss_lc"]
    pinned = gradcheck.run_suite(graphs_per_check=2, checks=checks)
    with ad.precision(np.float32):
        inside = gradcheck.run_suite(graphs_per_check=2, checks=checks)
    assert [r.max_error for r in inside] == [r.max_error for r in pinned]
