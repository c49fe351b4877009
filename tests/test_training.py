"""Tests for the optimiser, the training loop, and run statistics."""

from dataclasses import replace

import numpy as np
import pytest

from simpool import autodiff as ad
from simpool import training
from simpool.autodiff import NumericError
from simpool.model import ConfigError, resolve_preset
from simpool.similarity import SimilarityConfig
from simpool.training import (
    Adam,
    TrainConfig,
    adam_update,
    cross_validate,
    fold_aggregate,
    stats_from_csv,
    stats_to_csv,
    train_run,
)

from conftest import separable_dataset


def small_config(epochs=2, learning_rate=1e-4, **overrides):
    """ENZYMES at scale 1/32 with k = 6; other keywords go to TrainConfig."""
    preset = replace(
        resolve_preset("enzymes", scale=1 / 32),
        epochs=epochs,
        learning_rate=learning_rate,
        sim=SimilarityConfig(p=1, lam=0.0, alpha=1.0, k=6),
    )
    base = dict(assign_inputs="structural", batch_size=5, folds=5, seed=0)
    base.update(overrides)
    return TrainConfig(preset, **base)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.parameter(np.array([[1.5, -2.0]]))
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros_like(p.values)
        before = p.values.copy()
        opt.step()
        np.testing.assert_array_equal(p.values, before)
        # run a non-zero step, then a zero step: moments decay
        p.grad = np.ones_like(p.values)
        opt.step()
        m_after_grad = opt.m["p"].copy()
        p.grad = np.zeros_like(p.values)
        opt.step()
        np.testing.assert_allclose(opt.m["p"], 0.9 * m_after_grad, rtol=1e-12)

    def test_first_step_magnitude_is_lr(self):
        # single scalar, g = 1, t = 1: bias correction gives delta = -lr
        p = ad.parameter(np.array([[0.0]]))
        opt = Adam({"p": p}, lr=1e-3)
        p.grad = np.array([[1.0]])
        opt.step()
        np.testing.assert_allclose(p.values, [[-1e-3]], rtol=1e-7)

    def test_constant_gradient_approaches_lr_sign(self):
        value = np.array([[0.0]])
        m = np.zeros_like(value)
        v = np.zeros_like(value)
        g = np.array([[-3.7]])
        lr = 0.01
        deltas = []
        for t in range(1, 200):
            before = value.copy()
            adam_update(value, g, m, v, t, lr)
            deltas.append((value - before).item())
        # updates settle at -lr * sign(g) = +lr
        np.testing.assert_allclose(deltas[-1], lr, rtol=1e-3)

    def test_non_finite_gradient_names_parameter(self):
        p = ad.parameter(np.ones((2, 2)))
        opt = Adam({"weird_param": p}, lr=0.1)
        p.grad = np.full((2, 2), np.nan)
        with pytest.raises(NumericError, match="weird_param"):
            opt.step()

    def test_non_finite_gradient_updates_no_parameter(self):
        first = ad.parameter(np.array([[1.0, 2.0]]))
        second = ad.parameter(np.array([[3.0]]))
        opt = Adam({"first": first, "second": second}, lr=0.1)
        first.grad = np.array([[0.5, -0.5]])
        second.grad = np.array([[np.nan]])
        with pytest.raises(NumericError, match="second"):
            opt.step()
        np.testing.assert_array_equal(first.values, [[1.0, 2.0]])
        np.testing.assert_array_equal(opt.m["first"], 0.0)
        assert opt.t == 0


class TestTrainRun:
    def test_smoke_one_epoch(self, toy_dataset):
        cfg = small_config(epochs=1)
        stats, model = train_run(cfg, toy_dataset, fold=0)
        assert len(stats.epochs) == 1
        assert not stats.aborted
        row = stats.epochs[0]
        assert 0.0 <= row.train_acc <= 1.0
        assert 0.0 <= row.val_acc <= 1.0
        assert 1 <= row.clusters[0] <= 8
        assert 1 <= row.clusters[1] <= 4

    def test_deterministic_stats_stream(self, toy_dataset):
        cfg = small_config(epochs=2, seed=3)
        s1, _ = train_run(cfg, toy_dataset, fold=0)
        s2, _ = train_run(cfg, toy_dataset, fold=0)
        assert stats_to_csv(s1) == stats_to_csv(s2)

    def test_best_accuracy_at_least_initial(self, tmp_path):
        ds = separable_dataset(tmp_path, count=30, seed=11)
        cfg = small_config(epochs=5, folds=5, seed=1, assign_inputs="structural")
        stats, _ = train_run(cfg, ds, fold=0)
        assert stats.max_val_acc >= stats.epochs[0].val_acc

    def test_invalid_fold_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            train_run(small_config(), toy_dataset, fold=7)

    def test_unknown_assign_inputs_rejected_before_preprocessing(self, toy_dataset, monkeypatch):
        def preprocess_dataset(*args, **kwargs):
            raise AssertionError("similarity pass ran before the mode was checked")

        monkeypatch.setattr(training, "preprocess_dataset", preprocess_dataset)
        with pytest.raises(ConfigError, match="bogus"):
            train_run(small_config(assign_inputs="bogus"), toy_dataset, fold=0)

    def test_node_mode_needs_no_mapped_features(self, toy_dataset):
        cfg = small_config(epochs=1, assign_inputs="node")
        stats, _ = train_run(cfg, toy_dataset, fold=0)
        assert len(stats.epochs) == 1

    def test_non_finite_gradient_aborts_run_and_marks_cv_partial(self, toy_dataset,
                                                                   corrupt_backward):
        cfg = small_config(epochs=1, folds=2)
        corrupt_backward("matmul", float("nan"))
        stats, _ = train_run(cfg, toy_dataset, fold=0)
        result = cross_validate(cfg, toy_dataset)
        assert stats.aborted
        assert stats.epochs == []
        assert result.partial
        assert all(s.aborted for s in result.fold_stats)

    def test_settings_come_from_the_named_preset(self, toy_dataset):
        # DD's own top-k width (25), not ENZYMES' (12), sizes the stage-0
        # assignment input
        cfg = TrainConfig(replace(resolve_preset("dd", 1 / 32), epochs=1), batch_size=5, folds=2)
        stats, model = train_run(cfg, toy_dataset, fold=0)
        assert len(stats.epochs) == 1
        assert model.sim.k == 25
        assert model.parameters()["s0.enc.node_mlp.w"].shape[0] == 25
        assert cfg.to_dict()["preset"]["sim"]["k"] == 25

    def test_learns_separable_task(self, tmp_path):
        ds = separable_dataset(tmp_path, count=40, seed=5)
        cfg = small_config(epochs=12, folds=4, seed=2, batch_size=10,
                           learning_rate=3e-3)
        stats, _ = train_run(cfg, ds, fold=0)
        assert stats.max_val_acc >= 0.7, [e.val_acc for e in stats.epochs]


class TestStatsCsv:
    def test_round_trip_exact(self, toy_dataset):
        cfg = small_config(epochs=2)
        stats, _ = train_run(cfg, toy_dataset, fold=0)
        text = stats_to_csv(stats)
        replayed = stats_from_csv(text)
        assert stats_to_csv(replayed) == text
        for a, b in zip(stats.epochs, replayed.epochs):
            assert a == b

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            stats_from_csv("nope\n1,2,3\n")


class TestCrossValidate:
    def test_two_folds_mean_of_maxima(self, toy_dataset):
        cfg = small_config(epochs=1, folds=2)
        result = cross_validate(cfg, toy_dataset)
        assert len(result.maxima) == 2
        np.testing.assert_allclose(result.mean, np.mean(result.maxima))
        assert not result.partial

    def test_identical_fold_accuracies_zero_std(self):
        # 3 folds, the 10 folds of the paper's protocol, and 7 folds
        for maxima in ([0.4] * 3, [0.65] * 10, [0.9] * 7):
            mean, std = fold_aggregate(maxima)
            assert std == 0.0, maxima
            assert mean == maxima[0], maxima

    def test_aggregate_of_no_folds_raises(self):
        with pytest.raises(ValueError, match="at least one fold"):
            fold_aggregate([])

    def test_known_aggregation_arithmetic(self):
        mean, std = fold_aggregate([0.7, 0.8])
        np.testing.assert_allclose(mean, 0.75, rtol=1e-12)
        np.testing.assert_allclose(std, 0.05, rtol=1e-12)

    def test_config_validation(self):
        preset = resolve_preset("enzymes", scale=1 / 32)
        with pytest.raises(ValueError):
            replace(preset, learning_rate=0.0)
        with pytest.raises(ValueError):
            replace(preset, epochs=0)
        with pytest.raises(ValueError):
            replace(preset, w_e=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(preset, batch_size=0)
        with pytest.raises(ValueError):
            cross_validate(small_config(folds=1), None)
