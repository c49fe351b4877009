"""Tests for the optimiser, the training loop, and run statistics."""

import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool import training
from simpool.autodiff import NumericError
from simpool.data import Batch, PaddedBatch, batch_positions, make_batches
from simpool.model import (PRESETS, ConfigError, SimPoolModel, load_checkpoint, resolve_preset,
                           save_checkpoint)
from simpool.similarity import SimilarityConfig, preprocess_dataset
from simpool.training import (
    STATS_HEADER,
    Adam,
    TrainConfig,
    cross_validate,
    evaluate_accuracy,
    fold_aggregate,
    stats_from_csv,
    stats_to_csv,
    train_run,
)

from conftest import dataset_of, ring_graph, row_store, separable_dataset
from oracles import adam_step_formula, forward_graph_loop


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
        p = ad.parameter(np.array([[0.0]]))
        lr = 0.01
        opt = Adam({"p": p}, lr=lr)
        deltas = []
        for _ in range(1, 200):
            before = p.values.copy()
            p.grad = np.array([[-3.7]])
            opt.step()
            deltas.append((p.values - before).item())
        # updates settle at -lr * sign(g) = +lr
        np.testing.assert_allclose(deltas[-1], lr, rtol=1e-3)

    def test_learning_rate_must_be_positive_and_finite(self):
        # nan used to turn every parameter to nan on the first step
        p = ad.parameter(np.ones((2, 2)))
        for lr in (float("nan"), -1.0, 0.0, float("inf")):
            with pytest.raises(ValueError, match="^lr must be positive and finite"):
                Adam({"p": p}, lr=lr)

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

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_in_place_step_matches_the_formula_bytes(self, dtype):
        # "unused" never gets a gradient; "huge" is larger than one slice of the formula's
        # pass, and the edge between two slices falls inside it
        shapes = {"w": (7, 5), "big": (40, 9), "huge": (3, training.ADAM_SLICE // 2 + 5),
                  "b": (1, 5), "unused": (3, 2)}
        rng = np.random.default_rng(12)
        start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        with ad.precision(dtype):
            params = {k: ad.parameter(x.copy()) for k, x in start.items()}
            reference = {k: ad.parameter(x.copy()) for k, x in start.items()}
        opt = Adam(params, lr=0.01)
        m = {k: np.zeros_like(p.values) for k, p in reference.items()}
        v = {k: np.zeros_like(p.values) for k, p in reference.items()}
        for t in (1, 2, 3):
            for k, shape in shapes.items():
                g = None if k == "unused" else rng.normal(size=shape).astype(dtype)
                params[k].grad = reference[k].grad = g
            opt.step()
            adam_step_formula(reference, m, v, t, 0.01)
        for k in shapes:
            assert params[k].values.dtype == opt.m[k].dtype == opt.v[k].dtype == dtype
            assert params[k].values.tobytes() == reference[k].values.tobytes()
            assert opt.m[k].tobytes() == m[k].tobytes()
            assert opt.v[k].tobytes() == v[k].tobytes()

    def test_parameters_of_two_dtypes_are_rejected(self):
        # the arena holds one dtype; a wider scratch used to round the float32 moments
        # through float64
        with ad.precision(np.float32):
            narrow = ad.parameter(np.ones((2, 3)))
        with ad.precision(np.float64):
            wide = ad.parameter(np.ones((3, 1)))
        with pytest.raises(TypeError, match=r"float32 \(narrow.*float64 \(wide"):
            Adam({"narrow": narrow, "wide": wide}, lr=0.1)

    def test_parameters_live_in_one_arena(self, toy_dataset):
        """Values, gradients, m and v are views of four flat arrays, one each, and the
        model keeps its own tensors, now reading the arena."""
        model = SimPoolModel(small_config().preset, toy_dataset.feature_dim,
                             toy_dataset.num_classes, "node")
        params = model.parameters()
        tensors = dict(params)
        opt = Adam(params, lr=1e-3)
        (batch,) = make_batches(toy_dataset, len(toy_dataset))
        with ad.Tape() as tape:
            tape.backward(model.forward_batch(batch).total(1.0, 1.0))
        assert all(model.parameters()[name] is t for name, t in tensors.items())
        size = sum(t.values.size for t in tensors.values())
        arrays = {"values": [t.values for t in tensors.values()],
                  "grad": [t.grad for t in tensors.values()],
                  "m": list(opt.m.values()), "v": list(opt.v.values())}
        bases = {}
        for kind, views in arrays.items():
            (base,) = {id(x.base): x.base for x in views}.values()
            assert base.shape == (size,), kind
            assert all(np.shares_memory(x, base) for x in views), kind
            bases[kind] = base
        assert len({id(b) for b in bases.values()}) == 4
        opt.step()
        assert all(model.parameters()[name].values.base is bases["values"] for name in tensors)

    @staticmethod
    def _step_pair(dtype, grads_per_step, assign=None):
        """Step ``Adam`` and the formula side by side; each step's gradients come from a
        backward pass, so they land in the arena, and ``assign`` then sets ``grad``s directly."""
        rng = np.random.default_rng(3)
        start = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(2, 3))}
        with ad.precision(dtype):
            params = {k: ad.parameter(x.copy()) for k, x in start.items()}
            reference = {k: ad.parameter(x.copy()) for k, x in start.items()}
            weights = {k: ad.constant(rng.normal(size=x.shape)) for k, x in start.items()}
        opt = Adam(params, lr=0.01)
        m = {k: np.zeros_like(p.values) for k, p in reference.items()}
        v = {k: np.zeros_like(p.values) for k, p in reference.items()}
        for t, names in enumerate(grads_per_step, start=1):
            opt.zero_grad()
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.multiply(params[names[0]], weights[names[0]]))
                for k in names[1:]:
                    loss = ad.add(loss, ad.sum_all(ad.multiply(params[k], weights[k])))
                tape.backward(loss)
            for k, g in (assign or {}).items():
                params[k].grad = g.astype(dtype)
            for k, p in params.items():
                reference[k].grad = None if p.grad is None else p.grad.copy()
            opt.step()
            adam_step_formula(reference, m, v, t, 0.01)
        for k in start:
            assert params[k].values.tobytes() == reference[k].values.tobytes(), k
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_a_gradient_that_stops_arriving_counts_as_zero(self, dtype):
        # "a" has a gradient in the arena at step 1 and none at steps 2 and 3
        self._step_pair(dtype, [("a", "b"), ("b",), ("b",)])

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_a_directly_assigned_gradient_is_used(self, dtype):
        self._step_pair(dtype, [("a", "b"), ("a", "b")],
                        assign={"a": np.arange(12.0).reshape(4, 3) - 5.5})

    def test_a_loaded_checkpoint_is_what_the_next_step_updates(self, tmp_path):
        preset = small_config().preset
        source = SimPoolModel(preset, feature_dim=3, num_classes=2, assign_inputs="node", seed=0)
        target = SimPoolModel(preset, feature_dim=3, num_classes=2, assign_inputs="node", seed=1)
        save_checkpoint(tmp_path / "source.npz", source)
        opt = Adam(target.parameters(), lr=0.01)
        load_checkpoint(tmp_path / "source.npz", target)
        reference = source.parameters()
        rng = np.random.default_rng(8)
        for name, p in target.parameters().items():
            p.grad = reference[name].grad = rng.normal(size=p.values.shape)
        opt.step()
        adam_step_formula(reference, {k: np.zeros_like(p.values) for k, p in reference.items()},
                          {k: np.zeros_like(p.values) for k, p in reference.items()}, 1, 0.01)
        for name, p in target.parameters().items():
            assert p.values.tobytes() == reference[name].values.tobytes(), name

    def test_scratch_does_not_grow_with_the_largest_parameter(self):
        opt = Adam({"huge": ad.parameter(np.zeros((5, training.ADAM_SLICE)))}, lr=0.1)
        assert opt._scratch.shape == (2, training.ADAM_SLICE)


class TestFloat32Training:
    @pytest.mark.parametrize("assign_inputs", ("structural", "both"))
    def test_one_step_keeps_every_array_float32(self, tmp_path, monkeypatch, assign_inputs):
        """One float32 step on a three-graph union: no op output, gradient or
        moment is promoted to float64, and only the probabilities are float64."""
        ds = separable_dataset(tmp_path, count=3)
        outputs = []
        original = ad._record

        def record(op_name, out, parents, backward):
            outputs.append((op_name, out.values.dtype))
            return original(op_name, out, parents, backward)

        monkeypatch.setattr(ad, "_record", record)
        cfg = small_config(assign_inputs=assign_inputs)
        with ad.precision(np.float32):
            model = SimPoolModel(cfg.preset, feature_dim=ds.feature_dim,
                                 num_classes=ds.num_classes, assign_inputs=assign_inputs)
            optimiser = Adam(model.parameters(), 1e-3)
            (batch,) = make_batches(ds, 3)
            with ad.Tape() as tape:
                fwd = model.forward_batch(batch, preprocess_dataset(ds, model.sim))
                tape.backward(fwd.total(1.0, 1.0))
            optimiser.step()
        f32 = np.dtype(np.float32)
        edges = batch.edges
        assert edges.adjacency.dtype == edges.degree.dtype == f32
        assert edges.receiver_incidence.dtype == edges.sender_incidence.dtype == f32
        assert len(outputs) > 100
        assert [op for op, dtype in outputs if dtype != f32] == []
        for name, p in model.parameters().items():
            assert p.values.dtype == p.grad.dtype == f32, name
            assert optimiser.m[name].dtype == optimiser.v[name].dtype == f32, name
        assert fwd.probs.dtype == np.float64
        np.testing.assert_allclose(fwd.probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_float32_features_step_as_their_float64_copies(self, toy_dataset, dtype):
        """Bool one-hot rows step as their float64 copies, byte for byte. The label
        column they came from takes the label-pair path, which equals the rows'
        per-edge path in exact arithmetic, so it steps as they do up to rounding."""
        assert toy_dataset.node_features.ndim == 1
        cfg = small_config(assign_inputs="both")
        steps = []
        for ds in (row_store(toy_dataset, bool), row_store(toy_dataset), toy_dataset):
            with ad.precision(dtype):
                model = SimPoolModel(cfg.preset, feature_dim=ds.feature_dim,
                                     num_classes=ds.num_classes, assign_inputs="both")
                optimiser = Adam(model.parameters(), 1e-3)
                (batch,) = make_batches(ds, len(ds))
                with ad.Tape() as tape:
                    fwd = model.forward_batch(batch, preprocess_dataset(ds, model.sim))
                    tape.backward(fwd.total(1.0, 1.0))
                grads = {k: p.grad.astype(np.float64) for k, p in model.parameters().items()}
                optimiser.step()
            steps.append(([loss.values.tobytes() for loss in fwd.losses.values()],
                          {k: p.values.tobytes() for k, p in model.parameters().items()},
                          [loss.item() for loss in fwd.losses.values()], grads))
        bool_rows, float_rows, column = steps
        assert bool_rows[:2] == float_rows[:2]
        tolerance = {np.float64: 1e-12, np.float32: 1e-4}[dtype]
        np.testing.assert_allclose(column[2], float_rows[2], rtol=tolerance)
        for name, grad in float_rows[3].items():
            err = np.abs(column[3][name] - grad).max() / np.abs(grad).max()
            assert err <= tolerance, f"{name}: {err:.1e}"

    @pytest.mark.parametrize("assign_inputs", ("structural", "both"))
    def test_float32_structural_rows_step_as_their_float64_source(self, toy_dataset,
                                                                  assign_inputs):
        """Rows stored in float32 at preprocessing give the float32 step of
        the float64 rows, which the tape rounds to the same values."""
        cfg = small_config(assign_inputs=assign_inputs)
        wide = preprocess_dataset(toy_dataset, cfg.preset.sim)
        with ad.precision(np.float32):
            rounded = preprocess_dataset(toy_dataset, cfg.preset.sim)
        assert wide[0].dtype == np.float64 and rounded[0].dtype == np.float32
        steps = []
        for mapped in (wide, rounded):
            with ad.precision(np.float32):
                model = SimPoolModel(cfg.preset, feature_dim=toy_dataset.feature_dim,
                                     num_classes=toy_dataset.num_classes,
                                     assign_inputs=assign_inputs)
                optimiser = Adam(model.parameters(), 1e-3)
                (batch,) = make_batches(toy_dataset, len(toy_dataset))
                with ad.Tape() as tape:
                    fwd = model.forward_batch(batch, mapped)
                    tape.backward(fwd.total(1.0, 1.0))
                optimiser.step()
            steps.append(([loss.values.tobytes() for loss in fwd.losses.values()],
                          {k: p.values.tobytes() for k, p in model.parameters().items()}))
        assert steps[0] == steps[1]


class TestTrainRun:
    def test_smoke_one_epoch(self, toy_dataset):
        cfg = small_config(epochs=1)
        stats, model = train_run(cfg, toy_dataset, fold=0)
        assert len(stats.epochs) == 1
        assert not stats.aborted
        row = stats.epochs[0]
        assert 0.0 <= row.train_acc <= 1.0
        assert 0.0 <= row.val_acc <= 1.0
        assert 1 <= row.clusters_0 <= 8
        assert 1 <= row.clusters_1 <= 4

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
        with pytest.raises(ValueError, match=r"^fold 7 outside \[0, 5\)"):
            train_run(small_config(), toy_dataset, fold=7)
        # True used to train fold 1, and 1.5 failed with a bare TypeError from splits[1.5]
        for value in (True, 1.5, float("nan"), -1, "0"):
            with pytest.raises(ValueError, match="^fold must be an integer >= 0"):
                train_run(small_config(), toy_dataset, fold=value)

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

    def test_an_epoch_holds_a_few_batches_not_all(self, monkeypatch):
        # 40 300-node rings in batches of 2: fold 0 has 18 training and 2 validation
        # batches; each must be released before the next few are built
        a = sp.csr_matrix(ring_graph(300))
        ds = dataset_of([(a, np.ones((300, 1)), i % 2) for i in range(40)], name="RINGS")
        cfg = small_config(epochs=1, assign_inputs="node", batch_size=2, folds=10)
        live, built, most = [0], [0], [0]

        def released():
            live[0] -= 1

        # PaddedBatch too, so that a loop built on make_batches is counted as well
        for kind in (Batch, PaddedBatch):
            def of(cls, *args, build=kind.of, **kwargs):
                batch = build(*args, **kwargs)
                live[0] += 1
                built[0] += 1
                most[0] = max(most[0], live[0])
                weakref.finalize(batch, released)
                return batch

            monkeypatch.setattr(kind, "of", classmethod(of))
        train_run(cfg, ds, fold=0)
        assert built[0] >= 20
        assert most[0] <= 3, most[0]

    def test_training_and_evaluation_never_pad(self, toy_dataset, monkeypatch):
        def of(cls, *args, **kwargs):
            raise AssertionError("a padded batch was built")

        monkeypatch.setattr(PaddedBatch, "of", classmethod(of))
        cfg = small_config(epochs=1, folds=2)
        stats, model = train_run(cfg, toy_dataset, fold=0)
        assert len(stats.epochs) == 1
        assert len(cross_validate(cfg, toy_dataset).fold_stats) == 2
        mapped = preprocess_dataset(toy_dataset, cfg.preset.sim)
        assert 0.0 <= evaluate_accuracy(model, toy_dataset, np.arange(10), mapped, 3) <= 1.0

    def test_an_epoch_over_a_large_graph_stays_below_one_padded_copy(self):
        # a 3,000-node ring among small ones: one padded copy of it alone is
        # 3000^2 float64 = 72 MB, and its union is O(nodes + edges)
        n = 3000
        graphs = [(sp.csr_matrix(ring_graph(n)), np.ones((n, 1)), 0)]
        graphs += [(sp.csr_matrix(ring_graph(8)), np.ones((8, 1)), i % 2) for i in range(5)]
        ds = dataset_of(graphs, name="BIG_RING")
        cfg = small_config(epochs=1, assign_inputs="node", batch_size=2, folds=2)
        tracemalloc.start()
        try:
            train_run(cfg, ds, fold=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, peak / (n * n * 8)

    @pytest.mark.parametrize("assign_inputs,builds", (("structural", 1), ("both", 1), ("node", 0)))
    def test_a_run_builds_its_rows_once(self, toy_dataset, monkeypatch, assign_inputs, builds):
        calls = []

        def counted(ds, cfg):
            calls.append(cfg)
            return preprocess_dataset(ds, cfg)

        monkeypatch.setattr(training, "preprocess_dataset", counted)
        cfg = small_config(epochs=2, assign_inputs=assign_inputs)
        train_run(cfg, toy_dataset, fold=0)
        assert calls == [cfg.preset.sim] * builds

    @pytest.mark.parametrize("assign_inputs", ("structural", "both"))
    def test_each_fold_builds_its_own_rows(self, toy_dataset, monkeypatch, assign_inputs):
        # the rows used to be built once for all folds and handed to each
        cfg = small_config(epochs=2, folds=2, assign_inputs=assign_inputs)
        cached = preprocess_dataset(toy_dataset, cfg.preset.sim)
        monkeypatch.setattr(training, "preprocess_dataset", lambda ds, sim: cached)
        expected = [stats_to_csv(s) for s in cross_validate(cfg, toy_dataset).fold_stats]
        calls = []

        def counted(ds, sim):
            calls.append(sim)
            return preprocess_dataset(ds, sim)

        monkeypatch.setattr(training, "preprocess_dataset", counted)
        result = cross_validate(cfg, toy_dataset)
        assert len(calls) == 2
        assert [stats_to_csv(s) for s in result.fold_stats] == expected

    def test_learns_separable_task(self, tmp_path):
        ds = separable_dataset(tmp_path, count=40, seed=5)
        cfg = small_config(epochs=12, folds=4, seed=2, batch_size=10,
                           learning_rate=3e-3)
        stats, _ = train_run(cfg, ds, fold=0)
        assert stats.max_val_acc >= 0.7, [e.val_acc for e in stats.epochs]


class TestEvaluateAccuracy:
    # untrained seeds whose predictions differ between graphs, so the count depends
    # on which graph each probability row belongs to
    @pytest.mark.parametrize("assign_inputs,seed", (("structural", 2), ("node", 0), ("both", 9)))
    def test_packed_batches_count_like_single_graphs(self, tmp_path, assign_inputs, seed):
        ds = separable_dataset(tmp_path, count=12)
        preset = resolve_preset("enzymes", 1 / 32)
        model = SimPoolModel(preset, ds.feature_dim, ds.num_classes, assign_inputs, seed=seed)
        mapped = preprocess_dataset(ds, preset.sim)
        indices = np.array([7, 0, 3, 10, 5, 11, 2, 8, 1, 9, 4, 6])
        with ad.no_grad():
            predicted = [forward_graph_loop(model, ds.graphs[i].adjacency.toarray(),
                                            ds.graphs[i].node_features, ds.graphs[i].label,
                                            mapped[i]).probs.argmax() for i in indices]
        assert len(set(predicted)) == 2
        expected = np.mean(np.array(predicted) == ds.labels()[indices])
        for batch_size in (1, 3, indices.size):
            assert evaluate_accuracy(model, ds, indices, mapped, batch_size) == expected

    @staticmethod
    def _counted_from_forward(model, ds, indices, mapped, batch_size):
        """Correct graphs counted from ``forward_batch``'s probabilities, batch by batch."""
        correct = 0
        with ad.no_grad():
            for chunk in batch_positions(ds, batch_size, subset=indices):
                batch = Batch.of(ds, chunk)
                predicted = model.forward_batch(batch, mapped).probs.argmax(axis=1)
                correct += int((predicted == batch.labels).sum())
        return correct / indices.size

    def test_evaluation_builds_no_objective(self, tmp_path, monkeypatch):
        ds = separable_dataset(tmp_path, count=12)
        preset = resolve_preset("enzymes", 1 / 32)
        model = SimPoolModel(preset, ds.feature_dim, ds.num_classes, "structural", seed=2)
        mapped = preprocess_dataset(ds, preset.sim)
        indices = np.arange(12)
        expected = self._counted_from_forward(model, ds, indices, mapped, 5)

        def no_loss(*args):
            raise AssertionError("evaluation built a loss term")

        for loss in ("cross_entropy", "loss_le", "loss_lc"):
            monkeypatch.setattr(f"simpool.model.{loss}", no_loss)
        assert evaluate_accuracy(model, ds, indices, mapped, 5) == expected

    def test_predict_records_nothing_inside_a_tape(self, tmp_path):
        ds = separable_dataset(tmp_path, count=4)
        model = SimPoolModel(resolve_preset("enzymes", 1 / 32), ds.feature_dim, ds.num_classes,
                             "both", seed=0)
        batch = Batch.of(ds, np.arange(4))
        mapped = preprocess_dataset(ds, model.sim)
        with ad.Tape() as tape:
            classes = model.predict(batch, mapped)
        assert len(tape) == 0
        with ad.no_grad():
            np.testing.assert_array_equal(
                classes, model.forward_batch(batch, mapped).probs.argmax(axis=1))

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    # seeds whose untrained model predicts both classes, and not all of them right
    @pytest.mark.parametrize("assign_inputs,seed", (("structural", 2), ("node", 0), ("both", 9)))
    def test_accuracy_is_the_count_from_forward_probabilities(self, tmp_path, assign_inputs,
                                                              seed, dtype):
        ds = separable_dataset(tmp_path, count=15)
        indices = np.array([4, 11, 0, 7, 14, 2, 9, 5, 12, 1, 8, 3, 13, 6, 10])
        with ad.precision(dtype):
            model = SimPoolModel(resolve_preset("enzymes", 1 / 32), ds.feature_dim,
                                 ds.num_classes, assign_inputs, seed=seed)
            mapped = preprocess_dataset(ds, model.sim)
            expected = self._counted_from_forward(model, ds, indices, mapped, 4)
            assert 0.0 < expected < 1.0
            assert evaluate_accuracy(model, ds, indices, mapped, 4) == expected

    def test_positions_outside_the_dataset_rejected(self, tmp_path):
        ds = separable_dataset(tmp_path, count=2)
        model = SimPoolModel(resolve_preset("enzymes", 1 / 32), ds.feature_dim, ds.num_classes,
                             "node", seed=0)
        for indices, bad in (([-1], -1), ([0, 5], 5)):
            with pytest.raises(ValueError, match=rf"position {bad} outside \[0, 2\)"):
                evaluate_accuracy(model, ds, indices)


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

    def test_header_pinned(self):
        assert STATS_HEADER == (
            "epoch,task_loss,le_0,le_1,lc_0,lc_1,train_acc,val_acc,clusters_0,clusters_1"
        )

    def test_malformed_rows_rejected(self):
        good = "3,0.5,1.25,1.0,0.25,0.125,0.75,0.5,4,2"
        assert stats_from_csv(f"{STATS_HEADER}\n{good}\n").epochs[0].clusters_0 == 4
        for row in ("3,0.5,1.25,1.0,0.25,0.125,0.75,0.5,4",
                    "3,0.5,1.25,1.0,0.25,0.125,0.75,0.5,4,2,1",
                    "3,0.5,abc,1.0,0.25,0.125,0.75,0.5,4,2",
                    "3,0.5,1.25,1.0,0.25,0.125,0.75,0.5,4.5,2"):
            with pytest.raises(ValueError):
                stats_from_csv(f"{STATS_HEADER}\n{row}\n")


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

    def test_real_settings_reject_bools_and_non_numbers_by_name(self):
        # each of these used to construct, or to fail with a bare TypeError from '<='
        preset = PRESETS["enzymes"]
        settings = {
            "lam": lambda v: SimilarityConfig(lam=v),
            "alpha": lambda v: SimilarityConfig(alpha=v),
            "learning_rate": lambda v: replace(preset, learning_rate=v),
            "w_e": lambda v: replace(preset, w_e=v),
            "scale": lambda v: resolve_preset("enzymes", scale=v),
            "lr": lambda v: Adam({}, lr=v),
        }
        for name, build in settings.items():
            for value in (True, False, "1", "0.5", "1e-3", None):
                with pytest.raises(ValueError, match=rf"^{name} must be a real number, got "
                                                     rf"{re.escape(repr(value))}$"):
                    build(value)
            build(np.float32(0.5))  # numpy scalars are real numbers
        with pytest.raises(ConfigError, match="^scale must be a real number"):
            resolve_preset("enzymes", scale="1")

    def test_ranges_are_kept(self):
        preset = PRESETS["enzymes"]
        for build, value, message in (
                (lambda v: SimilarityConfig(lam=v), -0.5, "lam must be non-negative and finite"),
                (lambda v: SimilarityConfig(alpha=v), 1.5, r"alpha must be in \[0, 1\]"),
                (lambda v: replace(preset, learning_rate=v), 0.0,
                 "learning_rate must be positive and finite"),
                (lambda v: replace(preset, w_c=v), float("inf"),
                 "w_c must be non-negative and finite"),
                (lambda v: Adam({}, lr=v), float("nan"), "lr must be positive and finite")):
            with pytest.raises(ValueError, match=f"^{message}, got {value!r}$"):
                build(value)
        assert SimilarityConfig(lam=0, alpha=0).alpha == 0
        assert replace(preset, w_e=0.0, learning_rate=np.float64(1e-3)).w_e == 0.0

    def test_a_preset_name_is_not_a_preset(self):
        # TrainConfig(preset="enzymes") used to construct and fail in train_run with an
        # AttributeError on 'str'
        with pytest.raises(ConfigError, match="^preset must be a ModelPreset, got str 'enzymes'; "
                                              "build one with resolve_preset$"):
            TrainConfig(preset="enzymes")

    def test_batch_size_and_folds_must_be_integers(self):
        # 2.5 failed later as a slice index or in kfold_split, one fold only in train_run
        for field, least, values in (("batch_size", 1, (2.5, True, float("nan"), 0)),
                                     ("folds", 2, (2.5, True, float("nan"), 1, 0))):
            for value in values:
                with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}"):
                    small_config(**{field: value})
        assert small_config(batch_size=np.int64(4), folds=np.int32(3)).folds == 3

    def test_seed_must_be_a_non_negative_integer(self):
        # 2.5 and -1 used to construct and fail in kfold_split's default_rng with a
        # bare TypeError or ValueError; True seeded as 1
        for value in (2.5, -1, True, float("nan"), "0"):
            with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
                small_config(seed=value)
        assert small_config(seed=np.int64(4)).seed == 4
