"""Tests for the assembled pooling model, presets, and checkpoints."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool.data import Graph, PaddedBatch, make_batches
from simpool.layers import Edges, pool_forward
from simpool.model import (
    ASSIGN_INPUTS,
    LOSS_TERMS,
    ConfigError,
    PRESETS,
    SimPoolModel,
    load_checkpoint,
    resolve_preset,
    save_checkpoint,
)
from simpool.similarity import SimilarityConfig, index_map, preprocess_dataset

from conftest import mixed_dataset, random_graph, separable_dataset
from oracles import decode_index, forward_graph_loop, similarity_dense_symmetric


def tiny_model(assign_inputs="structural", seed=0, num_classes=3, feature_dim=3):
    preset = resolve_preset("enzymes", scale=1 / 32)
    return SimPoolModel(
        preset,
        feature_dim=feature_dim,
        num_classes=num_classes,
        assign_inputs=assign_inputs,
        seed=seed,
    )


def forward_one(model, a, x, label, mapped=None):
    """``forward_graph`` on a batch of one graph."""
    return model.forward_graph(PaddedBatch.of([Graph(sp.csr_matrix(a), x, label)]), mapped)


def graph_inputs(rng, n, d, k):
    a = random_graph(rng, n, 0.5)
    x = rng.normal(size=(n, d))
    cfg = SimilarityConfig(p=1, lam=0.0, alpha=1.0, k=k)
    feats = similarity_dense_symmetric(a, cfg)
    mapped = index_map(feats, cfg).mapped
    return a, x, mapped


class TestPresets:
    def test_enzymes_cluster_schedule(self):
        p = PRESETS["enzymes"]
        assert p.clusters_1 == 8 and p.clusters_2 == 4
        assert p.gmn_units == 512 and p.embed_units == 256
        assert p.sim.k == 12 and p.w_e == 1.0 and p.w_c == 1.0
        assert p.epochs == 100 and p.learning_rate == 1e-4

    def test_dd_cluster_schedule(self):
        p = PRESETS["dd"]
        assert p.clusters_1 == 32 and p.clusters_2 == 8
        assert p.gmn_units == 1024 and p.embed_units == 1024
        assert p.sim.k == 25 and p.w_e == 0.4
        assert p.epochs == 230

    def test_scale_leaves_structure_fixed(self):
        p = resolve_preset("enzymes", scale=0.125)
        assert p.gmn_units == 64
        assert p.embed_units == 32
        assert p.clusters_1 == 8 and p.clusters_2 == 4
        assert p.gcn2_units == 128
        assert p.sim.k == 12

    def test_cluster_override_resizes_both_assignment_nets(self):
        # the stage-0 S stack ends in clusters_1 logits and stage 1 reads them
        preset = replace(resolve_preset("enzymes", 1 / 32), clusters_1=16)
        model = SimPoolModel(preset, 3, 6, seed=0)
        assert model.parameters()["s0.prop1.node.w"].shape[1] == 16
        assert model.parameters()["s1.0.w"].shape[0] == 16
        a, x, mapped = graph_inputs(np.random.default_rng(10), 9, 3, model.sim.k)
        with ad.Tape() as tape:
            out = forward_one(model, a, x, mapped=mapped, label=1)
            tape.backward(out.losses["task_loss"])
        assert out.assign_argmax[1].shape == (16,)
        for name, p in model.parameters().items():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name

    @pytest.mark.parametrize("size", ("gmn_units", "embed_units", "clusters_1", "clusters_2",
                                      "gcn1_units", "s1_hidden", "gcn2_units"))
    def test_sizes_below_one_rejected(self, size):
        preset = resolve_preset("enzymes", 1 / 32)
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{size} must be >= 1"):
                replace(preset, **{size: value})

    @pytest.mark.parametrize("field", ("gmn_units", "embed_units", "clusters_1", "clusters_2",
                                       "gcn1_units", "s1_hidden", "gcn2_units", "epochs"))
    def test_integer_fields_reject_floats_bools_and_nan(self, field):
        # 2.5 units failed later in SimPoolModel with a bare TypeError, nan epochs passed
        preset = resolve_preset("enzymes", 1 / 32)
        for value in (2.5, 2.0, True, float("nan"), "2"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                replace(preset, **{field: value})
        assert getattr(replace(preset, **{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field", ("learning_rate", "w_e", "w_c"))
    def test_rates_and_weights_must_be_finite(self, field):
        preset = resolve_preset("enzymes", 1 / 32)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                replace(preset, **{field: value})

    def test_scale_must_be_positive_and_finite(self):
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="scale"):
                resolve_preset("enzymes", scale)

    def test_unknown_assign_inputs_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            tiny_model(assign_inputs="bogus")

    def test_seed_must_be_a_non_negative_integer(self):
        # -1 and 2.5 used to fail in default_rng with a bare error, True seeded as 1
        for value in (2.5, -1, True, float("nan"), "0"):
            with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
                tiny_model(seed=value)
        assert tiny_model(seed=np.int64(4)).parameters()

    def test_aliases(self):
        # there are none: only the table's own keys resolve
        for name in PRESETS:
            assert resolve_preset(name).name == name
        for name in ("enzymes-paper", "dd-paper", "unknown"):
            with pytest.raises(ConfigError):
                resolve_preset(name)


def gmn_stack_shapes(name, in_dim, units, out_dim):
    """Relu encoder, relu propagation, linear propagation ending in `out_dim`."""
    shapes = [(f"{name}.enc.node_mlp.w", (in_dim, units)), (f"{name}.enc.node_mlp.b", (1, units))]
    for i, node in enumerate((units, out_dim)):
        shapes += [
            (f"{name}.prop{i}.msg.w_recv", (units, units)),
            (f"{name}.prop{i}.msg.w_send", (units, units)),
            (f"{name}.prop{i}.msg.b", (1, units)),
            (f"{name}.prop{i}.node.w", (2 * units, node)),
            (f"{name}.prop{i}.node.b", (1, node)),
        ]
    return shapes


class TestInitialisation:
    # seed-0 draws of SimPoolModel(resolve_preset(name, 1/32), 3, 6): numpy's
    # Generator is platform-stable, so any change here means the draw order,
    # a shape or a parameter name moved
    EXPECTED = {
        "enzymes": (
            gmn_stack_shapes("z", 3, 16, 8) + gmn_stack_shapes("s0", 12, 16, 8) + [
                ("gcn1.w", (8, 16)), ("s1.0.w", (8, 8)), ("s1.0.b", (1, 8)),
                ("s1.1.w", (8, 4)), ("s1.1.b", (1, 4)), ("gcn2.w", (16, 32)),
                ("classifier.w", (32, 6)), ("classifier.b", (1, 6)),
            ],
            "317824b59635ca118be6bee607b77efcc1434f56eef6b045b2f1e2c487789011",
        ),
        "dd": (
            gmn_stack_shapes("z", 3, 32, 32) + gmn_stack_shapes("s0", 25, 32, 32) + [
                ("gcn1.w", (32, 64)), ("s1.0.w", (32, 64)), ("s1.0.b", (1, 64)),
                ("s1.1.w", (64, 8)), ("s1.1.b", (1, 8)), ("gcn2.w", (64, 128)),
                ("classifier.w", (128, 6)), ("classifier.b", (1, 6)),
            ],
            "173a917ff15df7b144e86535d7e745ddf4c13a817ba99230a9343abadd30899b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_parameters_pinned(self, name):
        shapes, digest = self.EXPECTED[name]
        params = SimPoolModel(resolve_preset(name, 1 / 32), 3, 6, seed=0).parameters()
        assert [(k, p.shape) for k, p in params.items()] == shapes
        h = hashlib.sha256()
        for p in params.values():
            h.update(np.ascontiguousarray(p.values, dtype="<f8").tobytes())
        assert h.hexdigest() == digest


class TestForward:
    def test_probs_are_a_distribution(self):
        rng = np.random.default_rng(0)
        model = tiny_model()
        a, x, mapped = graph_inputs(rng, 7, 3, model.sim.k)
        out = forward_one(model, a, x, mapped=mapped, label=1)
        assert out.probs.shape == (1, 3)
        np.testing.assert_allclose(out.probs.sum(), 1.0, atol=1e-9)
        assert np.all(out.probs >= 0)

    def test_structural_requires_mapped(self):
        rng = np.random.default_rng(1)
        model = tiny_model()
        a, x, _ = graph_inputs(rng, 6, 3, model.sim.k)
        with pytest.raises(ConfigError):
            forward_one(model, a, x, mapped=None, label=0)

    def test_node_mode_ignores_mapped(self):
        rng = np.random.default_rng(2)
        model = tiny_model(assign_inputs="node")
        a, x, _ = graph_inputs(rng, 6, 3, model.sim.k)
        out = forward_one(model, a, x, label=0)
        assert out.probs.shape == (1, 3)

    def test_both_mode_concatenates(self):
        rng = np.random.default_rng(3)
        model = tiny_model(assign_inputs="both")
        a, x, mapped = graph_inputs(rng, 6, 3, model.sim.k)
        out = forward_one(model, a, x, mapped=mapped, label=2)
        assert out.probs.shape == (1, 3)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(4)
        a, x, mapped = graph_inputs(rng, 8, 3, 12)
        outs = []
        for _ in range(2):
            model = tiny_model(seed=7)
            outs.append(forward_one(model, a, x, mapped=mapped, label=0).probs)
        assert np.array_equal(outs[0], outs[1])

    def test_assignment_argmax_ranges(self):
        rng = np.random.default_rng(5)
        model = tiny_model()
        a, x, mapped = graph_inputs(rng, 9, 3, model.sim.k)
        out = forward_one(model, a, x, mapped=mapped, label=0)
        assert out.assign_argmax[0].shape == (9,)
        assert out.assign_argmax[0].max() < model.preset.clusters_1
        assert out.assign_argmax[1].shape == (model.preset.clusters_1,)
        assert out.assign_argmax[1].max() < model.preset.clusters_2

    def test_total_without_weights_is_the_task_loss(self):
        model = tiny_model()
        a, x, mapped = graph_inputs(np.random.default_rng(14), 9, 3, model.sim.k)
        out = forward_one(model, a, x, mapped=mapped, label=2)
        assert out.total(0.0, 0.0).item() == out.losses["task_loss"].item()
        assert all(out.losses[k].shape == (1, 1) for k in LOSS_TERMS)


class TestPrecision:
    @pytest.mark.parametrize("assign_inputs", ASSIGN_INPUTS)
    def test_float32_forward_matches_float64(self, tmp_path, assign_inputs):
        ds = separable_dataset(tmp_path, count=8)
        probs = []
        for dtype in (np.float64, np.float32):
            with ad.precision(dtype):
                model = tiny_model(assign_inputs, num_classes=2, feature_dim=ds.feature_dim)
                (batch,) = make_batches(ds, 8)
                probs.append(model.forward_batch(batch, preprocess_dataset(ds, model.sim)).probs)
        assert probs[1].dtype == np.float64
        np.testing.assert_allclose(probs[1], probs[0], rtol=0, atol=1e-5)
        assert not np.array_equal(probs[1], probs[0])

    @pytest.mark.parametrize("assign_inputs", ("structural", "both"))
    def test_structural_rows_narrower_than_the_tape_rejected(self, assign_inputs):
        a, x, mapped = graph_inputs(np.random.default_rng(16), 7, 3, 12)
        model = tiny_model(assign_inputs)
        with pytest.raises(ConfigError, match="float32.*float64"):
            forward_one(model, a, x, 0, mapped.astype(np.float32))
        with ad.precision(np.float32):
            model = tiny_model(assign_inputs)
            wide, rounded = (forward_one(model, a, x, 0, rows).probs
                             for rows in (mapped, mapped.astype(np.float32)))
        assert wide.tobytes() == rounded.tobytes()


class TestBatchMatchesGraphs:
    @staticmethod
    def mixed_dataset(tmp_path):
        ds = mixed_dataset(tmp_path)
        (batch,) = make_batches(ds, 5, shuffle_seed=1)
        return ds, batch

    @staticmethod
    def oracle(model, ds, i, mapped):
        """The per-graph forward pass of graph i."""
        g = ds.graphs[i]
        return forward_graph_loop(model, g.adjacency.toarray(), g.node_features, label=g.label,
                                  mapped=mapped[i])

    def test_batch_is_the_mean_of_its_graphs(self, tmp_path):
        ds, batch = self.mixed_dataset(tmp_path)
        for assign_inputs in ("structural", "node", "both"):
            model = tiny_model(assign_inputs=assign_inputs)
            mapped = preprocess_dataset(ds, model.sim)
            fwd = model.forward_batch(batch, mapped)
            singles = [self.oracle(model, ds, i, mapped) for i in batch.indices]

            np.testing.assert_allclose(fwd.probs, np.concatenate([o.probs for o in singles]),
                                       rtol=1e-12, atol=0, err_msg=assign_inputs)
            for k in LOSS_TERMS:
                expected = np.mean([o.losses[k].item() for o in singles])
                np.testing.assert_allclose(fwd.losses[k].item(), expected, rtol=1e-12,
                                           err_msg=f"{assign_inputs} {k}")
            for stage in (0, 1):
                np.testing.assert_array_equal(
                    fwd.assign_argmax[stage],
                    np.concatenate([o.assign_argmax[stage] for o in singles]),
                )

    @pytest.mark.parametrize("assign_inputs", ("structural", "node", "both"))
    def test_gradients_are_the_mean_of_its_graphs(self, tmp_path, assign_inputs):
        ds, batch = self.mixed_dataset(tmp_path)
        model = tiny_model(assign_inputs=assign_inputs)
        mapped = preprocess_dataset(ds, model.sim)
        params = model.parameters()

        def gradients(forward):
            for p in params.values():
                p.zero_grad()
            with ad.Tape() as tape:
                tape.backward(forward().total(model.preset.w_e, model.preset.w_c))
            return {name: p.grad.copy() for name, p in params.items()}

        batched = gradients(lambda: model.forward_batch(batch, mapped))
        singles = [
            gradients(lambda i=i: self.oracle(model, ds, i, mapped)) for i in batch.indices
        ]
        for name, grad in batched.items():
            expected = np.mean([single[name] for single in singles], axis=0)
            err = np.abs(grad - expected).max() / np.abs(expected).max()
            assert err <= 1e-12, f"{name}: {err:.1e}"

    def test_tape_length_does_not_depend_on_the_batch_size(self, tmp_path):
        ds = separable_dataset(tmp_path, count=10)
        model = tiny_model(num_classes=2, feature_dim=ds.feature_dim)
        mapped = preprocess_dataset(ds, model.sim)
        lengths = []
        for size in (2, 5):
            (batch,) = make_batches(ds, size, subset=np.arange(size))
            with ad.Tape() as tape:
                model.forward_batch(batch, mapped)
                lengths.append(len(tape))
        assert lengths[0] == lengths[1]


class TestStageZeroOnEdges:
    def test_no_node_by_node_tensor_on_the_tape(self, monkeypatch):
        # n = 11 differs from every width of the 1/32 preset and from k, the
        # feature width and the class count, so only the input graph is n x n
        rng = np.random.default_rng(11)
        n = 11
        model = tiny_model()
        a, x, mapped = graph_inputs(rng, n, 3, model.sim.k)
        shapes = []
        original = ad._record

        def record(op_name, out, parents, backward):
            if any(p.requires_grad for p in parents):
                shapes.extend((op_name, t.shape) for t in (out, *parents))
            return original(op_name, out, parents, backward)

        monkeypatch.setattr(ad, "_record", record)
        with ad.Tape() as tape:
            out = forward_one(model, a, x, mapped=mapped, label=1)
            tape.backward(out.losses["task_loss"])
        assert shapes
        assert [op for op, shape in shapes if shape == (n, n)] == []

    def test_graph_is_converted_once(self, tmp_path, monkeypatch):
        # one edge list for the whole batch, read by both stacks and stage-0 pooling
        built = []
        original = Edges.__init__
        monkeypatch.setattr(Edges, "__init__",
                            lambda self, *a, **kw: built.append(a) or original(self, *a, **kw))
        ds = separable_dataset(tmp_path, count=6)
        model = tiny_model(num_classes=2, feature_dim=ds.feature_dim)
        (batch,) = make_batches(ds, 6)
        model.forward_batch(batch, preprocess_dataset(ds, model.sim))
        assert len(built) == 1
        assert [block.shape[0] for block in built[0][0]] == batch.node_counts().tolist()


class TestEndToEndGradients:
    def test_total_loss_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        model = tiny_model(seed=3)
        a, x, mapped = graph_inputs(rng, 7, 3, model.sim.k)
        batch = PaddedBatch.of([Graph(sp.csr_matrix(a), x, 1)])  # built once, not per forward

        def total(_):
            return model.forward_graph(batch, mapped).total(1.0, 1.0)

        for name, p in model.parameters().items():
            err = ad.grad_check(total, p)
            assert err < 1e-4, f"{name}: {err:.2e}"


class TestPermutationBehaviour:
    def test_classifier_invariant_with_dense_structural_features(self):
        """Coordinate-permutation-invariant row statistics of the dense
        similarity matrix feed the assignment net, so with sum pooling the
        class probabilities must not depend on node order."""
        rng = np.random.default_rng(7)
        n = 8
        a_vals = random_graph(rng, n, 0.5)
        x_vals = rng.normal(size=(n, 3))
        cfg = SimilarityConfig(p=1, lam=1.0)
        # assignment features have width 3, matching the "node" input mode
        model = SimPoolModel(resolve_preset("enzymes", scale=1 / 32), 3, 2, "node", seed=5)

        def class_probs(a_in, x_in):
            c = similarity_dense_symmetric(a_in, cfg).dense
            stats = np.stack(
                [
                    c.sum(axis=1),
                    np.maximum(c - 0.5, 0.0).sum(axis=1),
                    (c * c).sum(axis=1),
                ],
                axis=1,
            )
            edges = Edges([a_in])
            x1, a1, _ = pool_forward(
                model.z_stack(edges, ad.constant(x_in)), model.s_stack(edges, ad.constant(stats)),
                edges.spread,
            )
            z2 = model.gcn2(model.gcn1(x1, a1), a1)
            pooled = ad.col_sum(z2)
            return ad.row_softmax(model.classifier(pooled)).values

        base = class_probs(a_vals, x_vals)
        for _ in range(5):
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            permuted = class_probs(p @ a_vals @ p.T, x_vals[perm])
            np.testing.assert_allclose(permuted, base, atol=1e-8)

    def test_index_trick_decodes_consistently_under_permutation(self):
        # weighted graph: similarities are generically distinct, so the
        # selected nodes must map through the permutation exactly
        rng = np.random.default_rng(8)
        n = 10
        a_vals = random_graph(rng, n, 0.4) * rng.uniform(0.5, 1.5, size=(n, n))
        a_vals = np.triu(a_vals, 1)
        a_vals = a_vals + a_vals.T
        cfg = SimilarityConfig(p=1, lam=1.0, alpha=0.5, k=4)

        mapped = index_map(similarity_dense_symmetric(a_vals, cfg), cfg).mapped
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        mapped_p = index_map(similarity_dense_symmetric(p @ a_vals @ p.T, cfg), cfg).mapped

        new_index = np.argsort(perm)  # old node id -> new node id
        for new_row in range(n):
            old_row = perm[new_row]
            for t in range(cfg.k):
                if mapped_p[new_row, t] == 0.0:
                    assert mapped[old_row, t] == 0.0
                    continue
                decoded_old = decode_index(mapped[old_row, t], n, alpha=cfg.alpha)
                decoded_new = decode_index(mapped_p[new_row, t], n, alpha=cfg.alpha)
                assert decoded_new == new_index[decoded_old - 1] + 1
                # the similarity payload survives the renaming
                payload_old = mapped[old_row, t] * (n + 1) - decoded_old
                payload_new = mapped_p[new_row, t] * (n + 1) - decoded_new
                np.testing.assert_allclose(payload_new, payload_old, atol=1e-9)

    def test_node_mode_invariant_under_relabelling(self):
        # without the index features nothing reads node order: relabelling every
        # graph of a batch moves its probabilities only by rounding
        rng = np.random.default_rng(11)
        model = tiny_model("node", seed=3, num_classes=4)
        shapes = [(7, 0.5), (1, 0.0), (12, 0.3), (5, 0.0), (9, 0.6)]
        graphs = [(random_graph(rng, n, p), rng.normal(size=(n, 3))) for n, p in shapes]

        def probs(relabel):
            batch = []
            for a, x in graphs:
                perm = relabel(a.shape[0])
                batch.append(Graph(sp.csr_matrix(a[np.ix_(perm, perm)]), x[perm], 0))
            with ad.no_grad():
                return model.forward_graph(PaddedBatch.of(batch)).probs

        base = probs(np.arange)
        for _ in range(5):
            np.testing.assert_allclose(probs(rng.permutation), base, rtol=1e-12, atol=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = tiny_model(seed=1)
        a, x, mapped = graph_inputs(rng, 6, 3, model.sim.k)
        before = forward_one(model, a, x, mapped=mapped, label=0).probs.copy()
        path = tmp_path / "model.spm"
        save_checkpoint(path, model)

        fresh = tiny_model(seed=2)
        different = forward_one(fresh, a, x, mapped=mapped, label=0).probs.copy()
        assert not np.allclose(different, before)
        load_checkpoint(path, fresh)
        after = forward_one(fresh, a, x, mapped=mapped, label=0).probs
        assert np.array_equal(after, before)

    def test_float64_checkpoint_loads_into_a_float32_model(self, tmp_path):
        rng = np.random.default_rng(9)
        model = tiny_model(seed=1)
        a, x, mapped = graph_inputs(rng, 6, 3, model.sim.k)
        wide, narrow = tmp_path / "float64.spm", tmp_path / "float32.spm"
        save_checkpoint(wide, model)
        with ad.precision(np.float32):
            fresh = tiny_model(seed=2)
            load_checkpoint(wide, fresh)
            probs = forward_one(fresh, a, x, mapped=mapped, label=0).probs
            save_checkpoint(narrow, fresh)
        wide_values = {name: p.values for name, p in model.parameters().items()}
        for name, p in fresh.parameters().items():
            assert p.values.dtype == np.float32
            assert p.values.tobytes() == wide_values[name].astype(np.float32).tobytes()
        np.testing.assert_allclose(probs, forward_one(model, a, x, mapped=mapped, label=0).probs,
                                   rtol=0, atol=1e-5)
        # the same names and shapes in the same number of bytes: entries stay <f8
        assert narrow.stat().st_size == wide.stat().st_size
        load_checkpoint(narrow, model)
        for name, p in fresh.parameters().items():
            assert wide_values[name].tobytes() == p.values.astype(np.float64).tobytes()

    def test_incompatible_model_rejected(self, tmp_path):
        model = tiny_model(seed=1)
        path = tmp_path / "model.spm"
        save_checkpoint(path, model)
        other = tiny_model(seed=1, num_classes=5)
        with pytest.raises(ConfigError):
            load_checkpoint(path, other)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.spm"
        path.write_bytes(b"AAAA" + b"\x00" * 32)
        with pytest.raises(ConfigError):
            load_checkpoint(path, tiny_model())

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        model = tiny_model(seed=1)
        path = tmp_path / "model.spm"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        # cut inside the version/count header, cut inside the last tensor, one extra byte
        for damaged, message in ((raw[:12], "truncated"), (raw[:-5], "truncated"),
                                 (raw + b"\x00", "trailing")):
            path.write_bytes(damaged)
            with pytest.raises(ConfigError, match=message):
                load_checkpoint(path, tiny_model())

    def test_negated_shape_rejected(self, tmp_path):
        model = tiny_model(seed=1)
        path = tmp_path / "model.spm"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        name, tensor = next(iter(model.parameters().items()))
        at = 4 + 16 + 8 + len(name.encode())  # magic, version and count, the name's length, the name
        assert struct.unpack_from("<q", raw, at)[0] == tensor.values.ndim == 2
        shape = struct.unpack_from("<2q", raw, at + 8)
        assert shape == tensor.values.shape
        # (3, 8) written as (-3, -8) keeps the entry count, so only the shape check can catch it
        struct.pack_into("<2q", raw, at + 8, -shape[0], -shape[1])
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match=f"tensor {name} has negative shape"):
            load_checkpoint(path, tiny_model())

    def test_undecodable_parameter_name_rejected(self, tmp_path):
        model = tiny_model(seed=1)
        path = tmp_path / "model.spm"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        first_name = 4 + 16 + 8  # magic, version and count, the name's length
        assert raw[first_name:first_name + 2] == b"z."
        raw[first_name] = 0xFF  # never a byte of UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="offset 28 is not UTF-8"):
            load_checkpoint(path, tiny_model())
