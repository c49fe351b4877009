"""Tests for GMN/GCN layers, pooling, and the assignment regularisers."""

import tracemalloc

import numpy as np
import pytest

from simpool import autodiff as ad
from simpool.layers import (
    ACTIVATIONS,
    Dense,
    Edges,
    GcnLayer,
    GmnEncoder,
    GmnMessage,
    GmnPropagation,
    MLP,
    cross_entropy,
    loss_lc,
    loss_le,
    pool_forward,
)

from conftest import random_graph, ring_graph
from oracles import edge_aggregate_chain, gmn_message, gmn_propagation_loop


def scalarize_with(rng, out):
    c = ad.constant(rng.normal(size=out.shape))
    return ad.sum_all(ad.multiply(out, c))


GRAPH_KINDS = ("weighted", "directed", "isolated", "edgeless")


def graph_of_kind(rng, n, kind):
    """A dense (n, n) 0/1 adjacency: symmetric for "weighted", directed with
    self-loops allowed, directed with isolated nodes, or without edges."""
    a = (rng.random((n, n)) < 0.4).astype(np.float64)
    if kind == "weighted":
        a = np.triu(a, 1)
        a = a + a.T
    elif kind == "isolated":
        a[::3, :] = 0.0
        a[:, ::3] = 0.0
    elif kind == "edgeless":
        a[...] = 0.0
    return a


class TestEdges:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_spread_is_the_dense_product(self, kind):
        rng = np.random.default_rng(40)
        for n in (1, 2, 5, 11):
            a = graph_of_kind(rng, n, kind)
            x = rng.normal(size=(n, 3))
            edges = Edges(a)
            assert edges.node_count == n and edges.receivers.shape == edges.senders.shape
            np.testing.assert_allclose(edges.spread(ad.constant(x)).values, a @ x,
                                       rtol=1e-12, atol=1e-12)

    def test_non_unit_entry_rejected(self):
        a = ring_graph(4)
        a[0, 1] = 1.5
        with pytest.raises(ValueError, match="entry is not 1"):
            Edges(a)


class TestEdgeAggregate:
    @staticmethod
    def run(fn, rng, a, activation, m=4):
        """Forward and backward of ``fn`` on random node rows: the output and the
        gradients of p_recv, p_send and the bias."""
        n = a.shape[0]
        edges = Edges(a)
        p_recv, p_send = (ad.parameter(rng.normal(size=(n, m))) for _ in range(2))
        bias = ad.parameter(rng.uniform(-0.05, 0.05, size=(1, m)))
        c = ad.constant(rng.normal(size=(n, m)))
        with ad.Tape() as tape:
            out = fn(p_recv, p_send, bias, edges, activation)
            tape.backward(ad.sum_all(ad.multiply(out, c)))
        grads = [np.zeros((n, m)) if p.grad is None else p.grad for p in (p_recv, p_send)]
        grads.append(np.zeros((1, m)) if bias.grad is None else bias.grad)
        return out.values, grads

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_bytes_match_the_op_chain(self, kind, activation):
        # the incidence products add in edge order, like the chain's bincount scatter
        for n in (1, 2, 5, 11, 23):
            a = graph_of_kind(np.random.default_rng(n), n, kind)
            out, grads = self.run(ad.edge_aggregate, np.random.default_rng(50 + n), a, activation)
            ref, ref_grads = self.run(edge_aggregate_chain, np.random.default_rng(50 + n), a,
                                      activation)
            assert out.tobytes() == ref.tobytes()
            for g, ref_g in zip(grads, ref_grads):
                assert g.tobytes() == ref_g.tobytes()

    @pytest.mark.parametrize("kind", ("isolated", "edgeless"))
    def test_nodes_without_incoming_edges_get_zero_rows(self, kind):
        rng = np.random.default_rng(41)
        a = graph_of_kind(rng, 9, kind)
        for activation in sorted(ACTIVATIONS):
            out, grads = self.run(ad.edge_aggregate, rng, a, activation)
            silent = a.sum(axis=0) == 0
            assert silent.any()
            assert np.all(out[silent] == 0.0)
            assert all(np.all(np.isfinite(g)) for g in grads)

    def test_forward_builds_only_the_receiver_incidence(self):
        rng = np.random.default_rng(43)
        edges = Edges(graph_of_kind(rng, 6, "directed"))
        with ad.no_grad():
            ad.edge_aggregate(*(ad.constant(rng.normal(size=(6, 3))) for _ in range(2)),
                              ad.constant(np.zeros((1, 3))), edges, "relu")
        assert "sender_incidence" not in vars(edges)

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_backward_holds_at_most_two_edge_arrays(self, activation):
        # the recomputed pre-activations and g_pre are E x m; the rest is O(n x m + E)
        rng = np.random.default_rng(44)
        n, m = 300, 64
        edges = Edges(graph_of_kind(rng, n, "directed"))
        p_recv, p_send = (ad.parameter(rng.normal(size=(n, m))) for _ in range(2))
        bias = ad.parameter(np.zeros((1, m)))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.edge_aggregate(p_recv, p_send, bias, edges, activation))
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.5 * edges.senders.size * m * 8

    def test_validation(self):
        edges = Edges(ring_graph(4))
        rows, bias = ad.constant(np.ones((4, 3))), ad.constant(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="unknown activation"):
            ad.edge_aggregate(rows, rows, bias, edges, "sigmoid")
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.edge_aggregate(ad.constant(np.ones((5, 3))), rows, bias, edges, "relu")
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.edge_aggregate(rows, rows, ad.constant(np.zeros((1, 2))), edges, "relu")


class TestGmnEncoder:
    def test_identity_weights_pass_through_activation(self):
        rng = np.random.default_rng(0)
        enc = GmnEncoder(rng, 4, 4, "relu", "enc")
        enc.dense.weight.values[...] = np.eye(4)
        enc.dense.bias.values[...] = 0.0
        x = rng.normal(size=(6, 4))
        out = enc(ad.constant(x))
        np.testing.assert_array_equal(out.values, np.maximum(x, 0.0))

    def test_rowwise_map_no_mixing(self):
        rng = np.random.default_rng(1)
        enc = GmnEncoder(rng, 3, 5, "tanh", "enc")
        x = rng.normal(size=(4, 3))
        x[2] = x[0]  # duplicate row
        out = enc(ad.constant(x)).values
        np.testing.assert_array_equal(out[2], out[0])

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        enc = GmnEncoder(rng, 3, 4, "relu", "enc")
        x = ad.constant(rng.normal(size=(5, 3)))
        c = rng.normal(size=(5, 4))

        def f(w):
            return ad.sum_all(ad.multiply(enc(x), ad.constant(c)))

        for p in enc.parameters().values():
            assert ad.grad_check(lambda _: f(None), p) < 1e-4


class TestGmnPropagation:
    def test_no_edges_uses_zero_aggregate(self):
        rng = np.random.default_rng(3)
        prop = GmnPropagation(rng, 3, 4, 3, "tanh", "prop")
        h = rng.normal(size=(5, 3))
        out = prop(ad.constant(h), Edges(np.zeros((5, 5)))).values
        expected = prop.f_node(ad.constant(np.concatenate([h, np.zeros((5, 4))], axis=1))).values
        np.testing.assert_array_equal(out, expected)

    def test_single_edge_aggregate_is_sole_message(self):
        rng = np.random.default_rng(4)
        prop = GmnPropagation(rng, 2, 3, 2, "linear", "prop")
        h = rng.normal(size=(2, 2))
        a = np.zeros((2, 2))
        a[0, 1] = 1.0  # message 0 -> 1 only
        out = prop(ad.constant(h), Edges(a)).values
        agg = np.zeros((2, 3))
        agg[1] = gmn_message(prop.f_message, h[1], h[0])
        expected = prop.f_node(ad.constant(np.concatenate([h, agg], axis=1))).values
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_matches_per_edge_loop_oracle(self):
        # the loop sums message(h_i, h_j) over every edge a[j, i] = 1
        rng = np.random.default_rng(22)
        prop = GmnPropagation(rng, 3, 4, 5, "tanh", "prop")
        for kind in GRAPH_KINDS:
            for n in (1, 2, 5, 11):
                a = graph_of_kind(rng, n, kind)
                h = rng.normal(size=(n, 3))
                out = prop(ad.constant(h), Edges(a)).values
                expected = gmn_propagation_loop(prop, h, a)
                np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12, err_msg=kind)

    def test_tape_holds_no_edge_rows(self, monkeypatch):
        # message passing keeps node rows only; its E x m edge rows are recomputed
        rng = np.random.default_rng(24)
        a = random_graph(rng, 12, 0.5)
        edges = Edges(a)
        assert edges.senders.size not in (0, 12)
        prop = GmnPropagation(rng, 3, 8, 5, "relu", "prop")
        shapes = []
        original = ad._record

        def record(op_name, out, parents, backward):
            shapes.append((op_name, out.shape))
            return original(op_name, out, parents, backward)

        monkeypatch.setattr(ad, "_record", record)
        with ad.Tape():
            prop(ad.parameter(rng.normal(size=(12, 3))), edges)
        assert shapes and all(rows == 12 for _, (rows, _) in shapes), shapes

    def test_split_message_weights_are_the_dense_draw(self):
        # the two halves and the bias are what one Dense(2d, m) draws from the same seed
        for d, m in [(3, 4), (1, 5), (6, 2)]:
            msg = GmnMessage(np.random.default_rng(31), d, m, "relu", "prop.msg")
            dense = Dense(np.random.default_rng(31), 2 * d, m, "relu", "prop.msg")
            assert np.array_equal(np.vstack([msg.w_recv.values, msg.w_send.values]), dense.weight.values)
            assert np.array_equal(msg.bias.values, dense.bias.values)
            assert msg.w_recv.shape == msg.w_send.shape == (d, m)
            assert list(msg.parameters()) == ["prop.msg.w_recv", "prop.msg.w_send", "prop.msg.b"]

    def test_node_count_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        prop = GmnPropagation(rng, 2, 2, 2, "linear", "prop")
        edges = Edges(random_graph(rng, 3, 0.7))
        for rows in (2, 4):
            with pytest.raises(ValueError, match=f"{rows} node states for a graph of 3 nodes"):
                prop(ad.constant(np.ones((rows, 2))), edges)

    def test_gradient_through_two_stacked_propagations(self):
        rng = np.random.default_rng(6)
        p1 = GmnPropagation(rng, 3, 4, 4, "relu", "p1")
        p2 = GmnPropagation(rng, 4, 4, 3, "linear", "p2")
        edges = Edges(random_graph(rng, 6, 0.5))
        x = rng.normal(size=(6, 3))
        c = rng.normal(size=(6, 3))

        def forward():
            h = p2(p1(ad.constant(x), edges), edges)
            return ad.sum_all(ad.multiply(h, ad.constant(c)))

        params = {**p1.parameters(), **p2.parameters()}
        for name, p in params.items():
            err = ad.grad_check(lambda _: forward(), p)
            assert err < 1e-4, f"{name}: {err:.2e}"


class TestGcn:
    def test_empty_graph_reduces_to_dense(self):
        rng = np.random.default_rng(7)
        gcn = GcnLayer(rng, 3, 3, "relu", "gcn")
        gcn.weight.values[...] = np.eye(3)
        h = rng.normal(size=(4, 3))
        out = gcn(ad.constant(h), ad.constant(np.zeros((4, 4)))).values
        np.testing.assert_allclose(out, np.maximum(h, 0.0), atol=1e-14)

    def test_symmetric_inputs_give_equal_rows(self):
        rng = np.random.default_rng(8)
        gcn = GcnLayer(rng, 3, 5, "relu", "gcn")
        h = np.tile(rng.normal(size=(1, 3)), (2, 1))
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = gcn(ad.constant(h), ad.constant(a)).values
        np.testing.assert_allclose(out[0], out[1], atol=1e-14)

    def test_negative_adjacency_rejected(self):
        rng = np.random.default_rng(9)
        gcn = GcnLayer(rng, 2, 2, "relu", "gcn")
        with pytest.raises(ValueError):
            gcn(ad.constant(np.ones((2, 2))), ad.constant(-np.ones((2, 2))))

    def test_gradient_check(self):
        rng = np.random.default_rng(10)
        gcn = GcnLayer(rng, 3, 4, "relu", "gcn")
        a = ad.constant(random_graph(rng, 5, 0.6))
        x = rng.normal(size=(5, 3))
        c = rng.normal(size=(5, 4))

        def f(_):
            return ad.sum_all(ad.multiply(gcn(ad.constant(x), a), ad.constant(c)))

        assert ad.grad_check(f, gcn.weight) < 1e-4

    def test_gradient_flows_into_adjacency(self):
        rng = np.random.default_rng(11)
        gcn = GcnLayer(rng, 3, 3, "tanh", "gcn")
        x = rng.normal(size=(4, 3))
        c = rng.normal(size=(4, 3))
        a = ad.parameter(random_graph(rng, 4, 0.7) + 0.05)

        def f(t):
            sym = ad.scalar_multiply(ad.add(t, ad.transpose(t)), 0.5)
            return ad.sum_all(ad.multiply(gcn(ad.constant(x), sym), ad.constant(c)))

        assert ad.grad_check(f, a) < 1e-4


# A·x the two ways pool_forward is given it: stage 0's edge list, stage 1's dense matmul
SPREAD_FORMS = {
    "edge_list": lambda a: Edges(a).spread,
    "dense_matmul": lambda a: lambda x: ad.matmul(ad.constant(a), x),
}


class TestPoolForward:
    def test_identity_assignment(self):
        rng = np.random.default_rng(12)
        n, d = 5, 3
        x = ad.constant(rng.normal(size=(n, d)))
        a_vals = random_graph(rng, n, 0.5)
        # logits that force S = I exactly
        x1, a1, s = pool_forward(x, ad.constant(1000.0 * np.eye(n)), Edges(a_vals).spread)
        np.testing.assert_array_equal(s.values, np.eye(n))
        np.testing.assert_array_equal(x1.values, x.values)
        np.testing.assert_allclose(a1.values, np.tanh(a_vals), atol=1e-15)

    def test_collapse_to_single_cluster(self):
        rng = np.random.default_rng(13)
        n, d, c = 4, 3, 3
        z = rng.normal(size=(n, d))
        logits = np.zeros((n, c))
        logits[:, 0] = 1000.0
        x1, a1, s = pool_forward(ad.constant(z), ad.constant(logits),
                                 Edges(random_graph(rng, n, 0.5)).spread)
        np.testing.assert_allclose(x1.values[0], z.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(x1.values[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("form", SPREAD_FORMS)
    def test_coarse_adjacency_double_sum_oracle(self, form):
        rng = np.random.default_rng(14)
        n, c = 8, 3
        a_vals = random_graph(rng, n, 0.4)
        logits = rng.normal(size=(n, c))
        z = ad.constant(rng.normal(size=(n, 2)))
        _, a1, s = pool_forward(z, ad.constant(logits), SPREAD_FORMS[form](a_vals))
        sv = s.values
        expected = np.zeros((c, c))
        for ci in range(c):
            for cj in range(c):
                acc = 0.0
                for i in range(n):
                    for j in range(n):
                        acc += sv[i, ci] * a_vals[i, j] * sv[j, cj]
                expected[ci, cj] = acc
        np.testing.assert_allclose(a1.values, np.tanh(expected), rtol=1e-10)

    @pytest.mark.parametrize("form", SPREAD_FORMS)
    def test_coarse_adjacency_range(self, form):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n, c = 7, 4
            a_vals = random_graph(rng, n, 0.6)
            if form == "dense_matmul":  # stage 1's learned adjacency is real-valued
                a_vals *= rng.uniform(0.5, 3.0)
            logits = rng.normal(size=(n, c))
            z = ad.constant(rng.normal(size=(n, 2)))
            _, a1, _ = pool_forward(z, ad.constant(logits), SPREAD_FORMS[form](a_vals))
            assert np.all(a1.values >= 0.0)
            assert np.all(a1.values < 1.0)

    def test_row_count_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        spread = Edges(random_graph(rng, 4, 0.7)).spread
        z = ad.constant(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="one row per node"):
            pool_forward(z, ad.constant(np.zeros((5, 3))), spread)
        with pytest.raises(ValueError, match="one row per node"):
            pool_forward(ad.constant(rng.normal(size=(3, 2))), ad.constant(np.zeros((4, 3))), spread)
        # rows agree with each other but not with the graph: A·S cannot meet S^T
        with pytest.raises(ValueError, match="shape mismatch"):
            pool_forward(ad.constant(np.zeros((5, 2))), ad.constant(np.zeros((5, 3))), spread)

    def test_pooling_gradients_through_eq9(self):
        rng = np.random.default_rng(18)
        n, c, d = 6, 3, 2
        a_vals = random_graph(rng, n, 0.5)
        assign = Dense(rng, d, c, "linear", "assign")
        embed = Dense(rng, d, d, "tanh", "embed")
        x_vals = rng.normal(size=(n, d))
        cx = rng.normal(size=(c, d))
        ca = rng.normal(size=(c, c))

        def f(_):
            x = ad.constant(x_vals)
            x1, a1, s = pool_forward(embed(x), assign(x), Edges(a_vals).spread)
            return ad.add(
                ad.sum_all(ad.multiply(x1, ad.constant(cx))),
                ad.sum_all(ad.multiply(a1, ad.constant(ca))),
            )

        for name, p in {**assign.parameters(), **embed.parameters()}.items():
            err = ad.grad_check(f, p)
            assert err < 1e-4, f"{name}: {err:.2e}"


class TestLosses:
    def test_le_one_hot_is_zero(self):
        s = np.eye(4)[[0, 1, 2, 0]]
        assert loss_le(ad.constant(s)).item() < 1e-9

    def test_le_uniform_is_log_c(self):
        for c in (2, 3, 5):
            s = np.full((6, c), 1.0 / c)
            np.testing.assert_allclose(loss_le(ad.constant(s)).item(), np.log(c), rtol=1e-12)

    def test_le_half_half(self):
        s = np.full((3, 2), 0.5)
        np.testing.assert_allclose(loss_le(ad.constant(s)).item(), np.log(2.0), rtol=1e-12)

    def test_lc_uniform_mass_zero(self):
        s = np.eye(4)[[0, 1, 0, 1]][:, :2]
        assert abs(loss_lc(ad.constant(s)).item()) < 1e-12

    def test_lc_single_cluster_max(self):
        s = np.zeros((5, 3))
        s[:, 1] = 1.0
        np.testing.assert_allclose(loss_lc(ad.constant(s)).item(), np.log(3.0), rtol=1e-12)

    def test_lc_three_one_split(self):
        s = np.zeros((4, 2))
        s[:3, 0] = 1.0
        s[3, 1] = 1.0
        expected = np.log(2.0) - (-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))
        np.testing.assert_allclose(loss_lc(ad.constant(s)).item(), expected, rtol=1e-10)
        np.testing.assert_allclose(loss_lc(ad.constant(s)).item(), 0.1308, atol=5e-5)

    def test_joint_minimum_at_balanced_one_hot(self):
        # all 2^4 hard assignments of 4 nodes to 2 clusters
        best = []
        for code in range(16):
            s = np.zeros((4, 2))
            for node in range(4):
                s[node, (code >> node) & 1] = 1.0
            combined = loss_le(ad.constant(s)).item() + loss_lc(ad.constant(s)).item()
            best.append((combined, int(np.sum(s[:, 0]))))
        values = np.array([v for v, _ in best])
        balanced = np.array([count == 2 for _, count in best])
        assert np.all(values[balanced] < values[~balanced].min() - 1e-6)

    def test_loss_gradients(self):
        rng = np.random.default_rng(19)
        logits = ad.parameter(rng.normal(size=(5, 3)))

        def f_le(t):
            return loss_le(ad.row_softmax(t))

        def f_lc(t):
            return loss_lc(ad.row_softmax(t))

        assert ad.grad_check(f_le, logits) < 1e-4
        assert ad.grad_check(f_lc, logits) < 1e-4

    def test_cross_entropy_matches_log(self):
        probs = ad.constant([[0.2, 0.5, 0.3]])
        np.testing.assert_allclose(cross_entropy(probs, 1).item(), -np.log(0.5), rtol=1e-12)


class TestMlp:
    def test_dims_validated(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError):
            MLP(rng, [3, 4], ["relu", "relu"], "bad")
        mlp = MLP(rng, [3, 4, 2], ["relu", "linear"], "ok")
        out = mlp(ad.constant(np.ones((5, 3))))
        assert out.shape == (5, 2)

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(21)
        layer = Dense(rng, 3, 2, "relu", "d")
        with pytest.raises(ValueError):
            layer(ad.constant(np.ones((4, 5))))
