"""Tests for GMN/GCN layers, pooling, and the assignment regularisers."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool.data import Batch
from simpool.layers import (
    Dense,
    GcnLayer,
    GmnEncoder,
    GmnMessage,
    GmnPropagation,
    LabelPairs,
    MLP,
    cross_entropy,
    loss_lc,
    loss_le,
    pool_forward,
)

from conftest import (dataset_of, many_label_dataset, mixed_dataset, random_graph, raw_edges,
                      ring_graph, union_edges)
from oracles import (
    edge_aggregate_chain,
    edge_runs,
    gmn_linear_fold_transposed,
    gmn_message,
    gmn_propagation_chain,
    gmn_propagation_loop,
)


def scalarize_with(rng, out):
    c = ad.constant(rng.normal(size=out.shape))
    return ad.sum_all(ad.multiply(out, c))


# undirected graphs, the only ones ``data.Dataset`` admits
GRAPH_KINDS = ("symmetric", "isolated", "edgeless")
# ``ad.edge_aggregate`` reads the two ends of an edge apart, so it is also
# tested on directed blocks
EDGE_AGGREGATE_KINDS = GRAPH_KINDS + ("directed",)
# ``ad.edge_aggregate`` serves these; a linear propagation runs without it
EDGE_ACTIVATIONS = ("relu", "tanh")


def graph_of_kind(rng, n, kind):
    """A dense (n, n) 0/1 adjacency: "symmetric", symmetric with isolated
    nodes, without edges, or "directed" with self-loops allowed."""
    a = (rng.random((n, n)) < 0.4).astype(np.float64)
    if kind != "directed":
        a = np.triu(a, 1)
        a = a + a.T
    if kind == "isolated":
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
            edges = union_edges([a])
            assert edges.node_count == n and edges.receivers.shape == edges.senders.shape
            np.testing.assert_allclose(edges.spread(ad.constant(x)).values, a @ x,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_spread_bytes_match_gather_then_scatter(self, kind):
        # one sparse product adds in edge order, like the two-op edge-row chain
        rng = np.random.default_rng(48)
        for n in (1, 5, 11, 23):
            edges = union_edges([graph_of_kind(rng, n, kind)])
            values, c = rng.normal(size=(n, 3)), ad.constant(rng.normal(size=(n, 3)))
            results = []
            for spread in (edges.spread, lambda x: ad.sparse_matmul(
                    ad.incidence(edges.senders, n), ad.gather_rows(x, edges.receivers))):
                x = ad.parameter(values)
                with ad.Tape() as tape:
                    out = spread(x)
                    tape.backward(ad.sum_all(ad.multiply(out, c)))
                results.append((out.values.tobytes(), x.grad.tobytes()))
            assert results[0] == results[1]

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_degree_and_spread_match_the_transposed_edge_chain(self, kind):
        # on an undirected graph A x is A^T x: spread adds in the order of a
        # gather by sender and a sum by receiver, and the degree counts both ends
        rng = np.random.default_rng(51)
        for n in (1, 5, 11, 23):
            a = graph_of_kind(rng, n, kind)
            edges = union_edges([a])
            assert edges.degree.dtype == np.float64 and edges.degree.shape == (n, 1)
            np.testing.assert_array_equal(edges.degree, a.sum(axis=1).reshape(-1, 1))
            np.testing.assert_array_equal(edges.degree, a.sum(axis=0).reshape(-1, 1))
            values, c = rng.normal(size=(n, 3)), ad.constant(rng.normal(size=(n, 3)))
            results = []
            for spread in (edges.spread, lambda x: ad.sparse_matmul(
                    ad.incidence(edges.receivers, n), ad.gather_rows(x, edges.senders))):
                x = ad.parameter(values)
                with ad.Tape() as tape:
                    out = spread(x)
                    tape.backward(ad.sum_all(ad.multiply(out, c)))
                results.append((out.values.tobytes(), x.grad.tobytes()))
            assert results[0] == results[1]

    def test_union_lists_each_graph_as_an_edge_range(self):
        rng = np.random.default_rng(45)
        graphs = [graph_of_kind(rng, n, kind) for n, kind in
                  ((4, "symmetric"), (1, "edgeless"), (6, "isolated"), (5, "symmetric"))]
        edges = union_edges(graphs)
        offsets = edges.node_offsets
        np.testing.assert_array_equal(offsets, [0, 4, 5, 11, 16])
        for g, a in enumerate(graphs):
            e0, e1 = edges.edge_offsets[g], edges.edge_offsets[g + 1]
            single = union_edges([a])
            np.testing.assert_array_equal(edges.senders[e0:e1] - offsets[g], single.senders)
            np.testing.assert_array_equal(edges.receivers[e0:e1] - offsets[g], single.receivers)
        x = rng.normal(size=(offsets[-1], 3))
        np.testing.assert_allclose(edges.spread(ad.constant(x)).values,
                                   sp.block_diag(graphs) @ x, rtol=1e-12, atol=1e-12)


class TestEdgeAggregate:
    @staticmethod
    def run(fn, rng, a, activation, m=4):
        """Forward and backward of ``fn`` on random node rows: the output and the
        gradients of p_recv, p_send and the bias."""
        n = a.shape[0]
        edges = raw_edges([a])
        p_recv, p_send = (ad.parameter(rng.normal(size=(n, m))) for _ in range(2))
        bias = ad.parameter(rng.uniform(-0.05, 0.05, size=(1, m)))
        c = ad.constant(rng.normal(size=(n, m)))
        with ad.Tape() as tape:
            out = fn(p_recv, p_send, bias, edges, activation)
            tape.backward(ad.sum_all(ad.multiply(out, c)))
        grads = [np.zeros((n, m)) if p.grad is None else p.grad for p in (p_recv, p_send)]
        grads.append(np.zeros((1, m)) if bias.grad is None else bias.grad)
        return out.values, grads

    @pytest.mark.parametrize("activation", EDGE_ACTIVATIONS)
    @pytest.mark.parametrize("kind", EDGE_AGGREGATE_KINDS)
    def test_bytes_match_the_op_chain(self, kind, activation):
        # the incidence products add in edge order, like the chain's bincount scatter
        for n in (1, 2, 5, 11, 23):
            a = graph_of_kind(np.random.default_rng(n), n, kind)
            out, grads = self.run(ad.edge_aggregate, np.random.default_rng(50 + n), a, activation)
            ref, ref_grads = self.run(edge_aggregate_chain, np.random.default_rng(50 + n), a,
                                      activation)
            assert out.tobytes() == ref.tobytes()
            for g, ref_g in zip(grads[:2], ref_grads[:2]):
                assert g.tobytes() == ref_g.tobytes()
            # the op sums the bias gradient over receivers, the chain over edges
            assert grads[2].tobytes() == ref_grads[0].sum(axis=0, keepdims=True).tobytes()
            np.testing.assert_allclose(grads[2], ref_grads[2], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ("isolated", "edgeless"))
    def test_nodes_without_incoming_edges_get_zero_rows(self, kind):
        rng = np.random.default_rng(41)
        a = graph_of_kind(rng, 9, kind)
        for activation in EDGE_ACTIVATIONS:
            out, grads = self.run(ad.edge_aggregate, rng, a, activation)
            silent = a.sum(axis=0) == 0
            assert silent.any()
            assert np.all(out[silent] == 0.0)
            assert all(np.all(np.isfinite(g)) for g in grads)

    def test_forward_builds_only_the_receiver_incidence(self):
        rng = np.random.default_rng(43)
        edges = raw_edges([graph_of_kind(rng, 6, "directed")])
        with ad.no_grad():
            ad.edge_aggregate(*(ad.constant(rng.normal(size=(6, 3))) for _ in range(2)),
                              ad.constant(np.zeros((1, 3))), edges, "relu")
        assert "sender_incidence" not in vars(edges)

    @pytest.mark.parametrize("activation", EDGE_ACTIVATIONS)
    def test_backward_holds_at_most_two_edge_arrays(self, activation):
        # the recomputed pre-activations and g_pre are E x m; the rest is O(n x m + E)
        n, m = 300, 64
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(44)
            with ad.precision(dtype):
                edges = raw_edges([graph_of_kind(rng, n, "directed")])
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
            assert p_recv.grad.dtype == dtype
            # counted in bytes: float32 edge arrays must take half the room
            assert peak < 2.5 * edges.senders.size * m * np.dtype(dtype).itemsize

    @pytest.mark.parametrize("activation", EDGE_ACTIVATIONS)
    def test_edge_runs_do_not_change_any_byte(self, activation, monkeypatch):
        # six graphs; with a budget of 20 edge rows the 30-node one is a run of its own
        rng = np.random.default_rng(46)
        graphs = [graph_of_kind(rng, n, kind) for n, kind in
                  ((5, "directed"), (3, "edgeless"), (30, "symmetric"), (7, "isolated"),
                   (4, "directed"), (9, "symmetric"))]
        edges = raw_edges(graphs)
        offsets = edges.node_offsets
        assert edges.edge_offsets[3] - edges.edge_offsets[2] > 20
        n, m = offsets[-1], 4
        results = []
        for budget in (1 << 30, 20 * m * 8):
            monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", budget)
            r = np.random.default_rng(47)
            p_recv, p_send = (ad.parameter(r.normal(size=(n, m))) for _ in range(2))
            bias = ad.parameter(r.uniform(-0.05, 0.05, size=(1, m)))
            c = ad.constant(r.normal(size=(n, m)))
            with ad.Tape() as tape:
                out = ad.edge_aggregate(p_recv, p_send, bias, edges, activation)
                tape.backward(ad.sum_all(ad.multiply(out, c)))
            runs = [run[:2] for run in edge_runs(edges, m, p_recv.values.itemsize)]
            results.append((runs, [t.tobytes() for t in
                                   (out.values, p_recv.grad, p_send.grad, bias.grad)]))
        (one, whole), (many, chunked) = results
        assert len(one) == 1 and len(many) >= 4
        assert (offsets[2], offsets[3]) in many
        assert chunked == whole

    def test_validation(self):
        edges = union_edges([ring_graph(4)])
        rows, bias = ad.constant(np.ones((4, 3))), ad.constant(np.zeros((1, 3)))
        for activation in ("sigmoid", "linear"):
            with pytest.raises(ValueError, match="unknown activation"):
                ad.edge_aggregate(rows, rows, bias, edges, activation)
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
        out = prop(ad.constant(h), union_edges([np.zeros((5, 5))])).values
        expected = prop.f_node(ad.constant(np.concatenate([h, np.zeros((5, 4))], axis=1))).values
        np.testing.assert_array_equal(out, expected)

    def test_single_edge_aggregate_is_sole_message(self):
        # one edge between nodes 0 and 1 carries one message each way; node 2 gets none
        rng = np.random.default_rng(4)
        prop = GmnPropagation(rng, 2, 3, 2, "linear", "prop")
        h = rng.normal(size=(3, 2))
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        out = prop(ad.constant(h), union_edges([a])).values
        agg = np.zeros((3, 3))
        agg[0] = gmn_message(prop.f_message, h[0], h[1])
        agg[1] = gmn_message(prop.f_message, h[1], h[0])
        expected = prop.f_node(ad.constant(np.concatenate([h, agg], axis=1))).values
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_matches_per_edge_loop_oracle(self):
        # the loop sums message(h_i, h_j) over every edge a[j, i] = 1
        rng = np.random.default_rng(22)
        for activation in ("relu", "tanh", "linear"):
            prop = GmnPropagation(rng, 3, 4, 5, activation, "prop")
            for kind in GRAPH_KINDS:
                for n in (1, 2, 5, 11):
                    a = graph_of_kind(rng, n, kind)
                    h = rng.normal(size=(n, 3))
                    out = prop(ad.constant(h), union_edges([a])).values
                    expected = gmn_propagation_loop(prop, h, a)
                    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12,
                                               err_msg=f"{activation}, {kind}")

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_linear_fold_matches_the_unfolded_layer(self, kind):
        # output and every gradient of the folded layer against edge rows on the tape
        rng = np.random.default_rng(25)
        for n in (1, 2, 5, 11, 23):
            edges = union_edges([graph_of_kind(rng, n, kind)])
            prop = GmnPropagation(rng, 3, 4, 5, "linear", "prop")
            h = ad.parameter(rng.normal(size=(n, 3)))
            c = ad.constant(rng.normal(size=(n, 5)))
            tensors = [h, *prop.parameters().values()]
            results = []
            for layer in (prop, lambda x, e: gmn_propagation_chain(prop, x, e)):
                for t in tensors:
                    t.zero_grad()
                with ad.Tape() as tape:
                    out = layer(h, edges)
                    tape.backward(ad.sum_all(ad.multiply(out, c)))
                results.append([out.values] + [t.grad.copy() for t in tensors])
            for got, want in zip(*results):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_linear_fold_bytes_match_the_transposed_fold(self, tmp_path, dtype):
        # on batches of Graphs, the degree column and the product by A give the
        # bytes of the in-degree column and the product by A^T, in both passes
        rng = np.random.default_rng(26)
        graphs = [(g.adjacency, g.node_features, g.label) for g in mixed_dataset(tmp_path).graphs]
        ds = dataset_of(graphs + [(graph_of_kind(rng, n, "symmetric"), np.ones((n, 3)), 0)
                                  for n in (30, 64)])
        everything = np.arange(len(ds))
        with ad.precision(dtype):
            for chosen in (everything, everything[3:4], everything[::-1]):
                edges = Batch.of(ds, chosen).edges
                n = edges.node_count
                prop = GmnPropagation(rng, 3, 4, 5, "linear", "prop")
                h = ad.parameter(rng.normal(size=(n, 3)))
                c = ad.constant(rng.normal(size=(n, 5)))
                tensors = [h, *prop.parameters().values()]
                results = []
                for layer in (prop, lambda x, e: gmn_linear_fold_transposed(prop, x, e)):
                    for t in tensors:
                        t.zero_grad()
                    with ad.Tape() as tape:
                        out = layer(h, edges)
                        tape.backward(ad.sum_all(ad.multiply(out, c)))
                    results.append([out.values] + [t.grad for t in tensors])
                for got, want in zip(*results):
                    assert got.dtype == want.dtype == dtype
                    assert got.tobytes() == want.tobytes()

    def test_tape_holds_no_edge_rows(self, monkeypatch):
        # message passing keeps node rows only: a relu layer recomputes its E x m
        # edge rows, and a linear one folds its messages into products that are
        # output wide, here 5 columns for a message width of 8
        rng = np.random.default_rng(24)
        a = random_graph(rng, 12, 0.5)
        edges = union_edges([a])
        assert edges.senders.size > 12
        shapes = {"relu": [], "linear": []}
        original = ad._record

        def record(op_name, out, parents, backward):
            current.append((op_name, out.shape))
            return original(op_name, out, parents, backward)

        monkeypatch.setattr(ad, "_record", record)
        for activation, current in shapes.items():
            prop = GmnPropagation(rng, 3, 8, 5, activation, "prop")
            with ad.Tape():
                prop(ad.parameter(rng.normal(size=(12, 3))), edges)
        relu, linear = shapes["relu"], shapes["linear"]
        assert relu and all(rows == 12 for _, (rows, _) in relu), relu
        assert linear and all(rows != edges.senders.size for _, (rows, _) in linear), linear
        assert all(shape != (12, 8) for _, shape in linear), linear
        assert "edge_aggregate" not in {op for op, _ in linear}

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
        edges = union_edges([random_graph(rng, 3, 0.7)])
        for rows in (2, 4):
            with pytest.raises(ValueError, match=f"{rows} node states for a graph of 3 nodes"):
                prop(ad.constant(np.ones((rows, 2))), edges)

    def test_gradient_through_two_stacked_propagations(self):
        rng = np.random.default_rng(6)
        p1 = GmnPropagation(rng, 3, 4, 4, "relu", "p1")
        p2 = GmnPropagation(rng, 4, 4, 3, "linear", "p2")
        edges = union_edges([random_graph(rng, 6, 0.5)])
        x = rng.normal(size=(6, 3))
        c = rng.normal(size=(6, 3))

        def forward():
            h = p2(p1(ad.constant(x), edges), edges)
            return ad.sum_all(ad.multiply(h, ad.constant(c)))

        params = {**p1.parameters(), **p2.parameters()}
        for name, p in params.items():
            err = ad.grad_check(lambda _: forward(), p)
            assert err < 1e-4, f"{name}: {err:.2e}"


class TestLabelPairs:
    @staticmethod
    def batch(tmp_path, make=mixed_dataset):
        ds = make(tmp_path)
        return ds, Batch.of(ds, np.arange(len(ds)))

    def test_counts_are_each_nodes_messages_per_pair(self, tmp_path):
        for make in (mixed_dataset, many_label_dataset):
            ds, batch = self.batch(tmp_path / make.__name__, make)
            edges, labels = batch.edges, batch.node_labels.astype(np.intp)
            pairs = LabelPairs(edges, labels)
            np.testing.assert_array_equal(pairs.present, np.unique(labels))
            np.testing.assert_array_equal(pairs.present[pairs.rows], labels)
            d = ds.feature_dim
            expected = np.zeros((edges.node_count, d, d))
            for j, i in zip(edges.senders, edges.receivers):  # edge j -> i
                expected[i, labels[i], labels[j]] += 1
            present = expected.sum(axis=0) > 0
            receivers, senders = np.nonzero(present)
            np.testing.assert_array_equal(pairs.present[pairs.receiver_rows], receivers)
            np.testing.assert_array_equal(pairs.present[pairs.sender_rows], senders)
            np.testing.assert_array_equal(pairs.counts.toarray(), expected[:, present])
            assert pairs.counts.dtype == edges.adjacency.dtype

    def test_summing_the_counts_leaves_the_adjacency(self, tmp_path):
        ds, batch = self.batch(tmp_path)
        a = batch.edges.adjacency
        before = a.toarray(), a.indptr.copy()
        pairs = LabelPairs(batch.edges, batch.node_labels)
        counts = pairs.counts.toarray()
        pairs.counts.sum_duplicates()
        np.testing.assert_array_equal(pairs.counts.toarray(), counts)
        np.testing.assert_array_equal(a.indptr, before[1])
        np.testing.assert_array_equal(a.toarray(), before[0])

    def test_table_holds_only_the_present_labels(self, tmp_path):
        ds = many_label_dataset(tmp_path)
        batch = Batch.of(ds, [0])
        pairs = LabelPairs(batch.edges, batch.node_labels)
        rows = pairs.label_rows(ds.feature_dim)
        assert pairs.present.size == np.unique(batch.node_labels).size < ds.feature_dim
        assert rows.shape == (pairs.present.size, ds.feature_dim) and rows.dtype == bool
        np.testing.assert_array_equal(rows[pairs.rows], batch.features)

    def test_edgeless_graphs_carry_no_pair(self):
        labels = np.array([0, 2, 1], dtype=np.uint8)
        ds = dataset_of([(np.zeros((3, 3)), np.eye(3), 0)])
        pairs = LabelPairs(Batch.of(ds, [0]).edges, labels)
        assert pairs.receiver_rows.size == 0 and pairs.counts.shape == (3, 0)

    @pytest.mark.parametrize("activation", ("relu", "tanh", "linear"))
    def test_label_path_is_the_per_edge_layer_on_the_table_rows(self, tmp_path, activation):
        # out, and the gradients of every parameter and of the table, to rounding
        ds, batch = self.batch(tmp_path)
        edges, labels = batch.edges, batch.node_labels
        pairs = LabelPairs(edges, labels)
        rng = np.random.default_rng(31)
        prop = GmnPropagation(rng, 4, 3, 5, activation, "prop")
        table = ad.parameter(rng.normal(size=(pairs.present.size, 4)))
        c = rng.normal(size=(edges.node_count, 5))
        params = {**prop.parameters(), "table": table}
        results = []
        for read in (lambda: prop(table, edges, pairs),
                     lambda: prop(ad.gather_rows(table, pairs.rows), edges)):
            for p in params.values():
                p.zero_grad()
            with ad.Tape() as tape:
                out = read()
                tape.backward(ad.sum_all(ad.multiply(out, ad.constant(c))))
            results.append((out.values, {k: p.grad.copy() for k, p in params.items()}))
        (out, grads), (expected, expected_grads) = results
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)
        for name, grad in expected_grads.items():
            err = np.abs(grads[name] - grad).max() / np.abs(grad).max()
            assert err <= 1e-12, f"{name}: {err:.1e}"

    def test_label_path_runs_no_edge_pass(self, tmp_path, monkeypatch):
        ds, batch = self.batch(tmp_path)
        pairs = LabelPairs(batch.edges, batch.node_labels)
        monkeypatch.setattr(ad, "edge_aggregate", None)
        prop = GmnPropagation(np.random.default_rng(2), 4, 4, 4, "relu", "prop")
        out = prop(ad.constant(np.ones((pairs.present.size, 4))), batch.edges, pairs)
        assert out.shape == (batch.edges.node_count, 4)

    def test_label_count_mismatch_rejected(self, tmp_path):
        ds, batch = self.batch(tmp_path)
        edges = batch.edges
        pairs = LabelPairs(Batch.of(ds, [0]).edges, batch.node_labels[:5])
        prop = GmnPropagation(np.random.default_rng(2), 4, 4, 4, "relu", "prop")
        with pytest.raises(ValueError, match=f"5 node states for a graph of {edges.node_count} "):
            prop(ad.constant(np.ones((pairs.present.size, 4))), edges, pairs)


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


    def test_stacked_blocks_match_each_block_alone(self):
        rng = np.random.default_rng(12)
        gcn = GcnLayer(rng, 3, 4, "relu", "gcn")
        blocks = [random_graph(rng, 5, p) * rng.uniform(0.2, 2.0) for p in (0.0, 0.5, 0.9)]
        h = rng.normal(size=(15, 3))
        out = gcn(ad.constant(h), ad.constant(np.vstack(blocks))).values
        for g, a in enumerate(blocks):
            alone = gcn(ad.constant(h[5 * g:5 * g + 5]), ad.constant(a)).values
            np.testing.assert_allclose(out[5 * g:5 * g + 5], alone, rtol=1e-14, atol=1e-14)
        with pytest.raises(ValueError, match="square blocks"):
            gcn(ad.constant(h[:14]), ad.constant(np.vstack(blocks)[:14]))


# A·x the two ways pool_forward is given it: stage 0's edge list, stage 1's dense matmul
SPREAD_FORMS = {
    "edge_list": lambda a: union_edges([a]).spread,
    "dense_matmul": lambda a: lambda x: ad.matmul(ad.constant(a), x),
}


class TestPoolForward:
    def test_identity_assignment(self):
        rng = np.random.default_rng(12)
        n, d = 5, 3
        x = ad.constant(rng.normal(size=(n, d)))
        a_vals = random_graph(rng, n, 0.5)
        # logits that force S = I exactly
        x1, a1, s = pool_forward(x, ad.constant(1000.0 * np.eye(n)), union_edges([a_vals]).spread)
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
                                 union_edges([random_graph(rng, n, 0.5)]).spread)
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
        spread = union_edges([random_graph(rng, 4, 0.7)]).spread
        z = ad.constant(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="one row per node"):
            pool_forward(z, ad.constant(np.zeros((5, 3))), spread)
        with pytest.raises(ValueError, match="one row per node"):
            pool_forward(ad.constant(rng.normal(size=(3, 2))), ad.constant(np.zeros((4, 3))), spread)
        # rows agree with each other but not with the graph: A·S cannot meet S^T
        with pytest.raises(ValueError, match="shape mismatch"):
            pool_forward(ad.constant(np.zeros((5, 2))), ad.constant(np.zeros((5, 3))), spread)

    def test_segments_pool_each_graph_alone(self):
        rng = np.random.default_rng(17)
        graphs = [random_graph(rng, n, 0.5) for n in (4, 1, 6)]
        edges = union_edges(graphs)
        offsets = edges.node_offsets
        z, logits = rng.normal(size=(11, 2)), rng.normal(size=(11, 3))
        x1, a1, s = pool_forward(ad.constant(z), ad.constant(logits), edges.spread, offsets)
        assert x1.shape == (9, 2) and a1.shape == (9, 3) and s.shape == (11, 3)
        for g, a in enumerate(graphs):
            rows = slice(offsets[g], offsets[g + 1])
            x_g, a_g, _ = pool_forward(ad.constant(z[rows]), ad.constant(logits[rows]),
                                       union_edges([a]).spread)
            block = slice(3 * g, 3 * g + 3)
            np.testing.assert_allclose(x1.values[block], x_g.values, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(a1.values[block], a_g.values, rtol=1e-14, atol=1e-15)

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
            x1, a1, s = pool_forward(embed(x), assign(x), union_edges([a_vals]).spread)
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

    def test_segmented_losses_are_means_over_graphs(self):
        rng = np.random.default_rng(20)
        offsets = np.array([0, 3, 4, 9])
        s = ad.row_softmax(ad.constant(rng.normal(size=(9, 3))))
        for loss in (loss_le, loss_lc):
            alone = [loss(ad.constant(s.values[lo:hi])).item()
                     for lo, hi in zip(offsets[:-1], offsets[1:])]
            np.testing.assert_allclose(loss(s, offsets).item(), np.mean(alone), rtol=1e-13)
        probs = ad.row_softmax(ad.constant(rng.normal(size=(3, 4))))
        labels = np.array([2, 0, 3])
        np.testing.assert_allclose(
            cross_entropy(probs, labels).item(),
            -np.mean(np.log(probs.values[np.arange(3), labels])), rtol=1e-13)


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
