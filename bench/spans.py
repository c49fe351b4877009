"""Runtime tracing of simpool from outside the package.

``Tracer.install`` replaces the public callables of ``data``,
``similarity``, ``autodiff``, ``layers``, ``model`` and ``training`` that
the per-layer table needs with timing wrappers, in every module that looks
the name up, and restores the originals on ``uninstall``. Each wrapped call records a span (name, kind,
phase, start, end, parent). Every backward closure that an autodiff
primitive puts on the tape is wrapped too, tagged with the layer that was
open when it was recorded, so backward time can be split by primitive and
by layer. Matmul FLOPs are counted from operand shapes.

Spans and counters stay in memory; ``per_layer_metrics`` reduces them to
the per-layer table.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from simpool import autodiff as ad
from simpool import data, layers, model, similarity, training

# autodiff primitives: every public function that records onto a tape
PRIMITIVES = tuple(
    name for name in ad.__all__
    if name not in {"Tensor", "Tape", "NumericError", "no_grad", "constant", "parameter",
                    "grad_check", "inject_backward_fault", "clear_backward_fault"}
)

# layer spans the per-layer table reports; "(model)" collects ops outside them
LAYERS = ("z.enc", "z.prop0", "z.prop1", "s0.enc", "s0.prop0", "s0.prop1", "pool0",
          "gcn1", "s1", "pool1", "gcn2", "classifier", "loss_le", "loss_lc", "cross_entropy")
LOSSES = ("loss_le", "loss_lc", "cross_entropy")
# the losses run no matmul, so they have no FLOP entry
MATMUL_LAYERS = tuple(layer for layer in LAYERS if layer not in LOSSES)
ON_TAPE_SIMILARITY = "similarity.on_tape"
UNSCOPED = "(model)"

# primitives the model puts on the tape in a training step
TAPE_OPS = ("matmul", "transpose", "add", "subtract", "multiply", "scalar_multiply",
            "concat_columns", "gather", "gather_rows", "row_softmax", "tanh", "relu", "log",
            "sqrt", "reciprocal", "clamp_min", "sum_all", "row_sum", "col_sum")

LAYER, OP, CALL = "layer", "op", "call"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, kind, phase, start, end, parent)
        self.phase = "setup"
        self.bwd_s: dict[tuple, float] = defaultdict(float)  # (phase, op, layer) -> s
        self.flops: dict[tuple, float] = defaultdict(float)  # (phase, layer) -> flops
        self.tape_nodes: dict[str, int] = defaultdict(int)
        self.batches: list[tuple] = []  # (phase, bytes, pad efficiency)
        self.similarity: list[tuple] = []  # (name, nodes, seconds)
        self.sparse_stats: list[similarity.SparseStats] = []
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._pools = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------

    def _timed(self, fn, name, kind, layer_of=None):
        """Wrap ``fn`` so each call records a span; ``layer_of`` names a layer span."""
        spans, stack, layers_open, clock = self.spans, self._stack, self._layers, time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name if layer_of is None else layer_of(*args)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if layer_of is not None:
                layers_open.append(span_name)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if layer_of is not None:
                    layers_open.pop()
                spans[idx] = (span_name, kind, self.phase, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, name, replacement, *modules):
        for module in modules:
            if hasattr(module, name):
                self._patch(module, name, replacement)

    # ------------------------------------------------------------------
    # wrappers with extra bookkeeping
    # ------------------------------------------------------------------

    def _record_hook(self, original):
        """Wrap each recorded backward closure; count tape nodes and matmul FLOPs."""
        bwd_s, flops, clock = self.bwd_s, self.flops, time.perf_counter

        def record(op_name, out, parents, backward):
            layer = self._layers[-1] if self._layers else UNSCOPED
            phase = self.phase
            mm = 0.0
            if op_name == "matmul":
                (m, k), n = parents[0].shape, parents[1].shape[1]
                mm = 2.0 * m * k * n
                flops[(phase, layer)] += mm

            def timed_backward(g):
                start = clock()
                result = backward(g)
                bwd_s[(phase, op_name, layer)] += clock() - start
                if mm:
                    flops[(phase, layer)] += 2.0 * mm
                return result

            result = original(op_name, out, parents, timed_backward)
            if out._op_output:
                self.tape_nodes[phase] += 1
            return result

        return record

    def _make_batches_hook(self, original):
        timed = self._timed(original, "data.make_batches", CALL)

        def make_batches(ds, batch_size, *args, **kwargs):
            batches = timed(ds, batch_size, *args, **kwargs)
            for b in batches:
                n = b.node_counts().astype(np.float64)
                n_max = b.adjacency.shape[1]
                nbytes = sum(a.nbytes for a in (b.adjacency, b.features, b.node_mask))
                self.batches.append((self.phase, nbytes, (n * n).sum() / (b.size * n_max * n_max)))
            return batches

        return make_batches

    def _similarity_hook(self, original, name):
        clock = time.perf_counter

        def wrapper(features_or_adj, cfg, *args, **kwargs):
            start = clock()
            out = original(features_or_adj, cfg, *args, **kwargs)
            self.similarity.append((name, out.source_node_count, clock() - start))
            return out

        return wrapper

    def _sparse_stats_hook(self, original):
        """Ask the sparse path for its own ``SparseStats`` and keep them."""

        def similarity_sparse(a, cfg, return_stats=False):
            features, stats = original(a, cfg, return_stats=True)
            self.sparse_stats.append(stats)
            return (features, stats) if return_stats else features

        return similarity_sparse

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # every caller looks primitives up as ``ad.<op>``, except the activation table
        for op in PRIMITIVES:
            self._patch(ad, op, self._timed(getattr(ad, op), f"autodiff.{op}", OP))
        for key in ("relu", "tanh"):
            self._patch_dict(layers.ACTIVATIONS, key, getattr(ad, key))
        self._patch(ad, "_record", self._record_hook(ad._record))
        self._patch(ad.Tape, "backward", self._timed(ad.Tape.backward, "autodiff.backward", CALL))

        self._patch(data, "load_tu_dataset", self._timed(data.load_tu_dataset, "data.load", CALL))
        self._patch_everywhere("make_batches", self._make_batches_hook(data.make_batches),
                               data, training)

        self._patch(similarity, "compute_features",
                    self._similarity_hook(similarity.compute_features, "compute_features"))
        self._patch(similarity, "index_map", self._similarity_hook(similarity.index_map, "index_map"))
        self._patch(similarity, "similarity_sparse",
                    self._sparse_stats_hook(similarity.similarity_sparse))
        self._patch(similarity, "preprocess_dataset",
                    self._timed(similarity.preprocess_dataset, "similarity.preprocess", CALL))
        on_tape = self._timed(similarity.symmetric_similarity_on_tape, ON_TAPE_SIMILARITY, LAYER,
                              layer_of=lambda *a: ON_TAPE_SIMILARITY)
        self._patch_everywhere("symmetric_similarity_on_tape", on_tape, similarity, model)

        self._patch(layers.GmnEncoder, "__call__", self._timed(
            layers.GmnEncoder.__call__, None, LAYER,
            layer_of=lambda enc, *a: enc.dense.name.rsplit(".", 1)[0]))
        self._patch(layers.GmnPropagation, "__call__", self._timed(
            layers.GmnPropagation.__call__, None, LAYER,
            layer_of=lambda prop, *a: prop.f_message.name.rsplit(".", 1)[0]))
        self._patch(layers.GcnLayer, "__call__", self._timed(
            layers.GcnLayer.__call__, None, LAYER, layer_of=lambda gcn, *a: gcn.name))
        self._patch(layers.MLP, "__call__", self._timed(
            layers.MLP.__call__, None, LAYER,
            layer_of=lambda mlp, *a: mlp.layers[0].name.rsplit(".", 1)[0]))
        dense_call = layers.Dense.__call__
        classifier_call = self._timed(dense_call, "classifier", LAYER,
                                      layer_of=lambda dense, *a: dense.name)
        self._patch(layers.Dense, "__call__", lambda dense, x: (
            classifier_call(dense, x) if dense.name == "classifier" else dense_call(dense, x)))

        def pool_name(*args):
            name = f"pool{self._pools}"
            self._pools += 1
            return name

        self._patch_everywhere("pool_forward", self._timed(layers.pool_forward, None, LAYER,
                                                           layer_of=pool_name), layers, model)
        for loss in LOSSES:
            wrapped = self._timed(getattr(layers, loss), loss, LAYER, layer_of=lambda *a, n=loss: n)
            self._patch_everywhere(loss, wrapped, layers, model)

        forward_graph = self._timed(model.SimPoolModel.forward_graph, "model.forward_graph", CALL)

        def forward_graph_hook(*args, **kwargs):
            self._pools = 0
            return forward_graph(*args, **kwargs)

        self._patch(model.SimPoolModel, "forward_graph", forward_graph_hook)
        self._patch(model.SimPoolModel, "forward_batch",
                    self._timed(model.SimPoolModel.forward_batch, "model.forward_batch", CALL))
        self._patch(training.Adam, "step", self._timed(training.Adam.step, "training.adam_step", CALL))
        self._patch(training, "evaluate_accuracy",
                    self._timed(training.evaluate_accuracy, "training.evaluate_accuracy", CALL))

    def _patch_dict(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, CALL, self.phase, start, end, parent)

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def layer_self_times(self, phase: str) -> dict[str, float]:
        """Per layer: span duration minus the time covered by child layer spans."""
        self_s: dict[str, float] = defaultdict(float)
        for name, kind, span_phase, start, end, parent in self.spans:
            if kind != LAYER or span_phase != phase:
                continue
            self_s[name] += end - start
            if parent >= 0 and self.spans[parent][1] == LAYER:
                self_s[self.spans[parent][0]] -= end - start
        return self_s

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, int]]:
        """Summed duration and call count per span name within a phase."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, _, span_phase, start, end, _ in self.spans:
            if span_phase == phase:
                seconds[name] += end - start
                calls[name] += 1
        return seconds, calls


def per_layer_metrics(tracer: Tracer, train_steps: int, eval_batches: int,
                      overhead: float) -> dict:
    """Reduce a traced run to the per-layer table; ``*_per_step`` divides by attempted steps."""
    secs, calls = tracer.totals("train")
    setup_secs, _ = tracer.totals("setup")
    eval_secs, _ = tracer.totals("eval")
    self_s = tracer.layer_self_times("train")
    per = 1.0 / train_steps
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    bwd_op: dict[str, float] = defaultdict(float)
    bwd_layer: dict[str, float] = defaultdict(float)
    for (phase, op, layer), s in tracer.bwd_s.items():
        if phase == "train":
            bwd_op[op] += s
            bwd_layer[layer] += s
    gflop = {layer: f / 1e9 for (phase, layer), f in tracer.flops.items() if phase == "train"}

    put("autodiff.tape_nodes_per_step", tracer.tape_nodes["train"] * per, "count")
    put("model.forward_graph_calls_per_step", calls["model.forward_graph"] * per, "count")
    for op in TAPE_OPS:
        put(f"autodiff.fwd_s.{op}", secs[f"autodiff.{op}"] * per, "s")
    for op in TAPE_OPS:
        put(f"autodiff.bwd_s.{op}", bwd_op[op] * per, "s")
    put("autodiff.backward_s_per_step", secs["autodiff.backward"] * per, "s")
    put("autodiff.matmul_gflop_per_step", sum(gflop.values()) * per, "GFLOP")
    for layer in LAYERS:
        put(f"layers.fwd_s.{layer}", self_s[layer] * per, "s")
    for layer in LAYERS:
        put(f"layers.bwd_s.{layer}", bwd_layer[layer] * per, "s")
    for layer in MATMUL_LAYERS:
        put(f"layers.gflop.{layer}", gflop.get(layer, 0.0) * per, "GFLOP")
    put("model.forward_batch_s_per_step", secs["model.forward_batch"] * per, "s")
    put("training.forward_s_per_step", secs["training.forward"] * per, "s")
    put("training.adam_s_per_step", secs["training.adam_step"] * per, "s")
    put("training.eval_s_per_batch", eval_secs["training.evaluate_accuracy"] / eval_batches, "s")

    built = [(nbytes, eff) for phase, nbytes, eff in tracer.batches if phase == "train"]
    put("data.load_s", setup_secs["data.load"], "s")
    put("data.make_batches_s_per_step", secs["data.make_batches"] * per, "s")
    put("data.batch_mb_per_step", np.mean([b for b, _ in built]) / 1e6, "MB")
    put("data.pad_efficiency", np.mean([e for _, e in built]), "ratio")

    for name, metric in (("compute_features", "similarity.features_s"),
                         ("index_map", "similarity.index_map_s")):
        rows = [(n, s) for kind, n, s in tracer.similarity if kind == name]
        put(metric, sum(s for _, s in rows), "s")
        put(f"{metric}.max_graph", max(rows)[1], "s")
    put("similarity.multiply_adds", sum(st.multiply_adds for st in tracer.sparse_stats), "count")
    put("similarity.pairs", sum(st.pair_count for st in tracer.sparse_stats), "count")
    put("similarity.on_tape_s_per_step", secs[ON_TAPE_SIMILARITY] * per, "s")
    put("trace.overhead_ratio", overhead, "ratio")
    return out
