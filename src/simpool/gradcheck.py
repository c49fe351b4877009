"""Finite-difference verification of every differentiable component.

Each check draws seeded random graphs (|V| <= 10), builds the component
with fresh random parameters, and compares analytic gradients of a scalar
projection of the output against central differences, parameter
coordinate by coordinate. The suite runs in float64, whatever the
tape's setting outside it: its tolerance is far below float32 rounding.

ReLU networks are piecewise linear: occasionally a pre-activation lies
within epsilon of its kink and the epsilon-wide secant spans two linear
pieces, making that single comparison meaningless. When a parameter
exceeds tolerance it is re-checked at smaller epsilon; a kink artefact
vanishes once the secant no longer crosses the kink, while a genuine
backward defect persists at every scale and still fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .data import Batch, Graph
from .layers import (
    Dense,
    Edges,
    GcnLayer,
    GmnEncoder,
    GmnPropagation,
    cross_entropy,
    loss_lc,
    loss_le,
    pool_forward,
)
from .model import SimPoolModel, resolve_preset
from .similarity import compute_features, index_map, symmetric_similarity_on_tape

__all__ = ["CheckResult", "run_suite", "SUITE_CHECKS"]


@dataclass
class CheckResult:
    name: str
    graphs: int
    max_error: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _random_graph(rng, n: int) -> np.ndarray:
    a = (rng.random((n, n)) < 0.5).astype(np.float64)
    a = np.triu(a, 1)
    return a + a.T


EPSILON = 1e-5
REFINEMENT_EPSILONS = (1e-6, 1e-7)
TOLERANCE = 1e-4


def _graded_check(f, x: ad.Tensor) -> float:
    err = ad.grad_check(f, x, epsilon=EPSILON)
    for finer in REFINEMENT_EPSILONS:
        if err < TOLERANCE:
            break
        err = ad.grad_check(f, x, epsilon=finer)
    return err


def _check_params(forward, params: dict[str, ad.Tensor]) -> float:
    worst = 0.0
    for p in params.values():
        worst = max(worst, _graded_check(lambda _: forward(), p))
    return worst


def _check_gmn_encoder(rng, n):
    enc = GmnEncoder(rng, 3, 5, "relu", "enc")
    x = ad.constant(rng.uniform(-2, 2, size=(n, 3)))
    proj = rng.normal(size=(n, 5))
    forward = lambda: ad.sum_all(ad.multiply(enc(x), ad.constant(proj)))
    return _check_params(forward, enc.parameters())


def _check_gmn_propagation(rng, n):
    p1 = GmnPropagation(rng, 3, 4, 4, "relu", "p1")
    p2 = GmnPropagation(rng, 4, 4, 3, "linear", "p2")
    edges = Edges([_random_graph(rng, n)])
    x = ad.constant(rng.uniform(-2, 2, size=(n, 3)))
    proj = rng.normal(size=(n, 3))
    forward = lambda: ad.sum_all(ad.multiply(p2(p1(x, edges), edges), ad.constant(proj)))
    return _check_params(forward, {**p1.parameters(), **p2.parameters()})


def _check_gcn(rng, n):
    gcn = GcnLayer(rng, 3, 4, "relu", "gcn")
    a = ad.constant(_random_graph(rng, n))
    x = ad.constant(rng.uniform(-2, 2, size=(n, 3)))
    proj = rng.normal(size=(n, 4))
    forward = lambda: ad.sum_all(ad.multiply(gcn(x, a), ad.constant(proj)))
    return _check_params(forward, gcn.parameters())


def _check_pooling(rng, n):
    clusters = 3
    embed = Dense(rng, 3, 4, "tanh", "embed")
    assign = Dense(rng, 3, clusters, "linear", "assign")
    edges = Edges([_random_graph(rng, n)])
    x = ad.constant(rng.uniform(-2, 2, size=(n, 3)))
    proj_x = rng.normal(size=(clusters, 4))
    proj_a = rng.normal(size=(clusters, clusters))

    def forward():
        x1, a1, s = pool_forward(embed(x), assign(x), edges.spread)
        term = ad.add(
            ad.sum_all(ad.multiply(x1, ad.constant(proj_x))),
            ad.sum_all(ad.multiply(a1, ad.constant(proj_a))),
        )
        return ad.add(term, ad.add(loss_le(s), loss_lc(s)))

    return _check_params(forward, {**embed.parameters(), **assign.parameters()})


def _check_loss_le(rng, n):
    logits = ad.parameter(rng.uniform(-2, 2, size=(n, 4)))
    return _graded_check(lambda t: loss_le(ad.row_softmax(t)), logits)


def _check_loss_lc(rng, n):
    logits = ad.parameter(rng.uniform(-2, 2, size=(n, 4)))
    return _graded_check(lambda t: loss_lc(ad.row_softmax(t)), logits)


def _check_full_model(rng, n):
    preset = resolve_preset("enzymes", scale=1 / 32)  # width-16 variant
    model = SimPoolModel(
        preset,
        feature_dim=3,
        num_classes=6,
        assign_inputs="structural",
        seed=int(rng.integers(0, 2**31)),
    )
    a = _random_graph(rng, n)
    x = rng.uniform(-1, 1, size=(n, 3))
    mapped = index_map(compute_features(a, model.sim), model.sim).mapped
    label = int(rng.integers(0, 6))

    batch = Batch.of([Graph(sp.csr_matrix(a), x, label)])

    def forward():
        return model.forward_graph(batch, mapped).total(1.0, 1.0)

    return _check_params(forward, model.parameters())


def _check_packed_batch(rng, n):
    """Stage 0 to the losses on a disjoint union of three graphs, one edgeless.

    A linear propagation follows the tanh one, so the edgeless graph's
    zero-degree rows pass through its fold.
    """
    sizes = [n, int(rng.integers(3, 11)), int(rng.integers(3, 11))]
    graphs = [_random_graph(rng, sizes[0]), _random_graph(rng, sizes[1]), np.zeros((sizes[2],) * 2)]
    edges = Edges(graphs)
    segments = edges.node_offsets
    prop = GmnPropagation(rng, 3, 3, 3, "tanh", "prop")
    fold = GmnPropagation(rng, 3, 4, 3, "linear", "fold")
    assign = Dense(rng, 3, 2, "linear", "assign")
    gcn = GcnLayer(rng, 3, 2, "tanh", "gcn")
    x = ad.constant(rng.uniform(-2, 2, size=(segments[-1], 3)))
    labels = rng.integers(0, 2, size=len(graphs))

    def forward():
        h = fold(prop(x, edges), edges)
        x1, a1, s = pool_forward(h, assign(h), edges.spread, segments)
        z1 = ad.multiply(gcn(x1, a1), symmetric_similarity_on_tape(a1))
        pooled = ad.sparse_matmul(
            ad.incidence(np.repeat(np.arange(len(graphs)), a1.shape[1]), len(graphs)), z1)
        task = cross_entropy(ad.row_softmax(pooled), labels)
        return ad.add(task, ad.add(loss_le(s, segments), loss_lc(s, segments)))

    params = {**prop.parameters(), **fold.parameters(), **assign.parameters(), **gcn.parameters()}
    return _check_params(forward, params)


SUITE_CHECKS = {
    "gmn_encoder": _check_gmn_encoder,
    "gmn_propagation": _check_gmn_propagation,
    "gcn": _check_gcn,
    "pooling_eq9": _check_pooling,
    "loss_le": _check_loss_le,
    "loss_lc": _check_loss_lc,
    "full_model_width16": _check_full_model,
    "packed_batch": _check_packed_batch,
}


def run_suite(
    seed: int = 7,
    graphs_per_check: int = 20,
    checks: list[str] | None = None,
    progress=None,
) -> list[CheckResult]:
    """Run the finite-difference suite in float64; one result per component."""
    results = []
    for name, check in SUITE_CHECKS.items():
        if checks is not None and name not in checks:
            continue
        start = time.perf_counter()
        worst = 0.0
        with ad.precision(np.float64):
            for g in range(graphs_per_check):
                rng = np.random.default_rng(seed * 100_003 + g)
                n = int(rng.integers(3, 11))
                worst = max(worst, check(rng, n))
        results.append(
            CheckResult(
                name=name,
                graphs=graphs_per_check,
                max_error=worst,
                tolerance=TOLERANCE,
                seconds=time.perf_counter() - start,
            )
        )
        if progress is not None:
            progress(results[-1])
    return results
