"""Hierarchical pooling model: two coarsening stages plus a classifier.

The model reads a batch of graphs as one ``data.Batch``, their disjoint
union: one ``Edges`` list over the stacked node rows, cut into graphs by
its node offsets. A single graph is a batch of one. Stage 0 runs two GMN
stacks of the same shape on the whole union: a relu encoder, a relu
propagation step and a linear propagation step, each `gmn_units` wide.
The Z stack ends in `embed_units` node embeddings; the S stack reads
structural features, node features, or both, and ends in `clusters_1`
assignment logits. Stage 1 embeds with a GCN and assigns through a
two-layer MLP fed by similarity features recomputed (differentiably)
from the learned coarse adjacency. Each stage coarsens with
``pool_forward(z, logits, spread, segments)``, ``spread`` being its A·x
and ``segments`` its graphs, so every graph's coarse adjacency is a
c x c block of one (B c) x c stack. Stage 2 sum-pools each graph into a
single row and a dense softmax layer produces class probabilities. There
is no link prediction term anywhere.

The objective is DiffPool's: the task cross-entropy plus the entropy term
L_E and the cluster term L_C of each stage, five terms named once in
``LOSS_TERMS``, each a mean over the batch's graphs. ``forward_graph``
takes a batch and its stacked structural rows, ``forward_batch`` a batch
and those rows per dataset position; both return the same ``Forward``
record, and ``Forward.total`` is the one place that weighs the terms
together.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from . import autodiff as ad
from .data import Batch, ByteReader, require_integer
from .layers import (
    Dense,
    Edges,
    GcnLayer,
    GmnEncoder,
    GmnPropagation,
    MLP,
    block_offsets,
    cross_entropy,
    loss_lc,
    loss_le,
    pool_forward,
)
from .similarity import SimilarityConfig, symmetric_similarity_on_tape

__all__ = [
    "ASSIGN_INPUTS",
    "ModelPreset",
    "PRESETS",
    "resolve_preset",
    "ConfigError",
    "LOSS_TERMS",
    "Forward",
    "SimPoolModel",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"SPM1"

# what the assignment nets read: top-k structural features, node features, or both
ASSIGN_INPUTS = ("structural", "node", "both")


class ConfigError(ValueError):
    """Configuration inconsistent with the requested computation."""


@dataclass(frozen=True)
class ModelPreset:
    """Architecture widths and training settings for one dataset family."""

    name: str
    gmn_units: int  # encoder, message and hidden node width of both GMN stacks
    embed_units: int  # node embeddings leaving the Z stack
    clusters_1: int
    clusters_2: int
    gcn1_units: int
    s1_hidden: int
    gcn2_units: int
    sim: SimilarityConfig
    w_e: float
    w_c: float
    learning_rate: float
    epochs: int

    def __post_init__(self):
        for size in ("gmn_units", "embed_units", "clusters_1", "clusters_2", "gcn1_units",
                     "s1_hidden", "gcn2_units", "epochs"):
            value = getattr(self, size)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{size} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{size} must be >= 1, got {value}")
        if not 0 < self.learning_rate < math.inf:  # also false for nan
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        for weight in ("w_e", "w_c"):
            value = getattr(self, weight)
            if not 0 <= value < math.inf:
                raise ValueError(f"{weight} must be non-negative and finite, got {value!r}")


PRESETS: dict[str, ModelPreset] = {
    "enzymes": ModelPreset(
        name="enzymes",
        gmn_units=512,
        embed_units=256,
        clusters_1=8,
        clusters_2=4,
        gcn1_units=512,
        s1_hidden=256,
        gcn2_units=1024,
        sim=SimilarityConfig(p=1, lam=0.0, alpha=1.0, k=12),
        w_e=1.0,
        w_c=1.0,
        learning_rate=1e-4,
        epochs=100,
    ),
    "dd": ModelPreset(
        name="dd",
        gmn_units=1024,
        embed_units=1024,
        clusters_1=32,
        clusters_2=8,
        gcn1_units=2048,
        s1_hidden=2048,
        gcn2_units=4096,
        sim=SimilarityConfig(p=1, lam=0.0, alpha=1.0, k=25),
        w_e=0.4,
        w_c=1.0,
        learning_rate=1e-4,
        epochs=230,
    ),
}


def resolve_preset(name: str, scale: float = 1.0) -> ModelPreset:
    """Look up a preset and multiply its hidden widths by `scale`.

    Cluster counts, top-k width and loss weights are structural choices
    and stay fixed.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    if not 0 < scale < np.inf:  # also false for nan
        raise ConfigError(f"scale must be positive and finite, got {scale!r}")
    preset = PRESETS[name]
    widths = ("gmn_units", "embed_units", "gcn1_units", "s1_hidden", "gcn2_units")
    return replace(preset, **{w: max(1, round(getattr(preset, w) * scale)) for w in widths})


# DiffPool's objective: task cross-entropy, then L_E and L_C of stages 0 and 1
LOSS_TERMS = ("task_loss", "le_0", "le_1", "lc_0", "lc_1")


@dataclass
class Forward:
    """One forward pass over a graph or a batch of graphs."""

    probs: np.ndarray  # one float64 row per graph, rows sum to 1
    losses: dict[str, ad.Tensor]  # 1 x 1 per name in LOSS_TERMS; batch means
    assign_argmax: tuple[np.ndarray, np.ndarray]  # stage-0 and stage-1 cluster of every row

    def total(self, w_e: float, w_c: float) -> ad.Tensor:
        task, le0, le1, lc0, lc1 = (self.losses[k] for k in LOSS_TERMS)
        out = ad.add(task, ad.scalar_multiply(ad.add(le0, le1), w_e))
        return ad.add(out, ad.scalar_multiply(ad.add(lc0, lc1), w_c))


class _GmnStack:
    """Relu encoder, relu propagation, linear propagation; the Z and S nets."""

    def __init__(self, rng, in_dim: int, units: int, out_dim: int, name: str):
        self.encoder = GmnEncoder(rng, in_dim, units, "relu", f"{name}.enc")
        self.prop0 = GmnPropagation(rng, units, units, units, "relu", f"{name}.prop0")
        self.prop1 = GmnPropagation(rng, units, units, out_dim, "linear", f"{name}.prop1")

    def __call__(self, edges: Edges, x: ad.Tensor) -> ad.Tensor:
        return self.prop1(self.prop0(self.encoder(x), edges), edges)

    def parameters(self) -> dict[str, ad.Tensor]:
        return {**self.encoder.parameters(), **self.prop0.parameters(), **self.prop1.parameters()}


class SimPoolModel:
    """Two pooling stages and a sum-pool classifier head."""

    def __init__(
        self,
        preset: ModelPreset,
        feature_dim: int,
        num_classes: int,
        assign_inputs: str = "structural",
        seed: int = 0,
    ):
        if assign_inputs not in ASSIGN_INPUTS:
            raise ConfigError(f"unknown assignment input mode {assign_inputs!r}")
        require_integer("seed", seed, 0)
        self.preset = preset
        self.sim = preset.sim
        self.assign_inputs = assign_inputs
        rng = np.random.default_rng(seed)

        k = self.sim.k
        f0_dim = {"structural": k, "node": feature_dim, "both": k + feature_dim}[assign_inputs]
        self.z_stack = _GmnStack(rng, feature_dim, preset.gmn_units, preset.embed_units, "z")
        self.s_stack = _GmnStack(rng, f0_dim, preset.gmn_units, preset.clusters_1, "s0")
        d1 = preset.embed_units
        self.gcn1 = GcnLayer(rng, d1, preset.gcn1_units, "relu", "gcn1")
        f1_dim = {
            "structural": preset.clusters_1,
            "node": d1,
            "both": preset.clusters_1 + d1,
        }[assign_inputs]
        self.s1_mlp = MLP(
            rng,
            [f1_dim, preset.s1_hidden, preset.clusters_2],
            ["relu", "linear"],
            "s1",
        )

        self.gcn2 = GcnLayer(rng, preset.gcn1_units, preset.gcn2_units, "relu", "gcn2")
        self.classifier = Dense(rng, preset.gcn2_units, num_classes, "linear", "classifier")

    def parameters(self) -> dict[str, ad.Tensor]:
        out = {}
        out.update(self.z_stack.parameters())
        out.update(self.s_stack.parameters())
        out.update(self.gcn1.parameters())
        out.update(self.s1_mlp.parameters())
        out.update(self.gcn2.parameters())
        out.update(self.classifier.parameters())
        return out

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------

    def _assign_features_0(self, x: ad.Tensor, mapped: np.ndarray | None) -> ad.Tensor:
        if self.assign_inputs == "node":
            return x
        if mapped is None:
            raise ConfigError(
                "structural assignment features requested but no precomputed "
                "mapped similarity was supplied; run preprocessing first"
            )
        if mapped.shape != (x.shape[0], self.sim.k):
            raise ConfigError(
                f"mapped similarity shape {mapped.shape} != ({x.shape[0]}, {self.sim.k})"
            )
        tape = np.dtype(ad.tape_dtype())
        if mapped.dtype.kind == "f" and mapped.dtype.itemsize < tape.itemsize:
            # rounded at preprocessing: widening would not restore the lost bits
            raise ConfigError(
                f"mapped similarity rows are {mapped.dtype}, narrower than the {tape} tape; "
                "preprocess them under the model's ad.precision"
            )
        structural = ad.constant(mapped)
        if self.assign_inputs == "structural":
            return structural
        return ad.concat_columns([structural, x])

    def _assign_features_1(self, x1: ad.Tensor, a1: ad.Tensor) -> ad.Tensor:
        if self.assign_inputs == "node":
            return x1
        structural = symmetric_similarity_on_tape(a1, p=self.sim.p, lam=self.sim.lam)
        if self.assign_inputs == "structural":
            return structural
        return ad.concat_columns([structural, x1])

    def forward_graph(self, batch: Batch, mapped: np.ndarray | None = None) -> Forward:
        """One forward pass over a batch's disjoint union; ``mapped`` stacks its structural rows.

        ``mapped`` may be in the tape dtype, as ``preprocess_dataset`` run
        under the same ``ad.precision`` returns it, or wider, and is then
        cast; a narrower float raises ``ConfigError``.
        """
        edges = batch.edges
        segments = edges.node_offsets
        x = ad.constant(batch.features)
        f0 = self._assign_features_0(x, mapped)
        x1, a1, s0 = pool_forward(self.z_stack(edges, x), self.s_stack(edges, f0), edges.spread,
                                  segments)
        f1 = self._assign_features_1(x1, a1)
        blocks1 = block_offsets(a1)
        # a1's blocks are symmetric: transpose(a1) holds them as column ranges
        x2, a2, s1 = pool_forward(self.gcn1(x1, a1), self.s1_mlp(f1),
                                  lambda s: ad.matmul(ad.transpose(a1), s, blocks1), blocks1)
        z2 = self.gcn2(x2, a2)
        # global sum pool: each graph's c rows summed into one
        pooled = ad.sparse_matmul(
            ad.incidence(np.repeat(np.arange(batch.size), a2.shape[1]), batch.size), z2)
        logits = self.classifier(pooled)
        probs = ad.row_softmax(logits)
        terms = (cross_entropy(probs, batch.labels), loss_le(s0, segments), loss_le(s1, blocks1),
                 loss_lc(s0, segments), loss_lc(s1, blocks1))
        return Forward(
            probs=_row_softmax_float64(logits.values),
            losses=dict(zip(LOSS_TERMS, terms)),
            assign_argmax=(np.argmax(s0.values, axis=1), np.argmax(s1.values, axis=1)),
        )

    def forward_batch(self, batch: Batch, mapped_by_index=None) -> Forward:
        """``forward_graph`` with ``mapped_by_index[i]``, graph i's structural rows, stacked.

        The rows take the dtypes ``forward_graph`` takes; concatenating
        rows already in the tape dtype leaves ``ad.constant`` no copy.
        """
        mapped = None
        if mapped_by_index is not None:
            mapped = np.concatenate([mapped_by_index[int(i)] for i in batch.indices])
        return self.forward_graph(batch, mapped)


def _row_softmax_float64(logits: np.ndarray) -> np.ndarray:
    """The softmax of each row of ``logits``, in float64 and off the tape.

    A float32 row sums to 1 only to about 1e-7. With float64 logits this
    is ``ad.row_softmax`` byte for byte, except that the tape flushes
    probabilities below 2.2e-308 to zero.
    """
    x = logits.astype(np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: SimPoolModel) -> None:
    """Versioned binary container of named parameter tensors, stored as ``<f8`` in any precision."""
    path = os.fspath(path)
    params = model.parameters()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<qq", 1, len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            arr = np.ascontiguousarray(tensor.values, dtype="<f8")
            fh.write(struct.pack("<q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())
    os.replace(tmp, path)


def load_checkpoint(path, model: SimPoolModel) -> None:
    """Restore parameters in place, in the model's dtype; names and shapes must match exactly."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ConfigError(f"bad checkpoint magic {raw[:4]!r}")
    reader = ByteReader(raw, ConfigError, "checkpoint")
    reader.take(4)
    version, count = reader.unpack("<qq")
    if version != 1:
        raise ConfigError(f"unsupported checkpoint version {version}")
    loaded: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<q")
        name = reader.text(name_len)
        (ndim,) = reader.unpack("<q")
        shape = tuple(int(d) for d in reader.array("<i8", ndim))
        if any(d < 0 for d in shape):
            raise ConfigError(f"checkpoint tensor {name} has negative shape {shape}")
        size = math.prod(shape)
        loaded[name] = reader.array("<f8", size).reshape(shape)
    reader.finish()
    params = model.parameters()
    if set(params) != set(loaded):
        missing = sorted(set(params) ^ set(loaded))
        raise ConfigError(f"checkpoint incompatible with model; mismatched names: {missing[:4]}")
    for name, tensor in params.items():
        if loaded[name].shape != tensor.values.shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {loaded[name].shape}, "
                f"expected {tensor.values.shape}"
            )
        tensor.values[...] = loaded[name]
