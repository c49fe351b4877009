"""Hierarchical pooling model: two coarsening stages plus a classifier.

Stage 0 runs two GMN stacks of the same shape: a relu encoder, a relu
propagation step and a linear propagation step, each `gmn_units` wide.
The Z stack ends in `embed_units` node embeddings; the S stack reads
structural features, node features, or both, and ends in `clusters_1`
assignment logits. Stage 1 embeds with a GCN and assigns through a
two-layer MLP fed by similarity features recomputed (differentiably)
from the learned coarse adjacency. Each stage coarsens with
``pool_forward(z, logits, a)``. Stage 2 sum-pools everything into a
single row and a dense softmax layer produces class probabilities.
There is no link prediction term anywhere.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import ByteReader, PaddedBatch
from .layers import (
    Dense,
    GcnLayer,
    GmnEncoder,
    GmnPropagation,
    MLP,
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
    "GraphForward",
    "BatchForward",
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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.w_e < 0 or self.w_c < 0:
            raise ValueError("loss weights must be non-negative")


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
    preset = PRESETS[name]
    widths = ("gmn_units", "embed_units", "gcn1_units", "s1_hidden", "gcn2_units")
    return replace(preset, **{w: max(1, round(getattr(preset, w) * scale)) for w in widths})


@dataclass
class GraphForward:
    probs: ad.Tensor  # 1 x num_classes, rows sum to 1
    ce: ad.Tensor
    le: tuple[ad.Tensor, ad.Tensor]
    lc: tuple[ad.Tensor, ad.Tensor]
    assign_argmax: tuple[np.ndarray, np.ndarray]


@dataclass
class BatchForward:
    probs: np.ndarray  # B x num_classes
    task_loss: ad.Tensor
    le: tuple[ad.Tensor, ad.Tensor]
    lc: tuple[ad.Tensor, ad.Tensor]
    cluster_ids: tuple[set[int], set[int]]

    def total(self, w_e: float, w_c: float) -> ad.Tensor:
        out = self.task_loss
        if w_e != 0.0:
            out = ad.add(out, ad.scalar_multiply(ad.add(self.le[0], self.le[1]), w_e))
        if w_c != 0.0:
            out = ad.add(out, ad.scalar_multiply(ad.add(self.lc[0], self.lc[1]), w_c))
        return out


class _GmnStack:
    """Relu encoder, relu propagation, linear propagation; the Z and S nets."""

    def __init__(self, rng, in_dim: int, units: int, out_dim: int, name: str):
        self.encoder = GmnEncoder(rng, in_dim, units, "relu", f"{name}.enc")
        self.prop0 = GmnPropagation(rng, units, units, units, "relu", f"{name}.prop0")
        self.prop1 = GmnPropagation(rng, units, units, out_dim, "linear", f"{name}.prop1")
        self.out_dim = out_dim

    def __call__(self, a: ad.Tensor, x: ad.Tensor) -> ad.Tensor:
        return self.prop1(self.prop0(self.encoder(x), a), a)

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
        self.preset = preset
        self.sim = preset.sim
        self.assign_inputs = assign_inputs
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.seed = seed
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

    def zero_grad(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

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

    def forward_graph(self, adjacency, features, mapped=None, label: int | None = None) -> GraphForward:
        a = ad.constant(adjacency)
        x = ad.constant(features)
        f0 = self._assign_features_0(x, mapped)
        x1, a1, s0 = pool_forward(self.z_stack(a, x), self.s_stack(a, f0), a)
        f1 = self._assign_features_1(x1, a1)
        x2, a2, s1 = pool_forward(self.gcn1(x1, a1), self.s1_mlp(f1), a1)
        z2 = self.gcn2(x2, a2)
        pooled = ad.col_sum(z2)  # global sum pool: all-ones assignment
        probs = ad.row_softmax(self.classifier(pooled))
        ce = cross_entropy(probs, label) if label is not None else ad.constant([[0.0]])
        return GraphForward(
            probs=probs,
            ce=ce,
            le=(loss_le(s0), loss_le(s1)),
            lc=(loss_lc(s0), loss_lc(s1)),
            assign_argmax=(
                np.argmax(s0.values, axis=1),
                np.argmax(s1.values, axis=1),
            ),
        )

    def forward_batch(self, batch: PaddedBatch, mapped_by_index=None) -> BatchForward:
        counts = batch.node_counts()
        b = batch.size
        ce_terms, le0, le1, lc0, lc1 = [], [], [], [], []
        probs = np.zeros((b, self.num_classes))
        ids0: set[int] = set()
        ids1: set[int] = set()
        for slot in range(b):
            n = int(counts[slot])
            mapped = None
            if mapped_by_index is not None:
                mapped = mapped_by_index[int(batch.indices[slot])][:n]
            out = self.forward_graph(
                batch.adjacency[slot, :n, :n],
                batch.features[slot, :n],
                mapped=mapped,
                label=int(batch.labels[slot]),
            )
            probs[slot] = out.probs.values[0]
            ce_terms.append(out.ce)
            le0.append(out.le[0])
            le1.append(out.le[1])
            lc0.append(out.lc[0])
            lc1.append(out.lc[1])
            ids0.update(int(c) for c in np.unique(out.assign_argmax[0]))
            ids1.update(int(c) for c in np.unique(out.assign_argmax[1]))

        def mean(terms):
            acc = terms[0]
            for t in terms[1:]:
                acc = ad.add(acc, t)
            return ad.scalar_multiply(acc, 1.0 / len(terms))

        return BatchForward(
            probs=probs,
            task_loss=mean(ce_terms),
            le=(mean(le0), mean(le1)),
            lc=(mean(lc0), mean(lc1)),
            cluster_ids=(ids0, ids1),
        )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: SimPoolModel) -> None:
    """Versioned binary container of named parameter tensors."""
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
    """Restore parameters in place; names and shapes must match exactly."""
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
        name = bytes(reader.take(name_len)).decode("utf-8")
        (ndim,) = reader.unpack("<q")
        shape = tuple(reader.array("<i8", ndim))
        size = int(np.prod(shape)) if ndim else 1
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
