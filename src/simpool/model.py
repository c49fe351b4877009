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

A batch cut from a node-label column (``Batch.node_labels``) gives every
node one of d one-hot rows, so after the encoder every node state is one
of d rows, and every message of the first propagation depends only on
its (receiver label, sender label) pair: the first step of 1-WL colour
refinement. A stack that reads that column, the Z stack and in ``node``
mode the S stack, runs its encoder on the one-hot rows of the labels
present in the batch, at most min(n, d), and its first propagation once
per label pair present (``GmnPropagation``'s label path, over one
``LabelPairs`` per batch). That regroups the per-node and
per-edge sums of the same parameters, so it is exact in exact arithmetic
and agrees with the per-edge path on the one-hot rows to rounding. Row
stores (structural rows, ``both`` mode's concatenation, degree scalars)
take the per-edge path, and a label column's one-hot rows are cast to
the tape only where a stack reads them.

The objective is DiffPool's: the task cross-entropy plus the entropy term
L_E and the cluster term L_C of each stage, five terms named once in
``LOSS_TERMS``, each a mean over the batch's graphs. ``forward_graph``
takes a batch and its stacked structural rows, ``forward_batch`` a batch
and those rows per dataset position; both return the same ``Forward``
record, and ``Forward.total`` is the one place that weighs the terms
together. The objective is built on one network pass, from the batch to
the logits and both stages' assignments. ``predict`` runs that pass alone
under ``ad.no_grad`` and returns each graph's argmax class, so evaluation
builds no loss term.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import NON_NEGATIVE, POSITIVE, Batch, require_integer, require_real
from .layers import (
    Dense,
    Edges,
    GcnLayer,
    GmnEncoder,
    GmnPropagation,
    LabelPairs,
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
]

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
            require_integer(size, getattr(self, size), 1)
        require_real("learning_rate", self.learning_rate, POSITIVE)
        for weight in ("w_e", "w_c"):
            require_real(weight, getattr(self, weight), NON_NEGATIVE)


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
    require_real("scale", scale, POSITIVE, ConfigError)
    preset = PRESETS[name]
    widths = ("gmn_units", "embed_units", "gcn1_units", "s1_hidden", "gcn2_units")
    return replace(preset, **{w: max(1, round(getattr(preset, w) * scale)) for w in widths})


# DiffPool's objective: task cross-entropy, then L_E and L_C of stages 0 and 1
LOSS_TERMS = ("task_loss", "le_0", "le_1", "lc_0", "lc_1")


@dataclass
class Forward:
    """The objective ``forward_graph`` builds on the network pass over a batch.

    Training reads it; evaluation calls ``SimPoolModel.predict``, which
    runs the same network pass and none of this.
    """

    probs: np.ndarray  # one float64 row per graph, rows sum to 1
    losses: dict[str, ad.Tensor]  # 1 x 1 per name in LOSS_TERMS; batch means
    assign_argmax: tuple[np.ndarray, np.ndarray]  # stage-0 and stage-1 cluster of every row

    def total(self, w_e: float, w_c: float) -> ad.Tensor:
        task, le0, le1, lc0, lc1 = (self.losses[k] for k in LOSS_TERMS)
        out = ad.add(task, ad.scalar_multiply(ad.add(le0, le1), w_e))
        return ad.add(out, ad.scalar_multiply(ad.add(lc0, lc1), w_c))


class _GmnStack:
    """Relu encoder, relu propagation, linear propagation; the Z and S nets.

    Without ``pairs`` the stack reads one row of ``x`` per node. With a
    ``LabelPairs``, ``x`` holds the one-hot rows of the batch's present
    labels: the encoder runs on those, and the first propagation reads the
    table it returns through each node's row (``GmnPropagation``'s label
    path).
    """

    def __init__(self, rng, in_dim: int, units: int, out_dim: int, name: str):
        self.encoder = GmnEncoder(rng, in_dim, units, "relu", f"{name}.enc")
        self.prop0 = GmnPropagation(rng, units, units, units, "relu", f"{name}.prop0")
        self.prop1 = GmnPropagation(rng, units, units, out_dim, "linear", f"{name}.prop1")

    def __call__(self, edges: Edges, x: ad.Tensor, pairs: LabelPairs | None = None) -> ad.Tensor:
        return self.prop1(self.prop0(self.encoder(x), edges, pairs), edges)

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
        require_integer("feature_dim", feature_dim, 1)
        require_integer("num_classes", num_classes, 1)
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

    def _assign_features_0(self, x: ad.Tensor, pairs: LabelPairs | None, rows: np.ndarray,
                           mapped: np.ndarray | None) -> tuple[ad.Tensor, LabelPairs | None]:
        """The S stack's input, as the Z stack's (``x``, ``pairs``) is: the node input in
        ``node`` mode, else the structural rows, beside the node ``rows`` in ``both`` mode."""
        if self.assign_inputs == "node":
            return x, pairs
        if mapped is None:
            raise ConfigError(
                "structural assignment features requested but no precomputed "
                "mapped similarity was supplied; run preprocessing first"
            )
        if mapped.shape != (rows.shape[0], self.sim.k):
            raise ConfigError(
                f"mapped similarity shape {mapped.shape} != ({rows.shape[0]}, {self.sim.k})"
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
            return structural, None
        return ad.concat_columns([structural, x if pairs is None else ad.constant(rows)]), None

    def _assign_features_1(self, x1: ad.Tensor, a1: ad.Tensor) -> ad.Tensor:
        if self.assign_inputs == "node":
            return x1
        structural = symmetric_similarity_on_tape(a1, p=self.sim.p, lam=self.sim.lam)
        if self.assign_inputs == "structural":
            return structural
        return ad.concat_columns([structural, x1])

    def _network(self, batch: Batch, mapped: np.ndarray | None):
        """The network alone: the logits, both assignment outputs and ``s1``'s graph blocks.

        ``forward_graph`` builds the objective on this pass and ``predict``
        reads only its logits.
        """
        edges, rows, labels = batch.edges, batch.features, batch.node_labels
        pairs = None if labels is None else LabelPairs(edges, labels)
        # a label column feeds the stacks its present labels' one-hot rows, not the n node rows
        x = ad.constant(rows if pairs is None else pairs.label_rows(rows.shape[1]))
        f0 = self._assign_features_0(x, pairs, rows, mapped)
        x1, a1, s0 = pool_forward(self.z_stack(edges, x, pairs), self.s_stack(edges, *f0),
                                  edges.spread, edges.node_segments)
        f1 = self._assign_features_1(x1, a1)
        blocks1 = block_offsets(a1)
        # a1's blocks are symmetric: transpose(a1) holds them as column ranges
        x2, a2, s1 = pool_forward(self.gcn1(x1, a1), self.s1_mlp(f1),
                                  lambda s: ad.matmul(ad.transpose(a1), s, blocks1), blocks1)
        z2 = self.gcn2(x2, a2)
        # global sum pool: each graph's c rows summed into one
        pooled = ad.sparse_matmul(
            ad.incidence(np.repeat(np.arange(batch.size), a2.shape[1]), batch.size), z2)
        return self.classifier(pooled), s0, s1, blocks1

    def forward_graph(self, batch: Batch, mapped: np.ndarray | None = None) -> Forward:
        """One forward pass over a batch's disjoint union; ``mapped`` stacks its structural rows.

        ``mapped`` may be in the tape dtype, as ``preprocess_dataset`` run
        under the same ``ad.precision`` returns it, or wider, and is then
        cast; a narrower float raises ``ConfigError``.
        """
        logits, s0, s1, blocks1 = self._network(batch, mapped)
        segments = batch.edges.node_segments
        probs = ad.row_softmax(logits)
        terms = (cross_entropy(probs, batch.labels), loss_le(s0, segments), loss_le(s1, blocks1),
                 loss_lc(s0, segments), loss_lc(s1, blocks1))
        with ad.no_grad(), ad.precision(np.float64):  # float32 rows sum to 1 only to about 1e-7
            report = ad.row_softmax(ad.constant(logits.values)).values
        return Forward(
            probs=report,
            losses=dict(zip(LOSS_TERMS, terms)),
            assign_argmax=(np.argmax(s0.values, axis=1), np.argmax(s1.values, axis=1)),
        )

    def forward_batch(self, batch: Batch, mapped_by_index=None) -> Forward:
        """``forward_graph`` with ``mapped_by_index[i]``, graph i's structural rows, stacked.

        The rows take the dtypes ``forward_graph`` takes; concatenating
        rows already in the tape dtype leaves ``ad.constant`` no copy.
        """
        return self.forward_graph(batch, _stacked_rows(batch, mapped_by_index))

    def predict(self, batch: Batch, mapped_by_index=None) -> np.ndarray:
        """Each graph's class, the argmax of its logits, from the network pass alone.

        It takes ``forward_batch``'s arguments and records nothing, even
        inside an open tape. It builds no loss term and no float64 report,
        and its classes are ``forward_batch(...).probs.argmax(axis=1)``
        except where two probabilities round to one float64 value.
        """
        with ad.no_grad():
            logits = self._network(batch, _stacked_rows(batch, mapped_by_index))[0]
        return np.argmax(logits.values, axis=1)


def _stacked_rows(batch: Batch, mapped_by_index) -> np.ndarray | None:
    """The batch's structural rows in graph order, or None without ``mapped_by_index``."""
    if mapped_by_index is None:
        return None
    return np.concatenate([mapped_by_index[int(i)] for i in batch.indices])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: SimPoolModel) -> None:
    """Write the parameters as an ``.npz`` archive, one ``<f8`` member per name, in any precision.

    Each member carries a CRC-32. The archive goes through an open handle (``np.savez``
    would append ``.npz`` to a path string) to ``<path>.tmp.<pid>``, is flushed to disk
    and then replaces ``path`` in one step, so ``path`` holds the old or the new
    checkpoint, never part of one. A write that raises removes the temporary file.
    """
    path = os.fspath(path)
    params = model.parameters()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{name: np.asarray(t.values, dtype="<f8") for name, t in params.items()})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, model: SimPoolModel) -> None:
    """Restore parameters in place, in the model's dtype, from a ``save_checkpoint`` archive.

    Names must match the model's exactly, and every member must be a float64 array of its
    parameter's shape; anything else, and any failed read (not an archive, truncated, a
    CRC mismatch, a pickled member), raises ``ConfigError``. The model changes only once
    every check passes.
    """
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a lone .npy array, not an .npz archive")
            with archive:
                loaded = dict(archive.items())
        # one flipped header byte raises BadZipFile, EOFError, ValueError or NotImplementedError
        # (a method, version or flag field), and numpy and zipfile name no common base
        except Exception as exc:
            raise ConfigError(f"unreadable checkpoint {os.fspath(path)!r}: {exc}") from exc
    params = model.parameters()
    if set(params) != set(loaded):
        missing = sorted(set(params) ^ set(loaded))
        raise ConfigError(f"checkpoint incompatible with model; mismatched names: {missing[:4]}")
    for name, tensor in params.items():
        values, expected = loaded[name], ("float64", tensor.values.shape)
        # a member without the .npy suffix reads back as raw bytes
        got = (str(values.dtype), values.shape) if isinstance(values, np.ndarray) else "raw bytes"
        if got != expected:
            raise ConfigError(f"checkpoint tensor {name} is {got}, expected {expected}")
    for name, tensor in params.items():
        tensor.values[...] = loaded[name]
