"""Optimisation loop, cross-validation driver, and run statistics."""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError
from .data import (POSITIVE, Batch, Dataset, batch_positions, kfold_split, require_integer,
                   require_real)
from .model import ASSIGN_INPUTS, LOSS_TERMS, ConfigError, ModelPreset, SimPoolModel
from .similarity import preprocess_dataset

__all__ = [
    "TrainConfig",
    "EpochStats",
    "RunStats",
    "CrossValResult",
    "Adam",
    "train_run",
    "cross_validate",
    "evaluate_accuracy",
    "stats_to_csv",
    "stats_from_csv",
]

@dataclass(frozen=True)
class TrainConfig:
    """One training run: a resolved, scaled preset plus the data settings.

    Learning rate, epochs, loss weights and the similarity config live only
    in the preset; override them with ``dataclasses.replace`` on it.
    """

    preset: ModelPreset
    assign_inputs: str = "structural"
    batch_size: int = 20
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.preset, ModelPreset):
            raise ConfigError(f"preset must be a ModelPreset, got {type(self.preset).__name__} "
                              f"{self.preset!r}; build one with resolve_preset")
        if self.assign_inputs not in ASSIGN_INPUTS:
            raise ConfigError(f"unknown assignment input mode {self.assign_inputs!r}")
        for name, least in (("batch_size", 1), ("folds", 2), ("seed", 0)):
            require_integer(name, getattr(self, name), least)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochStats:
    """One epoch of a run; its fields, in order, are the stats CSV columns."""

    epoch: int
    task_loss: float  # the losses are means over the epoch's training graphs
    le_0: float
    le_1: float
    lc_0: float
    lc_1: float
    train_acc: float
    val_acc: float
    clusters_0: int  # distinct argmax clusters over the training graphs, per stage
    clusters_1: int


STATS_HEADER = ",".join(f.name for f in fields(EpochStats))
_PARSERS = {"int": int, "float": float}  # by annotation; the module's annotations are strings


@dataclass
class RunStats:
    epochs: list[EpochStats] = field(default_factory=list)
    aborted: bool = False

    @property
    def max_val_acc(self) -> float:
        return max((e.val_acc for e in self.epochs), default=0.0)


def stats_to_csv(stats: RunStats) -> str:
    lines = [STATS_HEADER]
    lines.extend(",".join(map(str, astuple(e))) for e in stats.epochs)
    return "\n".join(lines) + "\n"


def stats_from_csv(text: str) -> RunStats:
    lines = [l for l in text.strip().splitlines() if l]
    if not lines or lines[0] != STATS_HEADER:
        raise ValueError("unrecognised stats CSV header")
    columns = fields(EpochStats)
    stats = RunStats()
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"malformed stats row: {line!r}")
        stats.epochs.append(EpochStats(*(_PARSERS[f.type](v) for f, v in zip(columns, parts))))
    return stats


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements of the flat arrays that one pass of Adam's formula covers. A float32 slice is
# 256 KiB, so the slices of values, gradient, m and v and the two scratch rows (1.5 MiB)
# stay in a 2 MiB L2 cache through the formula's dozen passes, while a slice's dozen numpy
# calls still cost little next to its arithmetic.
ADAM_SLICE = 1 << 16


class Adam:
    """Adam over named parameter tensors; missing gradients count as zero.

    The parameters share one arena. Each tensor's values and gradient
    buffer (``Tensor.store_in``) and its moments ``m[name]`` and
    ``v[name]`` are views of four flat arrays, laid out in the order of
    ``params``. The tensors stay the caller's: a backward pass accumulates
    into the arena, and an in-place write to the values, as
    ``model.load_checkpoint`` makes, changes what the next step updates.
    A tensor lives in one arena: a second ``Adam`` over it moves it, and
    rebinding ``values`` takes it out. The arena holds one dtype, so
    parameters of two dtypes raise ``TypeError``. A step checks the flat
    gradient once and runs the formula over slices of ``ADAM_SLICE``
    elements through two scratch rows of that length, whatever the
    largest parameter's size.
    """

    def __init__(self, params: dict[str, ad.Tensor], lr: float):
        require_real("lr", lr, POSITIVE)
        first_of = {}
        for name, p in params.items():
            first_of.setdefault(p.values.dtype, name)
        if len(first_of) > 1:
            named = " and ".join(f"{dtype} ({name}, ...)" for dtype, name in first_of.items())
            raise TypeError(f"Adam over parameters of {named}: build the model under one "
                            "ad.precision")
        dtype = next(iter(first_of), np.dtype(ad.tape_dtype()))
        self.params = params
        self.lr = lr
        self.t = 0
        ends = np.cumsum([p.values.size for p in params.values()], dtype=np.intp).tolist()
        size = ends[-1] if ends else 0
        self._values, self._grads = np.empty(size, dtype), np.empty(size, dtype)
        self._m, self._v = np.zeros(size, dtype), np.zeros(size, dtype)
        self._scratch = np.empty((2, min(size, ADAM_SLICE)), dtype)
        self.m, self.v = {}, {}
        self._buffers = []  # (name, tensor, its gradient buffer) in arena order
        for (name, p), end in zip(params.items(), ends):
            lo, shape = end - p.values.size, p.values.shape
            grad = self._grads[lo:end].reshape(shape)
            p.store_in(self._values[lo:end].reshape(shape), grad)
            self.m[name] = self._m[lo:end].reshape(shape)
            self.v[name] = self._v[lo:end].reshape(shape)
            self._buffers.append((name, p, grad))

    def step(self) -> None:
        """Update every parameter, or none when any gradient is non-finite.

        A gradient that backward accumulated is already in the arena. One
        assigned to ``grad`` directly is copied in, and a missing one is
        zeroed, so no earlier step's gradient is read. Each update is the
        textbook m_hat / (sqrt(v_hat) + eps) formula with its operations in
        the textbook order, so it matches that formula byte for byte in
        either dtype.
        """
        for _, p, buffer in self._buffers:
            if p.grad is None:
                buffer.fill(0.0)
            elif p.grad is not buffer:
                np.copyto(buffer, p.grad)
        if not np.isfinite(self._grads).all():
            name = next(name for name, _, g in self._buffers if not np.isfinite(g).all())
            raise NumericError(f"non-finite gradient for parameter {name}")
        self.t += 1
        bias1, bias2 = 1.0 - BETA1**self.t, 1.0 - BETA2**self.t
        for lo in range(0, self._grads.size, ADAM_SLICE):
            hi = lo + ADAM_SLICE
            grad, m, v = self._grads[lo:hi], self._m[lo:hi], self._v[lo:hi]
            a, b = (row[:grad.size] for row in self._scratch)
            m *= BETA1
            m += np.multiply(grad, 1.0 - BETA1, out=a)
            v *= BETA2
            v += np.multiply(np.multiply(grad, grad, out=a), 1.0 - BETA2, out=a)
            step = np.multiply(np.divide(m, bias1, out=a), self.lr, out=a)
            step /= np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), EPS, out=b)
            self._values[lo:hi] -= step

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def evaluate_accuracy(model: SimPoolModel, ds: Dataset, indices, mapped=None,
                      batch_size: int = 20) -> float:
    """Fraction of correctly classified graphs among `indices`.

    Each batch of ``batch_size`` graphs runs ``model.predict``: the network
    pass of ``forward_batch`` and no loss term, recorded on no tape.
    """
    correct = 0
    total = 0
    for chunk in batch_positions(ds, batch_size, subset=np.asarray(indices)):
        batch = Batch.of(ds, chunk)
        correct += int((model.predict(batch, mapped) == batch.labels).sum())
        total += batch.size
    return correct / total


def train_run(cfg: TrainConfig, ds: Dataset, fold: int = 0,
              progress=None) -> tuple[RunStats, SimPoolModel]:
    """Train one fold; deterministic for a fixed config and seed.

    Unless ``cfg.assign_inputs`` is ``"node"``, the structural rows are
    built once per run by ``preprocess_dataset``, under the current
    ``ad.precision``, the one the model is built in. Per epoch the stats
    record batch-averaged losses, training accuracy accumulated from the
    training passes themselves, validation accuracy from a separate pass,
    and the number of distinct argmax clusters used across all training
    graphs at each pooling layer. A non-finite loss or gradient ends the
    run before that step's update, with ``aborted`` set. Returns the stats
    stream and the trained model.
    """
    require_integer("fold", fold, 0)
    if fold >= cfg.folds:
        raise ValueError(f"fold {fold} outside [0, {cfg.folds})")
    splits = kfold_split(ds, cfg.folds, cfg.seed)
    train_idx, val_idx = splits[fold]
    mapped = None if cfg.assign_inputs == "node" else preprocess_dataset(ds, cfg.preset.sim)

    preset = cfg.preset
    model = SimPoolModel(
        preset,
        feature_dim=ds.feature_dim,
        num_classes=ds.num_classes,
        assign_inputs=cfg.assign_inputs,
        seed=cfg.seed,
    )
    optimiser = Adam(model.parameters(), preset.learning_rate)
    stats = RunStats()

    for epoch in range(preset.epochs):
        loss_sums = dict.fromkeys(LOSS_TERMS, 0.0)
        correct = 0
        used = (np.zeros(preset.clusters_1, bool), np.zeros(preset.clusters_2, bool))
        diverged = False
        # each batch is built when its step starts, so an epoch holds one union at a time
        for chunk in batch_positions(ds, cfg.batch_size, cfg.seed * 1_000_003 + epoch, train_idx):
            batch = Batch.of(ds, chunk)
            with ad.Tape() as tape:
                fwd = model.forward_batch(batch, mapped)
                total = fwd.total(preset.w_e, preset.w_c)
                if not np.isfinite(total.item()):
                    diverged = True
                    break
                optimiser.zero_grad()
                tape.backward(total)
            try:
                optimiser.step()
            except NumericError:  # a non-finite gradient; no parameter was updated
                diverged = True
                break
            for k, loss in fwd.losses.items():
                loss_sums[k] += batch.size * loss.item()
            correct += int((fwd.probs.argmax(axis=1) == batch.labels).sum())
            for seen, argmax in zip(used, fwd.assign_argmax):
                seen[argmax] = True
        if diverged:
            stats.aborted = True
            break
        n_train = len(train_idx)
        val_acc = evaluate_accuracy(model, ds, val_idx, mapped, cfg.batch_size)
        row = EpochStats(
            epoch=epoch,
            **{k: loss_sums[k] / n_train for k in LOSS_TERMS},
            train_acc=correct / n_train,
            val_acc=val_acc,
            clusters_0=int(used[0].sum()),
            clusters_1=int(used[1].sum()),
        )
        stats.epochs.append(row)
        if progress is not None:
            progress(row)
    return stats, model


@dataclass
class CrossValResult:
    fold_stats: list[RunStats]
    maxima: list[float]
    mean: float
    std: float
    partial: bool

    def to_dict(self) -> dict:
        return {
            "fold_maxima": self.maxima,
            "mean": self.mean,
            "std": self.std,
            "std_kind": "population",
            "partial": self.partial,
            "folds": len(self.fold_stats),
        }


def fold_aggregate(maxima) -> tuple[float, float]:
    """Mean and population standard deviation (ddof=0) of per-fold maxima.

    Both are taken about the first element: the deviations ``d = x - x[0]``
    are averaged and spread, and ``x[0]`` is added back to the mean. A plain
    ``np.mean`` can round the mean of identical values off by one ulp, which
    ``np.std`` then turns into a non-zero spread; with the shift, identical
    maxima give exactly that value as the mean and a std of exactly 0.
    """
    x = np.asarray(maxima, dtype=np.float64)
    if x.size == 0:
        raise ValueError("fold_aggregate needs at least one fold maximum")
    d = x - x[0]
    return float(x[0] + d.mean()), float(np.std(d))


def cross_validate(cfg: TrainConfig, ds: Dataset, progress=None) -> CrossValResult:
    """Run every fold, each one ``train_run``, and aggregate the per-fold maximum accuracies."""
    fold_stats = []
    for fold in range(cfg.folds):
        stats, _ = train_run(cfg, ds, fold=fold)
        fold_stats.append(stats)
        if progress is not None:
            progress(fold, stats)
    maxima = [s.max_val_acc for s in fold_stats]
    mean, std = fold_aggregate(maxima)
    return CrossValResult(
        fold_stats=fold_stats,
        maxima=maxima,
        mean=mean,
        std=std,
        partial=any(s.aborted for s in fold_stats),
    )
