"""Optimisation loop, cross-validation driver, and run statistics."""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError
from .data import Batch, Dataset, batch_positions, kfold_split, require_integer
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


class Adam:
    """Adam over named parameter tensors; missing gradients count as zero.

    The moments ``m`` and ``v`` take their parameter's dtype. A step runs
    in place through two scratch rows, each the size of the largest
    parameter, and makes no per-parameter temporaries.
    """

    def __init__(self, params: dict[str, ad.Tensor], lr: float):
        if not 0 < lr < math.inf:  # also false for nan
            raise ValueError(f"lr must be positive and finite, got {lr!r}")
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in params.items()}
        values = [p.values for p in params.values()]
        self._scratch = np.empty((2, max((x.size for x in values), default=0)),
                                 dtype=np.result_type(np.float32, *values))

    def step(self) -> None:
        """Update every parameter, or none when any gradient is non-finite.

        Each update is the textbook m_hat / (sqrt(v_hat) + eps) formula
        with its operations in the textbook order, so it matches that
        formula byte for byte in either dtype.
        """
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient for parameter {name}")
        self.t += 1
        bias1, bias2 = 1.0 - BETA1**self.t, 1.0 - BETA2**self.t
        for name, p in self.params.items():
            m, v = self.m[name], self.v[name]
            a, b = (row[:m.size].reshape(m.shape) for row in self._scratch)
            grad = p.grad
            if grad is None:
                grad = b
                grad.fill(0.0)
            m *= BETA1
            m += np.multiply(grad, 1.0 - BETA1, out=a)
            v *= BETA2
            v += np.multiply(np.multiply(grad, grad, out=a), 1.0 - BETA2, out=a)
            step = np.multiply(np.divide(m, bias1, out=a), self.lr, out=a)
            step /= np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), EPS, out=b)
            p.values -= step

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _mapped_features_for(cfg: TrainConfig, ds: Dataset, supplied):
    if cfg.assign_inputs == "node":
        return None
    if supplied is not None:
        return supplied
    return preprocess_dataset(ds, cfg.preset.sim)


def evaluate_accuracy(model: SimPoolModel, ds: Dataset, indices, mapped=None,
                      batch_size: int = 20) -> float:
    """Fraction of correctly classified graphs among `indices`."""
    correct = 0
    total = 0
    with ad.no_grad():
        for chunk in batch_positions(ds, batch_size, subset=np.asarray(indices)):
            batch = Batch.of(ds, chunk)
            fwd = model.forward_batch(batch, mapped)
            correct += int((fwd.probs.argmax(axis=1) == batch.labels).sum())
            total += batch.size
    return correct / total


def train_run(cfg: TrainConfig, ds: Dataset, fold: int = 0, mapped=None,
              progress=None) -> tuple[RunStats, SimPoolModel]:
    """Train one fold; deterministic for a fixed config and seed.

    Per epoch the stats record batch-averaged losses, training accuracy
    accumulated from the training passes themselves, validation accuracy
    from a separate pass, and the number of distinct argmax clusters used
    across all training graphs at each pooling layer. A non-finite loss or
    gradient ends the run before that step's update, with ``aborted`` set.
    Returns the stats stream and the trained model.
    """
    require_integer("fold", fold, 0)
    if fold >= cfg.folds:
        raise ValueError(f"fold {fold} outside [0, {cfg.folds})")
    splits = kfold_split(ds, cfg.folds, cfg.seed)
    train_idx, val_idx = splits[fold]
    mapped = _mapped_features_for(cfg, ds, mapped)

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


def cross_validate(cfg: TrainConfig, ds: Dataset, mapped=None, progress=None) -> CrossValResult:
    """Run every fold and aggregate the per-fold maximum accuracies."""
    mapped = _mapped_features_for(cfg, ds, mapped)
    fold_stats = []
    for fold in range(cfg.folds):
        stats, _ = train_run(cfg, ds, fold=fold, mapped=mapped)
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
