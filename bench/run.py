"""simpool benchmark: seeded TU-shaped workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload enzymes-small --seed 0 --seconds 10 --trace 0

Each run is one process and one closed loop: the next training step (or
eval batch) starts when the previous one has finished. The process

1. writes the seed's synthetic TU dataset with ``bench/tugen.py`` in a
   child process, so generation stays out of the timings and the peak RSS;
2. sets up: ``load_tu_dataset``, ``preprocess_dataset`` and the model build;
3. alternates training steps and eval batches (``evaluate_accuracy``),
   eval taking 30% of the time, until ``--seconds`` of busy time have
   passed and both have finished their current lap of batches;
4. with ``--trace 0``, sets up again to ``setup_repeats`` set-ups in all
   (``setup_s`` is their median);
5. checks the outputs and prints one JSON line with the environment and
   dataset record, then the result line with the end-to-end metrics
   (``--trace 0``) or the per-layer metrics (``--trace 1``).

An operation is one training step or one eval batch. Each batch comes from
its own ``make_batches`` call, so a ``MemoryError`` costs one operation;
it is counted as failed and the run goes on. See ``bench/README.md`` for
the metrics and workloads.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy loads, so this precedes every import
# of numpy: at most two threads, or fewer on a smaller machine.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

try:
    from simpool import autodiff as ad  # noqa: E402
    from simpool import data, model, similarity, training  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import simpool from {SRC}: {exc}")

import spans  # noqa: E402
from tugen import SPECS, TuSpec, content_digest  # noqa: E402

BATCH_SIZE = 20
FOLDS = 10
SPLIT_SEED = 0
TRAIN_SHARE = 0.7
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Workload:
    name: str
    spec: TuSpec
    preset: str
    scale: float
    # batches per training lap, from the fold's stratified training order
    train_batches: int
    # eval batches per lap, from the stratified graphs outside the training lap
    eval_batches: int
    # the dataset's largest graph stays out of both laps: a padded batch
    # holding it does not fit under the cap (set-up still loads and maps it)
    skip_largest: bool = False
    # address-space cap (RLIMIT_AS) in GiB, or None
    cap_gib: float | None = None
    # set-ups per untraced run; ``setup_s`` is their median
    setup_repeats: int = 3


WORKLOADS = {w.name: w for w in (
    Workload("enzymes-small", SPECS["enzymes"], "enzymes", 1 / 32, 9, 3, setup_repeats=9),
    Workload("enzymes-paper", SPECS["enzymes"], "enzymes", 1.0, 6, 2, setup_repeats=9),
    Workload("dd-small", SPECS["dd"], "dd", 1 / 32, 8, 4, skip_largest=True, cap_gib=4.0,
             setup_repeats=1),
)}

END_TO_END = {
    "setup_s": "s",
    "train_nodes_per_s": "nodes/s",
    "step_s_p50": "s",
    "eval_nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
    "train_loss": "nats",
    "cv_projected_h": "h",
}


# ---------------------------------------------------------------------------
# set-up and the fixed plan of operations
# ---------------------------------------------------------------------------

def generate(workload: Workload, seed: int, root: str) -> dict:
    """Write the seed's dataset from a child process; return its manifest."""
    kind = next(k for k, s in SPECS.items() if s == workload.spec)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "tugen.py"), "--kind", kind,
         "--seed", str(seed), "--out", root],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build_model(workload: Workload, ds: data.Dataset) -> model.SimPoolModel:
    preset = model.resolve_preset(workload.preset, workload.scale)
    return model.SimPoolModel(preset, ds.feature_dim, ds.num_classes, seed=0)


def setup(workload: Workload, root: str):
    """Load, preprocess and build the model; return (seconds, dataset, mapped, model)."""
    start = time.perf_counter()
    ds = data.load_tu_dataset(root, workload.spec.name)
    mapped = similarity.preprocess_dataset(ds, model.resolve_preset(workload.preset).sim)
    net = build_model(workload, ds)
    return time.perf_counter() - start, ds, mapped, net


@dataclass
class Plan:
    train_lap: list  # index chunks, one per training step
    eval_lap: list  # index chunks, one per eval batch, disjoint from the training lap
    left_out: list  # graphs in neither lap
    fold_train_nodes: int
    fold_val_nodes: int


def make_plan(workload: Workload, ds: data.Dataset) -> Plan:
    sizes = np.array([g.node_count for g in ds.graphs])
    left_out = np.array([sizes.argmax()] if workload.skip_largest else [], dtype=np.int64)
    train_idx, val_idx = data.kfold_split(ds, FOLDS, SPLIT_SEED)[0]
    labels = ds.labels()
    chunks = _batches(_stratified(np.setdiff1d(train_idx, left_out), labels, sizes))
    lap = chunks[:workload.train_batches]
    # eval draws from every graph the lap does not train on, so its size mix,
    # like the lap's, is a stratified sample of the whole dataset
    held_out = np.setdiff1d(np.arange(len(ds)), np.concatenate(lap + [left_out]))
    evals = _batches(_stratified(held_out, labels, sizes))
    return Plan(lap, evals[:workload.eval_batches], left_out.tolist(),
                int(sizes[train_idx].sum()), int(sizes[val_idx].sum()))


def _stratified(idx: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Order ``idx`` so that every prefix samples each class and its sizes evenly.

    Within each class, graphs sorted by size are taken in a low-discrepancy
    sequence, so any prefix covers the class's size range; classes are then
    interleaved in dataset proportion. A lap of a few batches is then a
    representative sample: its loss and cost do not swing with the seed's
    draw of which graphs come first.
    """
    lab = labels[idx]
    rank = np.empty(idx.size)
    for cls in np.unique(lab):
        members = np.flatnonzero(lab == cls)
        by_size = members[np.argsort(sizes[idx[members]], kind="stable")]
        spread = np.argsort((np.arange(by_size.size) * GOLDEN) % 1.0, kind="stable")
        rank[by_size[spread]] = (np.arange(by_size.size) + 0.5) / by_size.size
    return idx[np.argsort(rank, kind="stable")]


def _batches(order: np.ndarray) -> list:
    return [order[i:i + BATCH_SIZE] for i in range(0, order.size, BATCH_SIZE)]


def loaded_digest(ds: data.Dataset) -> str:
    """``tugen.content_digest`` recomputed from what the loader returned."""
    edges, node_labels, offset = [], [], 0
    for g in ds.graphs:
        upper = sp.triu(g.adjacency, k=1).tocoo()
        edges.append(np.stack([upper.row + offset, upper.col + offset], axis=1))
        node_labels.append(g.node_features.argmax(axis=1))
        offset += g.node_count
    e = np.concatenate(edges).astype(np.int64)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    return content_digest([g.node_count for g in ds.graphs], ds.labels(),
                          np.concatenate(node_labels), e)


# ---------------------------------------------------------------------------
# operations and the closed loop
# ---------------------------------------------------------------------------

class Checks:
    """Output checks; each failure is kept by name."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def train_step(net, optimiser, ds, mapped, chunk, checks: Checks, span) -> float:
    """One training step on one batch; returns the weighted total loss."""
    batch = data.make_batches(ds, BATCH_SIZE, subset=chunk)[0]
    preset = net.preset
    with ad.Tape() as tape:
        with span("training.forward"):
            fwd = net.forward_batch(batch, mapped)
            total = fwd.total(preset.w_e, preset.w_c)
        optimiser.zero_grad()
        tape.backward(total)
    optimiser.step()
    loss = total.item()
    checks.require(bool(np.isfinite(loss)), "training loss is finite")
    checks.require(bool(np.allclose(fwd.probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
                        and (fwd.probs >= 0).all()), "probability rows sum to 1")
    return loss


def eval_batch(net, ds, mapped, chunk, checks: Checks) -> float:
    acc = training.evaluate_accuracy(net, ds, chunk, mapped, BATCH_SIZE)
    checks.require(0.0 <= acc <= 1.0, "accuracy lies in [0, 1]")
    return acc


@dataclass
class OpRecord:
    lap: int
    seconds: float
    nodes: int  # nodes of the batch when it completed, 0 when it failed
    value: float | None  # loss or accuracy; None when it failed


class ClosedLoop:
    """Walks a fixed lap of chunks, one operation at a time."""

    def __init__(self, chunks, op, sizes: np.ndarray):
        self.chunks = chunks
        self.op = op
        self.sizes = sizes
        self.records: list[OpRecord] = []
        self.busy_s = 0.0

    @property
    def mid_lap(self) -> bool:
        return len(self.records) % len(self.chunks) != 0

    def step(self) -> None:
        i = len(self.records)
        chunk = self.chunks[i % len(self.chunks)]
        t0 = time.perf_counter()
        try:
            value = self.op(chunk)
        except MemoryError:
            value, nodes = None, 0
        else:
            nodes = int(self.sizes[chunk].sum())
        seconds = time.perf_counter() - t0
        self.busy_s += seconds
        self.records.append(OpRecord(i // len(self.chunks), seconds, nodes, value))


def interleave(trainer: ClosedLoop, evaluator: ClosedLoop, budget_s: float) -> None:
    """Alternate training steps and eval batches until both laps end past the budget.

    Eval gets ``1 - TRAIN_SHARE`` of the busy time. Interleaving spreads both
    metrics over the whole run, and machine speed drifts within a run. Both
    loops stop only at lap boundaries, so every chunk is attempted equally
    often and a chunk that always fails costs a fixed share of its loop.
    """
    while True:
        busy = trainer.busy_s + evaluator.busy_s
        past = busy >= budget_s and trainer.records and evaluator.records
        pending = [loop for loop in (trainer, evaluator) if loop.mid_lap or not past]
        if not pending:
            return
        behind = evaluator if evaluator.busy_s < (1 - TRAIN_SHARE) * busy else trainer
        (behind if behind in pending else pending[0]).step()


def first_lap_loss(records: list[OpRecord]) -> float:
    losses = [r.value for r in records if r.lap == 0 and r.value is not None]
    return float(np.mean(losses)) if losses else float("nan")


def completed(records):
    return [r for r in records if r.value is not None]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: Workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "address_space_cap_gib": workload.cap_gib,
    }


def _cap_address_space(gib: float) -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(gib * 2**30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, data_root: str):
    """Run one workload; return (report, result) as printed by ``main``."""
    manifest = generate(workload, seed, data_root)
    if workload.cap_gib is not None:
        _cap_address_space(workload.cap_gib)
    checks = Checks()

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setup_s, ds, mapped, net = setup(workload, data_root)
    finally:
        if tracer:
            tracer.uninstall()
    setups = [(setup_s, ds.metadata["content_hash"])]
    checks.require(loaded_digest(ds) == manifest["content_digest"],
                   "loaded dataset matches the seed's content digest")
    checks.require(all(np.array_equal(g.node_features.sum(axis=1), np.ones(g.node_count))
                       for g in ds.graphs), "node features are one-hot")
    plan = make_plan(workload, ds)
    sizes = np.array([g.node_count for g in ds.graphs])

    def trainer_for(net, span):
        optimiser = training.Adam(net.parameters(), net.preset.learning_rate)
        return ClosedLoop(plan.train_lap, lambda chunk: train_step(
            net, optimiser, ds, mapped, chunk, checks, span), sizes)

    def labelled(name, loop):
        """Label the tracer's spans with the phase of the operation running."""
        if tracer:
            op = loop.op

            def run_op(chunk):
                tracer.phase = name
                return op(chunk)

            loop.op = run_op
        return loop

    untraced = lambda name: nullcontext()  # noqa: E731
    reference = None
    trainer = labelled("train", trainer_for(net, tracer.span if tracer else untraced))
    if tracer:
        # An untraced reference model from the same initial weights takes each
        # step of the first lap right next to the traced one, on the same
        # chunk, going first on every other step, so the two share warm-up
        # and machine drift and their step times can be paired.
        reference = trainer_for(build_model(workload, ds), untraced)
        traced_step = trainer.step

        def untraced_step():
            tracer.uninstall()
            try:
                reference.step()
            finally:
                tracer.install()

        def lockstep():
            if len(reference.records) == len(plan.train_lap):
                traced_step()
                return
            pair = (traced_step, untraced_step)
            for step in pair if len(reference.records) % 2 else pair[::-1]:
                step()

        trainer.step = lockstep
    evaluator = labelled("eval", ClosedLoop(plan.eval_lap, lambda chunk: eval_batch(
        net, ds, mapped, chunk, checks), sizes))
    if tracer:
        tracer.install()
    try:
        interleave(trainer, evaluator, seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # further set-ups only time set-up: they come last, so their allocator
    # debris stays out of peak_rss_mb
    del ds, mapped
    for _ in range(0 if trace else workload.setup_repeats - 1):
        seconds_r, ds_r, _, _ = setup(workload, data_root)
        setups.append((seconds_r, ds_r.metadata["content_hash"]))
        del ds_r
    checks.require(len({h for _, h in setups}) == 1, "repeated loads give the same dataset hash")

    train, evals = trainer.records, evaluator.records
    train_loss = first_lap_loss(train)
    if reference is not None:
        ref_loss = first_lap_loss(reference.records)
        checks.require(abs(train_loss - ref_loss) <= 1e-12 * abs(ref_loss),
                       "traced and untraced runs give the same train_loss")

    ops = train + evals
    failed = sum(r.value is None for r in ops)
    done_train, done_eval = completed(train), completed(evals)
    train_s = sum(r.seconds for r in train)
    eval_s = sum(r.seconds for r in evals)
    step_s = [r.seconds for r in done_train]
    train_nps = sum(r.nodes for r in done_train) / train_s
    eval_nps = sum(r.nodes for r in done_eval) / eval_s
    setup_s = statistics.median(s for s, _ in setups)
    epochs = model.resolve_preset(workload.preset).epochs
    epoch_s = plan.fold_train_nodes / train_nps + plan.fold_val_nodes / eval_nps

    if tracer:
        # first lap: traced and untraced steps pair up by index
        ratios = [t.seconds / u.seconds for t, u in zip(train, reference.records)
                  if t.value is not None and u.value is not None]
        metrics = spans.per_layer_metrics(
            tracer, train_steps=len(train), eval_batches=len(evals),
            overhead=statistics.median(ratios),
        )
    else:
        values = {
            "setup_s": setup_s,
            "train_nodes_per_s": train_nps,
            "step_s_p50": statistics.median(step_s) if step_s else float("nan"),
            "eval_nodes_per_s": eval_nps,
            "peak_rss_mb": peak_rss_mb,
            # per kind, so the share does not drift with how many laps of each fitted
            "completed_frac": (len(done_train) / len(train) + len(done_eval) / len(evals)) / 2,
            "train_loss": train_loss,
            "cv_projected_h": (setup_s + FOLDS * epochs * epoch_s) / 3600,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    checks.require(all(np.isfinite(m["value"]) for m in metrics.values()), "every metric is finite")

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(workload),
        "dataset": {**manifest["stats"], "dataset_hash": setups[0][1],
                    "content_digest": manifest["content_digest"]},
        "left_out_of_laps": [{"index": i, "nodes": int(sizes[i])} for i in plan.left_out],
        "train_steps": len(train),
        "train_laps": train[-1].lap + 1,
        "train_batches_per_lap": len(plan.train_lap),
        "completed_train_steps": len(done_train),
        "eval_batches": len(evals),
        "failed_ops": [{"phase": phase, "lap": r.lap, "index": i}
                       for phase, recs in (("train", train), ("eval", evals))
                       for i, r in enumerate(recs) if r.value is None],
        "train_op_s": [round(r.seconds, 5) for r in train],
        "eval_op_s": [round(r.seconds, 5) for r in evals],
        "setup_s_all": [s for s, _ in setups],
        "step_s_count": len(step_s),
        "check_failures": checks.failures,
    }
    result = {
        "correct": checks.ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simpool benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the report and result to this JSON file")
    args = parser.parse_args(argv)

    data_dir = os.path.join(ROOT, ".bench_data")
    os.makedirs(data_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=data_dir, prefix=f"{args.workload}-{args.seed}-") as tmp:
        report, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                      bool(args.trace), tmp)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"report": report, "result": result}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
