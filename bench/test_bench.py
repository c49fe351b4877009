"""Tests of the benchmark itself: generator, metric names, a smoke run, the memory cap.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
import tugen
from simpool.data import load_tu_dataset

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

TINY = tugen.TuSpec("TINY", graphs=40, mean_nodes=12.0, mean_edges=20.0, max_nodes=40,
                    min_nodes=4, classes=2, node_labels=3, tail_cap=20)
TINY_WORKLOAD = run.Workload("tiny", TINY, "enzymes", 1 / 64, train_batches=2, eval_batches=1)


def _write_in_process(workload, seed, root):
    return tugen.write_tu(tugen.generate(workload.spec, seed), root)


@pytest.mark.parametrize("kind", sorted(tugen.SPECS))
def test_generator_matches_published_stats(kind):
    spec = tugen.SPECS[kind]
    stats = tugen.generate(spec, seed=3).stats()
    assert stats["graphs"] == spec.graphs
    assert stats["max_nodes"] == spec.max_nodes
    assert stats["classes"] == spec.classes
    assert stats["node_labels"] == spec.node_labels
    assert stats["mean_nodes"] == pytest.approx(spec.mean_nodes, rel=0.005)
    assert stats["mean_edges"] == pytest.approx(spec.mean_edges, rel=0.03)


def test_generator_is_seeded():
    def digest(seed):
        d = tugen.generate(TINY, seed)
        return tugen.content_digest(d.node_counts, d.graph_labels, d.node_labels, d.edges)

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_written_files_load_back(tmp_path):
    manifest = tugen.write_tu(tugen.generate(TINY, 0), str(tmp_path))
    ds = load_tu_dataset(tmp_path, "TINY")
    assert len(ds) == TINY.graphs
    assert run.loaded_digest(ds) == manifest["content_digest"]


def test_benchmark_json_names_units_and_bounds():
    entries = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        assert NAME.match(e["name"]), e["name"]
        assert UNIT.match(e["unit"]), e["unit"]
        assert e["better"] in ("higher", "lower")
    assert {e["name"]: e["unit"] for e in BENCH["end_to_end"]} == run.END_TO_END
    bounds = {e["name"]: e["bound"] for e in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric(tmp_path, monkeypatch, trace):
    monkeypatch.setattr(run, "generate", _write_in_process)
    report, result = run.run_workload(TINY_WORKLOAD, seed=0, seconds=0.2, trace=trace,
                                      data_root=str(tmp_path))
    assert result["correct"], report["check_failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in expected}
    assert all(m["value"] > 0 for m in result["metrics"].values())


CAPPED_RUN = """
import json, sys
sys.path[:0] = [{bench!r}]
import run, tugen
big = tugen.TuSpec("BIG", graphs=40, mean_nodes=150.0, mean_edges=280.0, max_nodes=4200,
                   min_nodes=4, classes=2, node_labels=3, tail_cap=60)
run.generate = lambda w, seed, root: tugen.write_tu(tugen.generate(w.spec, seed), root)
workload = run.Workload("capped", big, "enzymes", 1 / 64, train_batches=2, eval_batches=1,
                        skip_largest={skip}, cap_gib=2.5)
report, result = run.run_workload(workload, seed=0, seconds=0.1, trace=False, data_root={root!r})
print(json.dumps(report))
print(json.dumps(result))
"""


def _capped_run(tmp_path, skip):
    script = CAPPED_RUN.format(bench=HERE, root=str(tmp_path), skip=skip)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"], report["check_failures"]
    return report, result


def test_capped_memory_error_counts_as_failed_operation(tmp_path):
    # at seed 0 the 4,200-node graph trains in fold 0: 20 x 4200^2 float64
    # padding is 2.6 GiB, over the 2.5 GiB cap with the interpreter's own
    # address space; every other allocation fits under it
    report, result = _capped_run(tmp_path, skip=False)
    assert result["failed"] == report["train_laps"]
    assert all(op["phase"] == "train" for op in report["failed_ops"])
    assert result["attempted"] > result["failed"]
    assert result["metrics"]["completed_frac"]["value"] < 1.0


def test_skip_largest_leaves_the_oversized_graph_out(tmp_path):
    report, result = _capped_run(tmp_path, skip=True)
    assert report["left_out_of_laps"] == [{"index": report["left_out_of_laps"][0]["index"],
                                           "nodes": 4200}]
    assert result["failed"] == 0
    assert result["metrics"]["completed_frac"]["value"] == 1.0
