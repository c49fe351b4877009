"""Seeded synthetic TU-format datasets with published ENZYMES and DD statistics.

The TU collection (Morris et al. 2020, arXiv:2007.08663) lists, per
dataset, the graph count, mean node and edge counts, the largest graph,
the class count and the node-label count. ``generate`` draws a dataset
that matches those figures; ``write_tu`` writes it in the TU text layout
that ``simpool.data.load_tu_dataset`` reads.

Graphs are protein-like: a backbone path plus short-range contacts, so
two-hop neighbourhoods stay local as in contact graphs. Sizes, densities
and node-label mixtures depend on the class, so the labels can be learned
and the training loss moves.

Run as a script to write one dataset and its manifest:

    python3 bench/tugen.py --kind enzymes --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TuSpec:
    """Published statistics of one TU dataset."""

    name: str
    graphs: int
    mean_nodes: float
    mean_edges: float
    max_nodes: int
    min_nodes: int
    classes: int
    node_labels: int
    # size of the largest graph other than the one pinned at max_nodes;
    # keeps a single outlier, as in the published DD distribution
    tail_cap: int


SPECS = {
    "enzymes": TuSpec("ENZYMES", 600, 32.63, 62.14, 126, 2, 6, 3, 96),
    "dd": TuSpec("DD", 1178, 284.32, 715.66, 5748, 30, 2, 89, 1800),
}

# short-range contact window: edge (i, i + d) with 2 <= d <= CONTACT_SPAN
CONTACT_SPAN = 6


@dataclass
class TuData:
    """One generated dataset, as flat arrays in TU order (0-based)."""

    spec: TuSpec
    node_counts: np.ndarray  # per graph
    graph_labels: np.ndarray  # per graph, 0-based class
    node_labels: np.ndarray  # per node, 0-based label
    edges: np.ndarray  # (E, 2) global 0-based ids, i < j, sorted, unique

    def stats(self) -> dict:
        edges_per_graph = np.bincount(self.graph_of_node()[self.edges[:, 0]],
                                      minlength=self.node_counts.size)
        return {
            "graphs": int(self.node_counts.size),
            "mean_nodes": float(self.node_counts.mean()),
            "max_nodes": int(self.node_counts.max()),
            "mean_edges": float(edges_per_graph.mean()),
            "classes": int(np.unique(self.graph_labels).size),
            "node_labels": int(np.unique(self.node_labels).size),
        }

    def graph_of_node(self) -> np.ndarray:
        return np.repeat(np.arange(self.node_counts.size), self.node_counts)


def content_digest(node_counts, graph_labels, node_labels, edges) -> str:
    """Hash of the dataset content, independent of any file layout.

    ``edges`` are undirected pairs of global 0-based ids with i < j in
    lexicographic order. The benchmark recomputes this from what the
    loader returns, so equal digests mean the program saw this seed's data.
    """
    h = hashlib.sha256()
    for arr in (node_counts, graph_labels, node_labels, edges):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def _sizes(rng, spec: TuSpec, labels: np.ndarray) -> np.ndarray:
    """Class-conditioned, right-skewed graph sizes with the published mean and max."""
    scale = np.linspace(0.75, 1.25, spec.classes)[labels]
    raw = rng.lognormal(mean=0.0, sigma=0.55, size=labels.size) * scale
    pinned = int(rng.integers(labels.size))
    others = np.ones(labels.size, dtype=bool)
    others[pinned] = False
    target = spec.mean_nodes * labels.size - spec.max_nodes
    sizes = np.zeros(labels.size)
    # rescale, clip and repeat until the clipped sizes hit the target total
    factor = target / raw[others].sum()
    for _ in range(50):
        sizes[others] = np.clip(raw[others] * factor, spec.min_nodes, spec.tail_cap)
        total = sizes[others].sum()
        if abs(total - target) < 0.5:
            break
        factor *= target / total
    sizes = np.rint(sizes).astype(np.int64)
    sizes[pinned] = spec.max_nodes
    return sizes


def generate(spec: TuSpec, seed: int) -> TuData:
    """Draw one dataset with the given statistics; the same seed gives the same data."""
    rng = np.random.default_rng([seed, spec.graphs])
    labels = rng.permutation(np.arange(spec.graphs) % spec.classes)
    sizes = _sizes(rng, spec, labels)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total_nodes = int(offsets[-1])
    graph_of_node = np.repeat(np.arange(spec.graphs), sizes)

    # backbone path: n - 1 edges per graph
    local = np.arange(total_nodes) - offsets[graph_of_node]
    starts = np.flatnonzero(local < sizes[graph_of_node] - 1)
    backbone = np.stack([starts, starts + 1], axis=1)

    # contacts: class-conditioned density around the published edge/node ratio
    density = spec.mean_edges / spec.mean_nodes
    class_density = density * np.linspace(0.85, 1.15, spec.classes)[labels]
    extra = np.maximum(np.rint(sizes * class_density - (sizes - 1)), 0).astype(np.int64)
    # oversample to make up for duplicate draws removed below
    extra = np.where(sizes >= 3, np.rint(extra * 1.12), 0).astype(np.int64)
    g = np.repeat(np.arange(spec.graphs), extra)
    n = sizes[g]
    span = rng.integers(2, CONTACT_SPAN + 1, size=g.size)
    span = np.minimum(span, n - 1)
    first = (rng.random(g.size) * (n - span)).astype(np.int64)
    contacts = np.stack([offsets[g] + first, offsets[g] + first + span], axis=1)

    edges = np.concatenate([backbone, contacts])
    edges = np.unique(edges, axis=0)

    # class-conditioned node-label mixtures, the same for every seed: each class
    # favours its own arc of the label circle. Every label appears.
    angle = 2 * np.pi * (np.arange(spec.node_labels)[None, :] / spec.node_labels
                         - np.arange(spec.classes)[:, None] / spec.classes)
    mix = np.exp(np.cos(angle))
    cum = np.cumsum(mix / mix.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    u = rng.random(total_nodes)
    node_labels = (u[:, None] > cum[labels[graph_of_node]]).sum(axis=1)
    node_labels[rng.permutation(total_nodes)[:spec.node_labels]] = np.arange(spec.node_labels)

    return TuData(spec, sizes, labels, node_labels, edges)


def _lines(*columns: np.ndarray) -> str:
    text = columns[0].astype(str)
    for col in columns[1:]:
        text = np.char.add(np.char.add(text, ", "), col.astype(str))
    return "\n".join(text.tolist()) + "\n"


def write_tu(data: TuData, root: str) -> dict:
    """Write TU text files (1-based ids, both edge directions) and a manifest."""
    os.makedirs(root, exist_ok=True)
    name = data.spec.name
    e = data.edges + 1
    both = np.concatenate([e, e[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    files = {
        "A": _lines(both[:, 0], both[:, 1]),
        "graph_indicator": _lines(data.graph_of_node() + 1),
        "graph_labels": _lines(data.graph_labels + 1),
        "node_labels": _lines(data.node_labels),
    }
    for suffix, text in files.items():
        with open(os.path.join(root, f"{name}_{suffix}.txt"), "w", encoding="ascii") as fh:
            fh.write(text)
    manifest = {
        "name": name,
        "stats": data.stats(),
        "content_digest": content_digest(data.node_counts, data.graph_labels,
                                         data.node_labels, data.edges),
    }
    with open(os.path.join(root, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    manifest = write_tu(generate(SPECS[args.kind], args.seed), args.out)
    print(json.dumps(manifest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
