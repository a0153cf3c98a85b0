"""Deterministic tree generators for experiments.

Labels are zero-padded so lexicographic order equals construction order;
the first generated vertex is therefore always the root / start vertex.
"""

from __future__ import annotations

import random

from .errors import InvalidParams
from .trees import LabeledTree

KINDS = ("path", "star", "caterpillar", "binary", "random")


def generate_tree(kind: str, size: int, seed: int = 0) -> LabeledTree:
    """Build a tree deterministically from (kind, size, seed).

    Size semantics per kind: path(k) has k edges (diameter k); star(m) has
    m leaves around a hub; caterpillar/binary/random(m) have m vertices.
    """
    if size < 1:
        raise InvalidParams(f"size must be >= 1, got {size}")
    if kind == "path":
        labels = _labels(size + 1)
        edges = list(zip(labels, labels[1:]))
    elif kind == "star":
        labels = _labels(size + 1)
        edges = [(labels[0], leaf) for leaf in labels[1:]]
    elif kind == "caterpillar":
        labels = _labels(size)
        spine = (size + 1) // 2
        edges = list(zip(labels[:spine], labels[1:spine]))
        for j, leaf in enumerate(labels[spine:]):
            edges.append((labels[j], leaf))
    elif kind == "binary":
        labels = _labels(size)
        edges = [(labels[(i - 1) // 2], labels[i]) for i in range(1, size)]
    elif kind == "random":
        rng = random.Random(f"gen:{kind}:{size}:{seed}")
        labels = _labels(size)
        edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, size)]
    else:
        raise InvalidParams(f"unknown tree kind {kind!r}; choose from {KINDS}")
    if not edges:
        return LabeledTree((), vertices=labels)
    return LabeledTree(edges)


def _labels(count: int) -> list[str]:
    width = len(str(count - 1))
    return [f"v{i:0{width}d}" for i in range(count)]
