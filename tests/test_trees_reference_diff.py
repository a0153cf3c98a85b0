"""Differential test of ``LabeledTree`` against the frozen reference.

``perfbench/reference/treeaa_ref`` is a copy of the package frozen when the
benchmark was defined; it is imported here read-only.  Every party derives
the diameter and the Euler lists from the public tree, so on any edge list
both sides must agree: a malformed list raises the same exception class
(not the same message: the reference counts unreachable vertices from its
first vertex, the current tree from its root), and a tree gives equal
``diameter``, ``diameter_endpoints`` and ``euler_list(r)`` for every vertex r.
"""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench" / "reference"))

import treeaa_ref.errors as ref_errors
import treeaa_ref.trees as ref_trees

from treeaa import errors, trees

# At most 8 labels, whose text order differs from their order here.
POOL = ("b", "a", "ab", "B", "10", "9", "é", "c")


@st.composite
def edge_lists(draw):
    """A tree over distinct labels from POOL, each edge in a drawn orientation,
    then perturbed: dropped edges leave disconnected parts, and extra pairs add
    duplicates in either orientation, self-loops and cycles.  Extra isolated
    vertices may also be named."""
    labels = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=8, unique=True))
    edges = []
    for i in range(1, len(labels)):
        a, b = labels[draw(st.integers(0, i - 1))], labels[i]
        edges.append((a, b) if draw(st.booleans()) else (b, a))
    if draw(st.booleans()):  # perturb half of the draws
        kept = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
        extra = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
        if kept:
            extra |= st.sampled_from(kept) | st.sampled_from(kept).map(lambda e: e[::-1])
        edges = kept + draw(st.lists(extra, max_size=3))
    vertices = draw(st.lists(st.sampled_from(POOL), max_size=2))
    return draw(st.permutations(edges)), vertices


def build(module, error_base, edges, vertices):
    """``(tree, None)``, or ``(None, exception class name)``."""
    try:
        return module.LabeledTree(edges, vertices), None
    except error_base as exc:
        return None, type(exc).__name__


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_tree_answers_match_frozen_reference(case):
    edges, vertices = case
    new, new_error = build(trees, errors.ParseError, edges, vertices)
    ref, ref_error = build(ref_trees, ref_errors.ParseError, edges, vertices)
    assert new_error == ref_error
    if new is None:
        return
    assert new.diameter == ref.diameter
    assert new.diameter_endpoints == ref.diameter_endpoints
    for r in sorted(new.vertices):
        got, want = new.euler_list(r), ref.euler_list(r)
        assert got.entries == want.entries
        assert got.index_of == want.index_of
