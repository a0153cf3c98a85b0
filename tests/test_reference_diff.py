"""Differential test of ``harness.run_one`` against the frozen reference.

``perfbench/reference/treeaa_ref`` is a copy of the package frozen when the
benchmark was defined; it is imported here read-only.  Transcript bytes for
a fixed (config, seed) are part of the protocol, so on every drawn tree,
(n, t), mode, adversary and seed both sides must send byte-identical
transcripts and report the same outputs, rounds and verdicts.  The one
intended divergence, the trim-mean clamp, is removed by running the
reference with the current ``trim_mean_update``, through an adapter that
drops the ``n`` the reference passes and the current function does not
take; the equality itself is never loosened.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench" / "reference"))

import treeaa_ref.generators as ref_generators
import treeaa_ref.harness as ref_harness
import treeaa_ref.real_aa as ref_real_aa

from treeaa import harness, real_aa
from treeaa.adversaries import REGISTRY
from treeaa.generators import KINDS, generate_tree
from treeaa.tree_aa import MACHINES


def transcript_digest(transcript) -> str:
    digest = hashlib.sha256()
    for env in transcript.envelopes:
        digest.update(f"{env.round},{env.sender},{env.receiver},{len(env.payload)};".encode())
        digest.update(env.payload)
    return digest.hexdigest()


def run_capturing(mp, module, cell):
    """``module.run_one(*cell)`` and the digest of the transcript it ran."""
    seen = []
    for name in ("run_final_tree_aa", "run_tree_aa_old"):
        def capture(*args, _run=getattr(module, name), **kwargs):
            outputs, transcript, results = _run(*args, **kwargs)
            seen.append(transcript_digest(transcript))
            return outputs, transcript, results
        mp.setattr(module, name, capture)
    report = module.run_one(*cell)
    assert len(seen) == 1
    return report.to_dict(), seen[0]


@st.composite
def configs(draw):
    t = draw(st.integers(0, 3))
    return (
        draw(st.sampled_from(KINDS)), draw(st.integers(2, 80)), draw(st.integers(0, 9)),
        draw(st.integers(3 * t + 1, 10)), t,
        draw(st.sampled_from(sorted(MACHINES))), draw(st.sampled_from(sorted(REGISTRY))),
        draw(st.sampled_from(["random", "endpoints"])), draw(st.integers(0, 10**6)),
    )


@settings(max_examples=300, deadline=None)
@given(configs())
def test_run_one_matches_frozen_reference(config):
    kind, size, tree_seed, n, t, mode, adversary, spec, seed = config
    tree = generate_tree(kind, size, tree_seed)
    ref_tree = ref_generators.generate_tree(kind, size, tree_seed)
    assert ref_tree.vertices == tree.vertices
    inputs = harness.assign_inputs(tree, n, spec, random.Random(f"inputs:{seed}"))
    label = f"{kind}({size})"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ref_real_aa, "trim_mean_update",
                   lambda received, blacklist, n, t: real_aa.trim_mean_update(received, blacklist, t))
        ref = run_capturing(mp, ref_harness, (ref_tree, label, n, t, mode, adversary, inputs, seed))
        new = run_capturing(mp, harness, (tree, label, n, t, mode, adversary, inputs, seed))
    assert new == ref
