"""Byzantine approximate agreement on labeled trees.

Protocol library plus a deterministic synchronous-round simulator: graded
broadcast, trimmed-mean real-valued agreement, two path-agreement
subprotocols, the end-to-end tree protocols, and the round-complexity
bound calculators, all validated by adversarial property suites.
"""

from . import bounds
from .adversaries import REGISTRY, AdversaryContext, make_adversary
from .errors import TreeAAError
from .generators import generate_tree
from .gradecast import GradedValue, gradecast_all, run_gradecast
from .harness import ExperimentConfig, RunReport, emit_report, run_experiment
from .paths import (
    PathPair,
    run_legacy_path_finder,
    run_prefix_path_finder,
    supported_prefix,
)
from .real_aa import (
    closest_int,
    plan_iterations,
    run_real_aa,
    trim_mean_update,
)
from .simnet import (
    Adversary,
    Envelope,
    GeneratorProgram,
    Transcript,
    replay_transcript,
    run_simulation,
)
from .tree_aa import (
    TreeAAConfig,
    TreeAAResult,
    final_rounds,
    old_rounds,
    run_final_tree_aa,
    run_tree_aa,
    run_tree_aa_old,
)
from .trees import (
    EulerList,
    LabeledTree,
    is_prefix,
    longest_common_prefix,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AdversaryContext",
    "Envelope",
    "EulerList",
    "ExperimentConfig",
    "GeneratorProgram",
    "GradedValue",
    "LabeledTree",
    "PathPair",
    "REGISTRY",
    "RunReport",
    "Transcript",
    "TreeAAConfig",
    "TreeAAError",
    "TreeAAResult",
    "bounds",
    "closest_int",
    "emit_report",
    "final_rounds",
    "generate_tree",
    "gradecast_all",
    "is_prefix",
    "longest_common_prefix",
    "make_adversary",
    "old_rounds",
    "parse_tree",
    "plan_iterations",
    "replay_transcript",
    "run_experiment",
    "run_final_tree_aa",
    "run_gradecast",
    "run_legacy_path_finder",
    "run_prefix_path_finder",
    "run_real_aa",
    "run_simulation",
    "run_tree_aa",
    "run_tree_aa_old",
    "supported_prefix",
    "trim_mean_update",
]
