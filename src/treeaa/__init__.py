"""Byzantine approximate agreement on labeled trees.

Protocol library plus a deterministic synchronous-round simulator: graded
broadcast, trimmed-mean real-valued agreement, two path-agreement
subprotocols, the end-to-end tree protocols, and the round-complexity
bound calculators, all validated by adversarial property suites.
"""

from . import bounds
from .bounds import check_resilience, plan_iterations
from .adversaries import REGISTRY, AdversaryContext, make_adversary
from .errors import TreeAAError
from .generators import generate_tree
from .gradecast import GradedValue, gradecast_all
from .harness import ExperimentConfig, RunReport, emit_report, run_experiment
from .paths import PathPair, supported_prefix
from .real_aa import closest_int, trim_mean_update
from .simnet import (
    Adversary,
    Envelope,
    Transcript,
    replay_transcript,
    run_simulation,
)
from .tree_aa import (
    MACHINES,
    TreeAAResult,
    planned_rounds,
    run_final_tree_aa,
    run_tree_aa,
    run_tree_aa_old,
)
from .trees import (
    EulerList,
    LabeledTree,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AdversaryContext",
    "Envelope",
    "EulerList",
    "ExperimentConfig",
    "GradedValue",
    "LabeledTree",
    "MACHINES",
    "PathPair",
    "REGISTRY",
    "RunReport",
    "Transcript",
    "TreeAAError",
    "TreeAAResult",
    "bounds",
    "check_resilience",
    "closest_int",
    "emit_report",
    "generate_tree",
    "gradecast_all",
    "make_adversary",
    "parse_tree",
    "plan_iterations",
    "planned_rounds",
    "replay_transcript",
    "run_experiment",
    "run_final_tree_aa",
    "run_simulation",
    "run_tree_aa",
    "run_tree_aa_old",
    "supported_prefix",
    "trim_mean_update",
]
