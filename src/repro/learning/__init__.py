"""Learning engine: examples, consistency, path selection, the two-step learner."""

from repro.learning.examples import ExampleSet, LabeledExample
from repro.learning.consistency import ConsistencyReport, check_consistency, is_consistent
from repro.learning.path_selection import (
    candidate_prefix_tree,
    consistent_words_for,
    covered_words,
    select_path,
    validate_word,
)
from repro.learning.informativeness import (
    NodeStatus,
    SessionClassifier,
    classify_all,
    classify_all_scratch,
    classify_node,
    informative_nodes,
    most_informative_node,
    pruned_nodes,
    pruning_fraction,
)
from repro.learning.language_index import (
    CompatibilityOracle,
    LanguageIndex,
    PrefixIdArena,
)
from repro.learning.propagation import PropagationResult, propagate_to_fixpoint
from repro.learning.learner import (
    DEFAULT_MAX_PATH_LENGTH,
    LearningOutcome,
    PathQueryLearner,
    learn_query,
)
from repro.learning.angluin import (
    ExactTeacher,
    LStarResult,
    SampleTeacher,
    learn_with_membership_queries,
    lstar,
)

__all__ = [
    "ExampleSet",
    "LabeledExample",
    "ConsistencyReport",
    "check_consistency",
    "is_consistent",
    "candidate_prefix_tree",
    "consistent_words_for",
    "covered_words",
    "select_path",
    "validate_word",
    "NodeStatus",
    "SessionClassifier",
    "classify_all",
    "classify_all_scratch",
    "classify_node",
    "informative_nodes",
    "most_informative_node",
    "pruned_nodes",
    "pruning_fraction",
    "CompatibilityOracle",
    "LanguageIndex",
    "PrefixIdArena",
    "PropagationResult",
    "propagate_to_fixpoint",
    "DEFAULT_MAX_PATH_LENGTH",
    "LearningOutcome",
    "PathQueryLearner",
    "learn_query",
    "ExactTeacher",
    "LStarResult",
    "SampleTeacher",
    "learn_with_membership_queries",
    "lstar",
]
