"""Differentially private PAC learning for VC-dimension-1 concept classes.

The package splits into the class representation (:mod:`.concepts`), the
order-tree machinery (:mod:`.tree`), privacy primitives
(:mod:`.mechanisms`), the two learners (:mod:`.learners`), brute-force
oracles and auditing (:mod:`.oracles`), and the experiment harness
(:mod:`.generators`, :mod:`.experiments`, :mod:`.cli`).
"""

from .concepts import (
    Concept,
    ConceptClass,
    Dataset,
    Hypothesis,
    NotRealizableError,
    canonicalize,
    comparable,
    f_represent,
    is_canonical,
    leq,
)
from .experiments import ExperimentConfig, ReportRow, run_experiment, write_report_csv
from .generators import (
    GeneratorSpec,
    example_class,
    generate_class,
    modified_example_class,
    point_functions_class,
    random_tree_class,
    sample_dataset,
    thresholds_class,
)
from .learners import (
    ImproperTrace,
    LearnParams,
    LearnerContext,
    ProperTrace,
    SampleBudget,
    improper_learn,
    prepare_context,
    proper_learn,
    sample_budget,
    total_privacy,
    uniform_convergence_size,
)
from .mechanisms import (
    PrivacyParams,
    advanced_composition,
    alpha_median_set,
    choosing_mechanism,
    choosing_utility_bound,
    exponential_mechanism,
    laplace_sample,
    private_median,
    required_median_size,
)
from .oracles import (
    DimensionReport,
    Distribution,
    deterministic_oracle,
    dimension_report,
    dp_audit,
    error_on_distribution,
    floor_log2,
    littlestone_dimension,
    optimal_composition,
    repeated,
    thresholds_dimension,
    vc_dimension,
)
from .rng import make_rng
from .tree import (
    ClassTree,
    DeterministicSet,
    NodeStats,
    SubTree,
    deterministic_points,
    make_subtree,
    make_tree,
    node_stats,
    tree_to_dot,
    tree_to_json,
    upward_closure,
)

__version__ = "0.1.0"
