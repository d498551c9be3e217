"""Latin hypercube / uniform sampling, star discrepancy, witness-box lower
bounds, and exact checks of the supporting probability inequalities."""

from .discrepancy import (
    AnchoredBox,
    BudgetExceeded,
    DimensionMismatch,
    DiscrepancyCertificate,
    MethodError,
    box_volume,
    count_closed,
    count_open,
    excess,
    local_discrepancy,
    star_discrepancy,
    star_discrepancy_exact,
    star_discrepancy_exact_2d,
    star_discrepancy_lower_estimate,
)
from .harness import (
    ExperimentConfig,
    Summary,
    TrialRecord,
    emit_csv,
    emit_json,
    parse_config,
    run_trials,
    summarize,
    verify_theorem1,
    verify_theorem2,
)
from .points import (
    CoordinateOutOfRange,
    ParseError,
    PointSet,
    ShapeMismatch,
    pointset_from_text,
    pointset_to_text,
    read_pointset,
    validate_pointset,
    write_pointset,
)
from .probtools import (
    CheckReport,
    ConditionalBernoulliTree,
    DiscreteDistribution,
    binom_cdf,
    binom_distribution,
    binom_pmf,
    check_lemma4,
    check_lemma6,
    check_theorem3,
    check_theorem5_binomial,
    hoeffding_bound,
    hypergeom_cdf,
    hypergeom_distribution,
    hypergeom_pmf,
    log_choose,
    tree_sum_distribution,
    tv_distance,
)
from .rng import Stream, derive
from .sampling import latin_check, lhs_sample, random_permutation, uniform_sample
from .witness import (
    NoAdmissibleC,
    NotLatinWarning,
    PreconditionViolated,
    SlabConstant,
    TheoryConstants,
    WitnessTrace,
    build_witness,
    compute_slab_constant,
    theory_constants,
    witness_lower_bound,
)

__version__ = "0.1.0"
