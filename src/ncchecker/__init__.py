"""NCChecker: predict the root cause of a failed test run from its log.

The pipeline mines log templates online, builds a heuristically weighted
event-by-cause lookup table from historical passed and failed logs, and
classifies new failed logs by summing the table rows of their events.
"""

from .abstraction import (
    DEFAULT_MASK_RULES,
    UNKNOWN_EVENT_ID,
    WILDCARD,
    AbstractionConfig,
    EventSequence,
    LogTemplate,
    TemplateMiner,
    event_sort_key,
    preprocess,
    seq_similarity,
)
from .baselines import (
    RandomGuessResult,
    RetrievalIndex,
    cam_predict,
    cam_train,
    lff_predict,
    lff_train,
    rg_predict_from_counts,
    rg_trials,
)
from .corpus import (
    DEFAULT_TAXONOMY,
    CauseTaxonomy,
    Corpus,
    LabeledFailedLog,
    PassedLog,
    load_corpus,
    read_log_lines,
    split,
)
from .errors import ValidationError
from .evaluation import (
    ABLATION_VARIANTS,
    ClassMetrics,
    ConfusionMatrix,
    MacroReport,
    ablation_identities,
    build_variant,
    confusion,
    evaluate,
    macro,
    per_class_metrics,
    predict_corpus,
    render_comparison,
    render_report,
    report_records,
    run_ablation,
)
from .generator import (
    BENIGN_TEMPLATES,
    Manifest,
    SyntheticSpec,
    corpus_digest,
    default_markers,
    default_spec,
    generate_synthetic,
    parse_manifest,
)
from .model import load_model, save_model
from .predictor import (
    Contributor,
    FlaggedLine,
    Prediction,
    flag_lines,
    predict,
    predict_lines,
)
from .table import (
    CountTable,
    ScoreTable,
    apply_icf,
    build,
    collect_pools,
    compute_icf,
    diff_with_pass,
    init_counts,
    majority_from_counts,
    reweight,
    scores_from_counts,
)

__version__ = "0.1.0"
