"""vdmfit: fit vulnerability discovery models to cumulative vulnerability
counts, test goodness-of-fit, and track fit stability and quality over a
release's lifetime."""

__version__ = "0.1.0"

from .datasets import (  # noqa: F401
    Corpus,
    DatasetKind,
    ObservationSeries,
    RecordKind,
    Release,
    SecurityRecord,
    build_series,
    import_corpus,
    link_bugs_to_nvd,
    select_dataset,
)
from .fitter import FitOutcome, fit, initial_guesses  # noqa: F401
from .gof import FitClass, FitResult, chi_square_statistic, classify, test_fit  # noqa: F401
from .metrics import (  # noqa: F401
    MetricSeries,
    TransitionKind,
    aggregate_entropy,
    aggregate_quality,
    classify_transition,
    entropy_at,
    quality_at,
    rolling_gof,
)
from .models import MODEL_IDS, MODELS, ModelSpec, ParamVector, evaluate, gradient  # noqa: F401
from .simulate import NoiseKind, NoiseSpec, exact_series, generate  # noqa: F401
from .stats import bonferroni, kruskal_wallis, mann_whitney_u  # noqa: F401
