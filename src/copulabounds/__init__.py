"""Envelopes of bivariate copulas with a fixed Spearman footrule or Gini
gamma, the concordance machinery behind them, their exact attainable
regions against Blomqvist beta, and effectiveness scores."""

from .core import (
    AxiomReport,
    BadRectangleError,
    BivariateFunction,
    CheckerboardCopula,
    ExtremalCopula,
    ExtremalSpec,
    FrechetLower,
    FrechetUpper,
    GridFunction,
    HALF_SHIFT_SHUFFLE,
    IDENTITY_SHUFFLE,
    Independence,
    InvalidSpecError,
    M,
    NotMonotoneError,
    OutOfRangeError,
    PI,
    REVERSAL_SHUFFLE,
    ShuffleOfMin,
    ShuffleSpec,
    TransformedFunction,
    UnitPoint,
    W,
    check_quasicopula,
    h_volume,
    max_asymmetry,
    sample_conditional,
    sample_shuffle,
    transform,
)
from .concordance import (
    DEFAULT_QUADRATURE,
    FOOTRULE_RANGE,
    GINI_RANGE,
    NotACopulaGridError,
    QuadratureConfig,
    blomqvist_beta,
    f_lower,
    f_upper,
    g_lower,
    g_upper,
    gini_gamma,
    q_concordance,
    spearman_footrule,
    q_m_extremal_lower,
    q_m_extremal_upper,
    q_w_extremal_lower,
    simpson_weights,
)
from .footrule import (
    DELTA_LABELS,
    FootruleLowerBound,
    FootruleUpperBound,
    delta_region,
    footrule_lower_bound,
    footrule_of_lower_bound,
    footrule_of_upper_bound,
    footrule_upper_bound,
    hyperbola_halfwidth,
)
from .gini import (
    GiniLowerBound,
    GiniUpperBound,
    OMEGA_LABELS,
    gini_lower_bound,
    gini_of_bound,
    gini_upper_bound,
    omega_region,
)
from .regions import (
    KindMismatchError,
    MeasurePair,
    beta_range_given_footrule,
    beta_range_given_gini,
    footrule_range_given_beta,
    gini_range_given_beta,
    pair_in_region,
)
from .effectiveness import (
    EffectivenessRow,
    FOOTRULE_TABLE_KS,
    GINI_TABLE_KS,
    effectiveness_score,
    table_rows,
)

__version__ = "0.1.0"
