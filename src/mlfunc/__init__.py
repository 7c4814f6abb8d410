"""Two-parameter Mittag-Leffler machinery: evaluation, bounds, matrices, CLI."""

from .bounds import (
    CertificatePoint,
    CertificateReport,
    KappaIntegrals,
    LIMIT_KERNELS,
    Lemma2Constants,
    Lemma3Report,
    Lemma4Constants,
    LimitPoint,
    SectorContext,
    SectorContextError,
    certify_lemma2_i,
    certify_lemma2_ii,
    certify_lemma2_iii,
    certify_lemma4,
    kappa_integrals,
    lemma2_constants,
    lemma3_limit_check,
    lemma4_constants,
    sector_context,
)
from .contour import (
    ContourSpec,
    RegionClass,
    classify_region,
    contour_distance,
    contour_path,
    ml_contour,
    ml_contour_deriv,
    recip_gamma_via_contour,
)
from .matrixfn import (
    DecayReport,
    IntegralReport,
    JordanSpec,
    SpectralReport,
    decay_check,
    integral_check,
    ml_jordan_block,
    ml_matrix,
    spectral_condition,
)
from .numcore import (
    DomainError,
    PathSegment,
    QuadratureControls,
    QuadratureError,
    circular_arc,
    compensated_sum,
    cpow,
    integrate_path,
    line_segment,
    principal_arg,
    radial_ray,
    recip_gamma,
)
from .series import (
    EvalControls,
    EvalResult,
    EvaluationError,
    MLParams,
    SeriesConvergenceError,
    ml_eval,
    ml_series,
    ml_series_deriv,
)

__version__ = "0.1.0"
