"""cmslab: a desk-scale laboratory for contractive Markov systems.

Builds validated systems from JSON configs, pushes the base points forward
to the invariant measure (Barnsley's deterministic algorithm), evaluates
the coding map with certified truncation errors, tabulates cylinder masses
and their densities, computes divergence series with explicit upper bounds
and a multiplicative lower-bound factor, and cross-checks the lower bound
against branch-and-bound upper bounds on the shifted-cover outer measure.
"""

from .bounds import (
    BoundReport,
    corollary_lower_bound,
    evaluate_bounds,
    kl_n,
    kstar_estimate,
)
from .coding import (
    CodingResult,
    backward_orbit,
    coding_point,
    parse_word,
)
from .cover import (
    ConsistencyResult,
    CoverCandidate,
    certificate_dict,
    consistency_check,
    phi_upper,
    verify_certificate_data,
    verify_cover,
)
from .cylinders import (
    EXACT,
    CylinderRows,
    CylinderSet,
    CylinderTable,
    build_table,
    count_words,
    cylinder_set,
    enumerate_words,
    full_cylinder_set,
    m_of_cylinder_set,
    phi0_cyl,
    stationary_vertex_distribution,
    walk_cylinders,
)
from .errors import (
    AbsoluteContinuityViolation,
    CertificateInvalid,
    CMSError,
    ConfigError,
    ConsistencyRedFlag,
    DepthOverflow,
    DiniDivergence,
    EmptySupport,
    ExactModeUnavailable,
    InadmissibleWord,
    NonPositiveProbability,
    NormalizationError,
    NotUniformlyContractive,
    RegionEscape,
    ValidationError,
)
from .model import (
    AffineMap,
    ConstantSet,
    DirectedEdge,
    MarkovSystem,
    ProbabilityFunction,
    VertexSpace,
    collect_violations,
    derive_constants,
    estimate_c_hat,
    modulus_geometric_sum,
    system_to_config,
    validate_system,
)
from .simulate import (
    ContractionRow,
    EmpiricalMeasure,
    check_average_contraction,
    pushforward_measure,
)

__version__ = "0.1.0"
