"""Exception hierarchy shared by all cmslab modules."""


class CMSError(Exception):
    """Base class for every error raised by cmslab."""


class ConfigError(CMSError):
    """Malformed configuration: bad schema, unknown fields, wrong shapes."""


class ValidationError(CMSError):
    """A system description violates a structural invariant."""


class NormalizationError(ValidationError):
    """Out-edge probabilities at some vertex do not sum identically to 1."""


class RegionEscape(ValidationError):
    """An edge map sends a point of its source region outside the target region."""


class EmptySupport(ValidationError):
    """The support set is empty."""


class NonPositiveProbability(ValidationError):
    """A probability function leaves (0, 1] somewhere on its source region."""


class DiniDivergence(CMSError):
    """A modulus-of-continuity series diverges: its ratio is not in [0, 1)."""


class NotUniformlyContractive(CMSError):
    """Operation is only defined when every edge map is a contraction: the
    largest edge Lipschitz constant must be below 1."""


class InadmissibleWord(CMSError):
    """An edge word is not a path of the system graph."""


class DepthOverflow(CMSError):
    """Word enumeration would exceed the word cap."""


class ExactModeUnavailable(CMSError):
    """Exact cylinder computation requires constant probability functions."""


class AbsoluteContinuityViolation(CMSError):
    """A cylinder has chain mass but zero base measure: support set too small."""


class CertificateInvalid(CMSError):
    """A cover certificate failed re-verification."""


class ConsistencyRedFlag(CMSError):
    """A corollary lower bound exceeded a cover upper bound."""
