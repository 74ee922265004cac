"""Exact slope-stability analysis for tangent bundles of smooth complete toric varieties.

Everything is integer/Fraction arithmetic; no floats anywhere.  The usual
entry points:

    >>> from toricstab import construct_hirzebruch, anticanonical, decide
    >>> f = construct_hirzebruch(1)
    >>> decide(f, anticanonical(f)).status.value
    'semistable'
"""

from .charts import (
    Chart,
    MonomialDerivation,
    chart_of,
    expand_in_chart,
    is_regular,
    rank_one_exists,
    reexpand,
)
from .errors import (
    BadCoefficient,
    BadDimension,
    BadTwist,
    BadVolumeTable,
    DimMismatch,
    IncomparableLevels,
    InconsistentRank,
    InvalidFan,
    InvalidJumpData,
    InvalidLambda,
    NonAmple,
    NotMaximal,
    ParseError,
    RankMismatch,
    ToricStabError,
    TooManyRays,
    ZeroVector,
)
from .fan import (
    Fan,
    catalog_fano4,
    cone_rays,
    construct_hirzebruch,
    construct_p1_bundle,
    construct_product,
    construct_proj_split,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from .polytope import (
    ToricDivisor,
    VolumeTable,
    anticanonical,
    divisor,
    facet_volumes,
    is_ample,
    is_reflexive,
    polytope_from_divisor,
)
from .sheafdata import (
    JumpData,
    degree_monotonicity_check,
    degree_of,
    lambda_matrix_to_jump,
    rank_of,
    tangent_jump_data,
    validate_lambda_matrix,
)
from .stability import (
    Certificate,
    Stability,
    StabilityVerdict,
    SubsheafCandidate,
    certificate,
    decide,
)

__version__ = "0.1.0"

__all__ = [
    "BadCoefficient", "BadDimension", "BadTwist", "BadVolumeTable",
    "Certificate", "Chart", "DimMismatch", "Fan", "IncomparableLevels", "InconsistentRank",
    "InvalidFan", "InvalidJumpData", "InvalidLambda", "JumpData", "MonomialDerivation",
    "NonAmple", "NotMaximal", "ParseError",
    "RankMismatch", "Stability", "StabilityVerdict", "SubsheafCandidate",
    "ToricDivisor", "ToricStabError", "TooManyRays", "VolumeTable", "ZeroVector",
    "anticanonical",
    "catalog_fano4", "certificate", "chart_of", "cone_rays",
    "construct_hirzebruch", "construct_p1_bundle", "construct_product",
    "construct_proj_split", "construct_projective_space", "decide",
    "degree_monotonicity_check", "degree_of", "divisor",
    "expand_in_chart", "facet_volumes",
    "is_ample", "is_reflexive", "is_regular",
    "lambda_matrix_to_jump", "make_fan", "polytope_from_divisor",
    "rank_of", "rank_one_exists", "reexpand",
    "tangent_jump_data", "validate_fan",
    "validate_lambda_matrix",
]
