"""GF(2) coding toolkit: Berman-family codes, star products of codes, and a
simulated private information retrieval protocol resistant to server
collusion."""

from .berman import (
    BermanParams,
    CodeKind,
    build,
    c_vector,
    d_vector,
    dimension_formula,
    min_distance_formula,
    recursive_membership,
    reed_muller_code,
)
from .codes import InvalidInput, LinearCode, TooLarge, ZeroCode
from .gf2 import (
    BitMatrix,
    BitVector,
    LengthMismatch,
    Singular,
    invert_columns,
    nullspace_basis,
    rank,
    row_reduce,
)
from .pir import (
    ProtocolInvariantError,
    ScheduleNotFound,
    SchemeConfig,
    SchemeDerived,
    Transcript,
    UnsupportedPair,
    ZeroRate,
    closed_form_triple,
    derive_scheme,
    run_retrieval,
    verify_privacy_empirical,
    verify_privacy_rank,
)
from .star import (
    FULL_SPACE,
    UNDEFINED,
    StarCaseResult,
    predict_star,
    star_codes,
    star_vectors,
    verify_star_case,
)

__version__ = "0.1.0"

__all__ = [
    "BermanParams",
    "BitMatrix",
    "BitVector",
    "CodeKind",
    "FULL_SPACE",
    "InvalidInput",
    "LengthMismatch",
    "LinearCode",
    "ProtocolInvariantError",
    "ScheduleNotFound",
    "SchemeConfig",
    "SchemeDerived",
    "Singular",
    "StarCaseResult",
    "TooLarge",
    "Transcript",
    "UNDEFINED",
    "UnsupportedPair",
    "ZeroCode",
    "ZeroRate",
    "build",
    "c_vector",
    "closed_form_triple",
    "d_vector",
    "derive_scheme",
    "dimension_formula",
    "invert_columns",
    "min_distance_formula",
    "nullspace_basis",
    "predict_star",
    "rank",
    "recursive_membership",
    "reed_muller_code",
    "row_reduce",
    "run_retrieval",
    "star_codes",
    "star_vectors",
    "verify_privacy_empirical",
    "verify_privacy_rank",
    "verify_star_case",
]
