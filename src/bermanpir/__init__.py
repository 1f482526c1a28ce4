"""GF(2) coding toolkit: Berman-family codes, star products of codes, and a
simulated private information retrieval protocol resistant to server
collusion.

Every public name is imported from its home module on first access (PEP 562),
so ``import bermanpir`` loads no submodule and no NumPy, and
``from bermanpir import checks`` does not load the protocol.
"""

import importlib

__version__ = "0.1.0"

#: The package's submodules; each is imported on first access as well.
_SUBMODULES = ("berman", "checks", "cli", "codes", "gf2", "pir", "star")

#: Home module -> the public names the package re-exports from it.
_EXPORTS = {
    "berman": (
        "BermanParams",
        "CodeKind",
        "build",
        "c_vector",
        "d_vector",
        "dimension_formula",
        "min_distance_formula",
        "recursive_membership",
        "reed_muller_code",
    ),
    "codes": ("InvalidInput", "LinearCode", "ProtocolInvariantError", "TooLarge", "ZeroCode"),
    "gf2": (
        "BitMatrix",
        "BitVector",
        "LengthMismatch",
        "Singular",
        "invert_columns",
        "nullspace_basis",
        "rank",
        "row_reduce",
    ),
    "pir": (
        "SchemeConfig",
        "SchemeDerived",
        "Transcript",
        "UnsupportedPair",
        "ZeroRate",
        "closed_form_triple",
        "derive_scheme",
        "run_retrieval",
        "verify_privacy_empirical",
        "verify_privacy_rank",
    ),
    "star": (
        "FULL_SPACE",
        "UNDEFINED",
        "StarCaseResult",
        "predict_star",
        "star_codes",
        "star_vectors",
        "verify_star_case",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import ``name``'s home module (or the submodule ``name``) and cache the
    attribute here, so later lookups do not come back."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
