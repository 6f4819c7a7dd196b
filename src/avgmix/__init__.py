"""Exact average mixing matrices of quantum walks on weighted graphs.

The continuous walk on a symmetric integer matrix A moves by the
unitary exp(itA); its time-averaged mixing matrix is the Schur-squared
sum of the spectral idempotents of A, a rational matrix this package
computes exactly, without ever representing an eigenvalue.  On top of
that core sit closed-form families, cospectrality and strong
cospectrality decisions, association-scheme verification, and the
discrete-walk analogue for rational orthogonal step matrices.

`import avgmix` loads none of its submodules.  Each public name below is
looked up in its submodule on first access (PEP 562), so a caller pays
only for the stack it uses: `average_mixing` loads `exact` and `mixing`,
`cesaro_error_bound` the discrete stack, `verify_scheme` the scheme
stack, `spectral_decomposition` the float oracle `numeric`.  Bare
submodule names (`avgmix.schemes`, `avgmix.cli`, ...) resolve the same
way.  This namespace and the `avgmix.cli` subcommands are the only
places that decide what a call loads: every module imports what it
computes with, numpy included, at its top.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_HOME = {
    **dict.fromkeys(
        (
            "ClosedForm",
            "PstStatus",
            "PstVerdict",
            "SpanClass",
            "all_strongly_cospectral_check",
            "are_cospectral",
            "are_strongly_cospectral",
            "closed_form_matrix",
            "ij_span_check",
            "is_walk_regular",
            "pst_necessary",
            "verify_closed_form",
        ),
        "analysis",
    ),
    **dict.fromkeys(
        (
            "avg_mixing_literal",
            "avg_mixing_physical",
            "cesaro_error_bound",
            "cesaro_partial",
        ),
        "discrete",
    ),
    **dict.fromkeys(("ExactMatrix", "ExactPolynomial"), "exact"),
    **dict.fromkeys(
        (
            "Graph6Error",
            "WeightedGraph",
            "add_loops",
            "circulant_graph",
            "complement",
            "complete_graph",
            "cycle_graph",
            "emit_graph6",
            "family",
            "matrix_of",
            "parse_graph6",
            "path_graph",
        ),
        "graphs",
    ),
    **dict.fromkeys(
        (
            "AvgMixReport",
            "IntegralityCertificates",
            "average_mixing",
            "strong_cospectral_kernel",
        ),
        "mixing",
    ),
    **dict.fromkeys(
        (
            "SpectralDecomposition",
            "average_upto",
            "mixing_at",
            "numeric_avg_mixing",
            "spectral_decomposition",
            "transition_matrix",
        ),
        "numeric",
    ),
    **dict.fromkeys(
        (
            "AssociationScheme",
            "SchemeReport",
            "SchemeViolation",
            "cyclotomic_scheme",
            "is_pseudocyclic",
            "koppinen_schur_check",
            "verify_scheme",
        ),
        "schemes",
    ),
}
__all__ = sorted(_HOME)
_SUBMODULES = {*_HOME.values(), "cli"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
