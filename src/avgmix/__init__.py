"""Exact average mixing matrices of quantum walks on weighted graphs.

The continuous walk on a symmetric integer matrix A moves by the
unitary exp(itA); its time-averaged mixing matrix is the Schur-squared
sum of the spectral idempotents of A, a rational matrix this package
computes exactly, without ever representing an eigenvalue.  On top of
that core sit closed-form families, cospectrality and strong
cospectrality decisions, association-scheme verification, and the
discrete-walk analogue for rational orthogonal step matrices.
"""

from .analysis import (
    ClosedForm,
    PstStatus,
    PstVerdict,
    SpanClass,
    all_strongly_cospectral_check,
    are_cospectral,
    are_strongly_cospectral,
    closed_form_matrix,
    ij_span_check,
    is_walk_regular,
    pst_necessary,
    verify_closed_form,
)
from .discrete import (
    avg_mixing_literal,
    avg_mixing_physical,
    cesaro_error_bound,
    cesaro_partial,
)
from .exact import ExactMatrix, ExactPolynomial
from .graphs import (
    Graph6Error,
    WeightedGraph,
    add_loops,
    circulant_graph,
    complement,
    complete_graph,
    cycle_graph,
    emit_graph6,
    family,
    matrix_of,
    parse_graph6,
    path_graph,
)
from .mixing import (
    AvgMixReport,
    IntegralityCertificates,
    average_mixing,
    certify_integrality,
    strong_cospectral_kernel,
)
from .numeric import (
    SpectralDecomposition,
    average_upto,
    mixing_at,
    numeric_avg_mixing,
    spectral_decomposition,
    transition_matrix,
)
from .schemes import (
    AssociationScheme,
    SchemeReport,
    SchemeViolation,
    cyclotomic_scheme,
    is_pseudocyclic,
    koppinen_schur_check,
    verify_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme",
    "AvgMixReport",
    "ClosedForm",
    "ExactMatrix",
    "ExactPolynomial",
    "Graph6Error",
    "IntegralityCertificates",
    "PstStatus",
    "PstVerdict",
    "SchemeReport",
    "SchemeViolation",
    "SpanClass",
    "SpectralDecomposition",
    "WeightedGraph",
    "add_loops",
    "all_strongly_cospectral_check",
    "are_cospectral",
    "are_strongly_cospectral",
    "average_mixing",
    "average_upto",
    "avg_mixing_literal",
    "avg_mixing_physical",
    "certify_integrality",
    "cesaro_error_bound",
    "cesaro_partial",
    "circulant_graph",
    "closed_form_matrix",
    "complement",
    "complete_graph",
    "cycle_graph",
    "cyclotomic_scheme",
    "emit_graph6",
    "family",
    "ij_span_check",
    "is_pseudocyclic",
    "is_walk_regular",
    "koppinen_schur_check",
    "matrix_of",
    "mixing_at",
    "numeric_avg_mixing",
    "parse_graph6",
    "path_graph",
    "pst_necessary",
    "spectral_decomposition",
    "strong_cospectral_kernel",
    "transition_matrix",
    "verify_closed_form",
    "verify_scheme",
]
