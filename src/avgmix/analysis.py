"""Structural analysis of average mixing: closed forms, cospectrality, transfer.

Closed forms cover paths (adjacency and Laplacian), cycles, and
pseudocyclic class graphs; each is (aJ + bI + cT) / denom with integers
a, b, c, denom and T the reversal of a path or the antipodal map of an
even cycle, which the full pipeline can be checked against.
Cospectrality and walk-regularity are read off the resolvent diagonal
f_uu = sum_j B_j[u][u] y^j, since phi(M \\ u) = (phi / psi) f_uu: from
a report's vertex classes, or from the resolvent alone.  Strong
cospectrality goes through the kernel of the average mixing matrix, and
the perfect state transfer verdict reports the necessary conditions
only; nothing here claims sufficiency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Sequence

from .exact import ExactMatrix, _check_vertices, _radical_resolvent, _rows_in_span
from .graphs import WeightedGraph, basis_rows, cycle_graph, matrix_of, path_graph
from .mixing import AvgMixReport, average_mixing, strong_cospectral_kernel


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Descriptor of a known exact form of the average mixing matrix.

    family is one of 'path_adjacency', 'path_laplacian', 'cycle_odd',
    'cycle_even', 'pseudocyclic'; m is the common valency and is only
    used by the pseudocyclic form.
    """

    family: str
    n: int
    m: int | None = None


def closed_form_matrix(form: ClosedForm) -> ExactMatrix:
    """The predicted average mixing matrix for a known family."""
    n = form.n
    if n < 1:
        raise ValueError("closed forms need n >= 1")
    # (a J + b I + c T) / denom
    if form.family == "path_adjacency":
        a, b, c, denom = 2, 1, 1, 2 * n + 2
    elif form.family == "path_laplacian":
        if n < 2:
            raise ValueError("Laplacian path form needs n >= 2")
        a, b, c, denom = 2 * n - 2, n, n, 2 * n * n
    elif form.family == "cycle_odd":
        if n < 3 or n % 2 == 0:
            raise ValueError("odd cycle form needs odd n >= 3")
        a, b, c, denom = n - 1, n, 0, n * n
    elif form.family == "cycle_even":
        if n < 4 or n % 2 == 1:
            raise ValueError("even cycle form needs even n >= 4")
        a, b, c, denom = n - 2, n, n, n * n
    elif form.family == "pseudocyclic":
        m = form.m
        if m is None or not (1 <= m <= n - 1) or (n - 1) % m != 0:
            raise ValueError("pseudocyclic form needs a valency m dividing n-1")
        a, b, c, denom = n - m + 1, n * (m - 1), 0, n * n
    else:
        raise ValueError(f"unknown closed form family {form.family!r}")
    if form.family == "cycle_even":
        partner = [(i + n // 2) % n for i in range(n)]  # antipodal map
    else:
        partner = [n - 1 - i for i in range(n)]  # reversal
    nums = [
        [a + b * (i == j) + c * (j == partner[i]) for j in range(n)]
        for i in range(n)
    ]
    return ExactMatrix(nums, denom)


def verify_closed_form(
    form: ClosedForm,
    graph: WeightedGraph | None = None,
    report: AvgMixReport | None = None,
) -> bool:
    """Run the full exact pipeline and compare with the closed form.

    The path and cycle families build their own graphs; the pseudocyclic
    form applies to an explicitly supplied class graph of valency m.  A
    report already computed for the form's matrix is compared directly
    instead of running the pipeline again.
    """
    if report is not None:
        if report.n != form.n:
            raise ValueError("report order does not match the closed form")
        return report.mixing == closed_form_matrix(form)
    if form.family == "path_adjacency":
        matrix = matrix_of(path_graph(form.n))
    elif form.family == "path_laplacian":
        matrix = matrix_of(path_graph(form.n), "laplacian")
    elif form.family in ("cycle_odd", "cycle_even"):
        matrix = matrix_of(cycle_graph(form.n))
    elif form.family == "pseudocyclic":
        if graph is None:
            raise ValueError("pseudocyclic verification needs an explicit graph")
        if graph.n != form.n:
            raise ValueError("graph order does not match the closed form")
        matrix = matrix_of(graph)
    else:
        raise ValueError(f"unknown closed form family {form.family!r}")
    return average_mixing(matrix).mixing == closed_form_matrix(form)


# ---------------------------------------------------------------------------
# cospectrality
# ---------------------------------------------------------------------------


def _vertex_classes(
    g: WeightedGraph, basis: str, report: AvgMixReport | None
) -> Sequence[Hashable]:
    """Labels, equal for u and v exactly when f_uu == f_vv: the report's
    classes, or without one f_uu itself, from the resolvent alone."""
    if report is None:
        return _radical_resolvent(basis_rows(g, basis))[4].diagonals()
    if report.n != g.n:
        raise ValueError("report order does not match the graph")
    return report.vertex_classes


def are_cospectral(
    g: WeightedGraph,
    u: int,
    v: int,
    basis: str = "adjacency",
    report: AvgMixReport | None = None,
) -> bool:
    """Whether G\\u and G\\v share a characteristic polynomial in basis.

    report, when given, must be the average mixing report of g in basis.
    """
    _check_vertices(g.n, u, v)
    if u == v:
        return True
    classes = _vertex_classes(g, basis, report)
    return classes[u] == classes[v]


def are_strongly_cospectral(
    g: WeightedGraph,
    u: int,
    v: int,
    report: AvgMixReport | None = None,
    basis: str = "adjacency",
) -> bool:
    """Whether E_r e_u = +- E_r e_v for every idempotent E_r.

    Equivalent to e_u - e_v lying in the kernel of the average mixing
    matrix.  For a simple spectrum this coincides with plain
    cospectrality, and that equivalence is asserted on the fly.  report,
    when given, must be the average mixing report of g in basis.
    """
    if report is None:
        report = average_mixing(matrix_of(g, basis))
    elif report.n != g.n:
        raise ValueError("report order does not match the graph")
    answer = strong_cospectral_kernel(report, u, v)
    if report.simple_spectrum and answer != are_cospectral(g, u, v, basis, report):
        raise AssertionError(
            "strong cospectrality must equal cospectrality for simple spectra"
        )
    return answer


def is_walk_regular(
    g: WeightedGraph, basis: str = "adjacency", report: AvgMixReport | None = None
) -> bool:
    """All vertex-deleted characteristic polynomials equal.  report, when
    given, must be the average mixing report of g in basis."""
    return len(set(_vertex_classes(g, basis, report))) == 1


def all_strongly_cospectral_check(
    g: WeightedGraph, basis: str = "adjacency"
) -> bool:
    """Whether every vertex pair is strongly cospectral (true only for tiny graphs)."""
    # Mhat is symmetric, so its columns are its rows
    return len(set(average_mixing(matrix_of(g, basis)).mixing.numerators)) == 1


# ---------------------------------------------------------------------------
# perfect state transfer gate
# ---------------------------------------------------------------------------


class PstStatus(enum.Enum):
    CANDIDATE = "CANDIDATE"
    BLOCKED = "BLOCKED"


@dataclass(frozen=True)
class PstVerdict:
    """Necessary-condition verdict for perfect state transfer u -> v.

    CANDIDATE means no implemented necessary condition fails; it is
    never a claim that transfer occurs.  no_pst_anywhere reports the
    global obstruction: when all columns of the average mixing matrix
    are distinct, no vertex pair of the graph admits transfer.
    """

    status: PstStatus
    reason: str | None
    no_pst_anywhere: bool


def pst_necessary(
    g: WeightedGraph,
    u: int,
    v: int,
    basis: str = "adjacency",
    report: AvgMixReport | None = None,
) -> PstVerdict:
    """Gate a vertex pair through the strong cospectrality requirement.

    report, when given, must be the average mixing report of g in basis.
    """
    _check_vertices(g.n, u, v)
    if u == v:
        raise ValueError("transfer needs two distinct vertices")
    if report is None:
        report = average_mixing(matrix_of(g, basis))
    elif report.n != g.n:
        raise ValueError("report order does not match the graph")
    # Mhat is symmetric, so its columns are its rows
    columns = report.mixing.numerators
    no_pst = len(set(columns)) == g.n
    if columns[u] != columns[v]:
        return PstVerdict(
            PstStatus.BLOCKED,
            "vertices are not strongly cospectral",
            no_pst,
        )
    return PstVerdict(PstStatus.CANDIDATE, None, no_pst)


# ---------------------------------------------------------------------------
# span classification
# ---------------------------------------------------------------------------


class SpanClass(enum.Enum):
    IJ = "IJ"
    IJT = "IJT"
    OTHER = "OTHER"


def ij_span_check(report: AvgMixReport) -> SpanClass:
    """Classify Mhat = N / denom against span{I, J} and span{I, J, T}
    exactly, on the integer numerators N: Mhat lies in a span iff N does."""
    n = report.n
    nums = report.mixing.numerators
    cells = [(i, j) for i in range(n) for j in range(n)]
    if _rows_in_span([int(i == j), 1, nums[i][j]] for i, j in cells):
        return SpanClass.IJ
    if _rows_in_span(
        [int(i == j), 1, int(i + j == n - 1), nums[i][j]] for i, j in cells
    ):
        return SpanClass.IJT
    return SpanClass.OTHER
