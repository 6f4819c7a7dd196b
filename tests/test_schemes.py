"""Scheme axiom checking, cyclotomic construction, spectral identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from avgmix.exact import ExactMatrix
from avgmix.graphs import circulant_graph, complete_graph, matrix_of, path_graph
from avgmix.schemes import (
    AssociationScheme,
    cyclotomic_scheme,
    is_pseudocyclic,
    koppinen_schur_check,
    verify_scheme,
)


def shift(n: int, *ks: int) -> ExactMatrix:
    """The sum of the cyclic shifts i -> i + k over the given k."""
    return ExactMatrix(
        [[1 if (j - i) % n in ks else 0 for j in range(n)] for i in range(n)]
    )


def off_diagonal(n: int) -> ExactMatrix:
    return ExactMatrix([[int(i != j) for j in range(n)] for i in range(n)])


# the complement of the path 0 - 1 - 2 without loops
P3_REST = ExactMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]])


def c4_scheme() -> list[ExactMatrix]:
    return [
        ExactMatrix.identity(4),
        matrix_of(circulant_graph(4, (1,))),
        shift(4, 2),
    ]


def k4_scheme() -> list[ExactMatrix]:
    return [ExactMatrix.identity(4), off_diagonal(4)]


# ---------------------------------------------------------------------------
# rejection with witnesses
# ---------------------------------------------------------------------------


def test_path_partition_is_rejected_with_closure_witness():
    ident = ExactMatrix.identity(3)
    adj = matrix_of(path_graph(3))
    report = verify_scheme([ident, adj, P3_REST])
    assert not report.ok
    assert report.scheme is None
    closure = [v for v in report.violations if v.axiom == "d"]
    assert closure, "a span failure must be reported"
    assert any(v.witness in ((1, 2), (2, 1), (1, 1)) for v in closure)
    commute = [v for v in report.violations if v.axiom == "c"]
    assert [v.witness for v in commute] == [(1, 2)]


def test_path_partition_span_witness_names_conflicting_cells():
    ident = ExactMatrix.identity(3)
    adj = matrix_of(path_graph(3))
    report = verify_scheme([ident, adj, P3_REST])
    squared = [v for v in report.violations if v.witness == (1, 1)]
    assert len(squared) == 1
    # the square of the path class is 2 on the middle diagonal cell but 1
    # on the end ones, so the conflict lives on the identity's support
    assert "value 1 at" in squared[0].detail
    assert "but 2 at" in squared[0].detail


def test_missing_identity_is_reported():
    report = verify_scheme([ExactMatrix.ones(2)])
    assert not report.ok
    assert any(
        v.axiom == "a" and "identity" in v.detail for v in report.violations
    )


def test_empty_class_is_reported():
    report = verify_scheme(
        [ExactMatrix.identity(3), ExactMatrix([[0] * 3] * 3), off_diagonal(3)]
    )
    assert not report.ok
    assert any(
        v.axiom == "a" and v.witness == (1,) for v in report.violations
    )


def test_bad_partition_cell_is_reported():
    ident = ExactMatrix.identity(2)
    report = verify_scheme([ident, ident])
    assert not report.ok
    cells = [v for v in report.violations if v.axiom == "a" and len(v.witness) == 2]
    assert cells and "covered 2 times" in cells[0].detail


def test_transpose_closure_failure_collected_alongside_span():
    # directed 4-cycle with the last two powers merged: still a partition
    # of positions and still commutative, but neither transpose-closed
    # nor span-closed
    mats = [
        ExactMatrix.identity(4),
        shift(4, 1),
        shift(4, 2, 3),
    ]
    report = verify_scheme(mats)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "b" in axioms
    assert "d" in axioms
    assert "c" not in axioms


def test_malformed_inputs_raise():
    with pytest.raises(ValueError):
        verify_scheme([])
    with pytest.raises(ValueError):
        verify_scheme([ExactMatrix([[2]])])
    with pytest.raises(ValueError):
        verify_scheme([ExactMatrix.identity(2), ExactMatrix.identity(3)])
    with pytest.raises(ValueError):
        verify_scheme([ExactMatrix([[1, 0]])])


@st.composite
def class_lists(draw):
    """Random partitions of the positions into 0/1 classes, each a list of
    rows, with or without the identity as a class of its own, symmetric
    or not."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    symmetric = draw(st.booleans())
    with_identity = draw(st.booleans())
    cells = [
        (i, j)
        for i in range(n)
        for j in range(i if symmetric else 0, n)
        if not (with_identity and i == j)
    ]
    owners = draw(st.lists(st.integers(0, k - 1), min_size=len(cells), max_size=len(cells)))
    mats = [[[0] * n for _ in range(n)] for _ in range(k)]
    for (i, j), c in zip(cells, owners):
        mats[c][i][j] = 1
        if symmetric:
            mats[c][j][i] = 1
    if with_identity:
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        mats.insert(draw(st.integers(0, k)), ident)
    return mats


@settings(max_examples=150, deadline=None)
@given(class_lists())
def test_integer_axioms_match_exact_reference(mats):
    report = verify_scheme([ExactMatrix(m) for m in mats])
    violations, valencies = reference.scheme_verdict(mats)
    assert report.ok == (not violations)
    assert [(v.axiom, v.witness, v.detail) for v in report.violations] == violations
    if report.ok:
        assert report.scheme.valencies == valencies
        ident = ExactMatrix.identity(len(mats[0]))
        ordered = sorted(map(ExactMatrix, mats), key=lambda m: m != ident)
        assert report.scheme.matrices == tuple(ordered)


# ---------------------------------------------------------------------------
# accepted schemes and their data
# ---------------------------------------------------------------------------


def test_c4_scheme_accepted_with_expected_data():
    report = verify_scheme(c4_scheme())
    assert report.ok and not report.violations
    s = report.scheme
    assert s.d == 2
    assert s.valencies == (1, 2, 1)
    assert s.multiplicities == (1, 2, 1)
    assert not is_pseudocyclic(s)
    assert koppinen_schur_check(s)


def test_k4_scheme_accepted_and_pseudocyclic():
    report = verify_scheme(k4_scheme())
    s = report.scheme
    assert s.valencies == (1, 3)
    assert s.multiplicities == (1, 3)
    assert is_pseudocyclic(s)
    assert koppinen_schur_check(s)


def test_k4_koppinen_value_by_hand():
    # both sides equal I/6 + J/12 for the two-class scheme on 4 points
    s = verify_scheme(k4_scheme()).scheme
    left = np.zeros((4, 4))
    for matrix, valency in zip(s.matrices, s.valencies):
        left += np.array(matrix.to_float()) / (4 * valency)
    expected = np.eye(4) / 6 + np.ones((4, 4)) / 12
    assert np.allclose(left, expected, atol=1e-12)
    assert koppinen_schur_check(s)


def test_trivial_scheme_on_one_point():
    report = verify_scheme([ExactMatrix.identity(1)])
    assert report.ok
    assert report.scheme.d == 0
    assert report.scheme.multiplicities == (1,)


def test_identity_moved_to_front():
    mats = [matrix_of(circulant_graph(4, (1,))), shift(4, 2), ExactMatrix.identity(4)]
    s = verify_scheme(mats).scheme
    assert s.matrices[0] == ExactMatrix.identity(4)
    assert s.valencies[0] == 1


def test_merged_cycle_scheme_on_six_points():
    mats = [
        ExactMatrix.identity(6),
        matrix_of(circulant_graph(6, (1,))),
        matrix_of(circulant_graph(6, (2,))),
        shift(6, 3),
    ]
    report = verify_scheme(mats)
    assert report.ok
    s = report.scheme
    assert s.valencies == (1, 2, 2, 1)
    assert s.multiplicities == (1, 2, 2, 1)
    assert not is_pseudocyclic(s)
    assert koppinen_schur_check(s)


def test_group_scheme_of_directed_triangle_lacks_spectral_data():
    mats = [ExactMatrix.identity(3), shift(3, 1), shift(3, 2)]
    report = verify_scheme(mats)
    assert report.ok
    s = report.scheme
    assert not s.is_symmetric()
    assert s.multiplicities is None
    with pytest.raises(ValueError):
        is_pseudocyclic(s)
    with pytest.raises(ValueError):
        koppinen_schur_check(s)


def test_projectors_resolve_identity_and_idempotency():
    s = verify_scheme(cyclotomic_scheme(13, 2)).scheme
    total = sum(s.projectors)
    assert np.allclose(total, np.eye(13), atol=1e-8)
    for p in s.projectors:
        assert np.allclose(p @ p, p, atol=1e-8)


# ---------------------------------------------------------------------------
# cyclotomic schemes
# ---------------------------------------------------------------------------


def test_cyclotomic_13_2_matches_quadratic_residues():
    classes = cyclotomic_scheme(13, 2)
    assert len(classes) == 3
    assert classes[0] == ExactMatrix.identity(13)
    assert classes[1] == matrix_of(circulant_graph(13, (1, 3, 4)))
    report = verify_scheme(classes)
    assert report.ok
    s = report.scheme
    assert s.valencies == (1, 6, 6)
    assert s.multiplicities == (1, 6, 6)
    assert is_pseudocyclic(s)
    assert koppinen_schur_check(s)


def test_cyclotomic_5_2_is_the_pentagon():
    classes = cyclotomic_scheme(5, 2)
    assert classes[1] == matrix_of(circulant_graph(5, (1,)))
    s = verify_scheme(classes).scheme
    assert is_pseudocyclic(s)


def test_cyclotomic_7_3_accepted():
    classes = cyclotomic_scheme(7, 3)
    assert len(classes) == 4
    report = verify_scheme(classes)
    assert report.ok
    s = report.scheme
    assert s.valencies == (1, 2, 2, 2)
    assert s.multiplicities == (1, 2, 2, 2)
    assert is_pseudocyclic(s)
    assert koppinen_schur_check(s)


def test_cyclotomic_17_2_accepted():
    s = verify_scheme(cyclotomic_scheme(17, 2)).scheme
    assert s.valencies == (1, 8, 8)
    assert is_pseudocyclic(s)
    assert koppinen_schur_check(s)


def test_cyclotomic_rejections():
    with pytest.raises(ValueError):
        cyclotomic_scheme(9, 2)
    with pytest.raises(ValueError):
        cyclotomic_scheme(13, 5)
    with pytest.raises(ValueError):
        cyclotomic_scheme(7, 2)
    with pytest.raises(ValueError):
        cyclotomic_scheme(13, 4)
    with pytest.raises(ValueError):
        cyclotomic_scheme(13, 0)
    # not prime: rejected before the primality test, which needs q > 1
    for q in (0, 1, -3):
        with pytest.raises(ValueError, match="prime"):
            cyclotomic_scheme(q, 1)
    with pytest.raises(ValueError, match="2\\^64"):
        cyclotomic_scheme(2**64 + 13, 2)


def test_complete_graph_class_matrix_matches_two_class_scheme():
    assert k4_scheme()[1] == matrix_of(complete_graph(4))


def test_koppinen_rejects_doctored_multiplicities():
    s = verify_scheme(k4_scheme()).scheme
    doctored = AssociationScheme(
        s.matrices, s.valencies, (2, 2), s.projectors
    )
    assert not koppinen_schur_check(doctored)
