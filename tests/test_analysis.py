"""Closed forms, cospectrality decisions, transfer gating, span classes."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from avgmix.analysis import (
    ClosedForm,
    PstStatus,
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
from avgmix.exact import ExactMatrix, _radical_resolvent
from avgmix.graphs import (
    WeightedGraph,
    add_loops,
    basis_rows,
    circulant_graph,
    complement,
    complete_graph,
    cycle_graph,
    matrix_of,
    path_graph,
)
from avgmix.mixing import (
    _TraceTable,
    _trace_form,
    average_mixing,
    strong_cospectral_kernel,
)
from avgmix.numeric import spectral_decomposition
from avgmix.schemes import cyclotomic_scheme

F = Fraction


def paley_13() -> WeightedGraph:
    # quadratic residues mod 13 are {1, 3, 4, 9, 10, 12}
    return circulant_graph(13, (1, 3, 4))


# ---------------------------------------------------------------------------
# closed form matrices
# ---------------------------------------------------------------------------


def test_path_form_n3_entries():
    m = closed_form_matrix(ClosedForm("path_adjacency", 3))
    assert [m[i, i] for i in range(3)] == [F(3, 8), F(1, 2), F(3, 8)]
    assert m[0, 2] == F(3, 8)
    assert m[0, 1] == F(1, 4)


def test_path_form_n1_is_trivial():
    assert closed_form_matrix(ClosedForm("path_adjacency", 1)) == ExactMatrix([[1]])


def test_even_cycle_form_n4_entries():
    m = closed_form_matrix(ClosedForm("cycle_even", 4))
    assert m[0, 0] == F(3, 8)
    assert m[0, 2] == F(3, 8)
    assert m[0, 1] == F(1, 8)
    assert m.row_sums() == (F(1),) * 4


def test_odd_cycle_form_n5_entries():
    m = closed_form_matrix(ClosedForm("cycle_odd", 5))
    assert m[0, 0] == F(4, 25) + F(1, 5)
    assert m[0, 3] == F(4, 25)


def test_pseudocyclic_form_paley13_entries():
    m = closed_form_matrix(ClosedForm("pseudocyclic", 13, 6))
    assert m[0, 0] == F(73, 169)
    assert m[0, 1] == F(8, 169)


def test_form_validation_errors():
    with pytest.raises(ValueError):
        closed_form_matrix(ClosedForm("cycle_odd", 4))
    with pytest.raises(ValueError):
        closed_form_matrix(ClosedForm("cycle_even", 5))
    with pytest.raises(ValueError):
        closed_form_matrix(ClosedForm("path_laplacian", 1))
    with pytest.raises(ValueError):
        closed_form_matrix(ClosedForm("pseudocyclic", 13, 5))
    with pytest.raises(ValueError):
        closed_form_matrix(ClosedForm("pseudocyclic", 13))
    with pytest.raises(ValueError):
        closed_form_matrix(ClosedForm("no_such_family", 3))


# ---------------------------------------------------------------------------
# closed forms against the exact pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_path_adjacency_forms_verify(n):
    assert verify_closed_form(ClosedForm("path_adjacency", n))


@pytest.mark.parametrize("n", range(2, 9))
def test_path_laplacian_forms_verify(n):
    assert verify_closed_form(ClosedForm("path_laplacian", n))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_cycle_forms_verify(n):
    assert verify_closed_form(ClosedForm("cycle_odd", n))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_even_cycle_forms_verify(n):
    assert verify_closed_form(ClosedForm("cycle_even", n))


def test_cycle_forms_hold_for_every_cycle_up_to_201():
    # a cycle is distance-regular, so each takes its quotient of order
    # floor(n/2) + 1 in place of the n x n engine
    failed = [
        n
        for n in range(3, 202)
        if not verify_closed_form(ClosedForm("cycle_odd" if n % 2 else "cycle_even", n))
    ]
    assert failed == []


def test_pseudocyclic_form_holds_on_paley_class_graphs_up_to_401():
    # for a prime q = 1 mod 4 the d = 2 cyclotomic scheme is pseudocyclic
    # with m = (q - 1) / 2, and its class graph is the Paley graph
    primes = [q for q in range(5, 402, 4) if all(q % p for p in range(2, q))]
    assert len(primes) == 38
    failed = []
    for q in primes:
        report = average_mixing(cyclotomic_scheme(q, 2)[1])
        form = ClosedForm("pseudocyclic", q, (q - 1) // 2)
        if not verify_closed_form(form, report=report):
            failed.append(q)
    assert failed == []


def test_pseudocyclic_form_verifies_on_paley_13():
    assert verify_closed_form(ClosedForm("pseudocyclic", 13, 6), paley_13())


def test_pseudocyclic_form_verifies_on_c5():
    # the 5-cycle is the class graph of a pseudocyclic pair with valency 2
    assert verify_closed_form(ClosedForm("pseudocyclic", 5, 2), cycle_graph(5))


def test_pseudocyclic_form_rejects_missing_or_mismatched_graph():
    with pytest.raises(ValueError):
        verify_closed_form(ClosedForm("pseudocyclic", 13, 6))
    with pytest.raises(ValueError):
        verify_closed_form(ClosedForm("pseudocyclic", 13, 6), cycle_graph(5))


def test_pseudocyclic_form_holds_on_complete_graph():
    # K_n carries the one-class pair {I, J-I}, pseudocyclic with m = n-1
    assert verify_closed_form(ClosedForm("pseudocyclic", 4, 3), complete_graph(4))


def petersen() -> WeightedGraph:
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ]
    weights = [[0] * 10 for _ in range(10)]
    for u, v in edges:
        weights[u][v] = weights[v][u] = 1
    return WeightedGraph.from_weights(weights)


def test_pseudocyclic_form_fails_honestly_off_family():
    # Petersen is strongly regular of valency 3 but its nontrivial
    # eigenspace multiplicities (4 and 5) differ, so the form cannot hold
    assert not verify_closed_form(ClosedForm("pseudocyclic", 10, 3), petersen())


# ---------------------------------------------------------------------------
# cospectrality
# ---------------------------------------------------------------------------


def test_path_end_vertices_cospectral():
    for n in range(2, 8):
        assert are_cospectral(path_graph(n), 0, n - 1)


def test_path_interior_asymmetry():
    assert not are_cospectral(path_graph(3), 0, 1)
    assert not are_cospectral(path_graph(4), 0, 1)
    assert are_cospectral(path_graph(4), 1, 2)


def test_cycle_all_pairs_cospectral():
    g = cycle_graph(5)
    for u in range(5):
        for v in range(5):
            assert are_cospectral(g, u, v)


def test_cospectral_same_vertex_and_range():
    assert are_cospectral(path_graph(3), 1, 1)
    with pytest.raises(IndexError):
        are_cospectral(path_graph(3), 0, 3)


def _vertex_entry_points():
    """Each function that takes a vertex (a circulant's step, for
    circulant_graph), called with v in one vertex slot."""
    g = path_graph(3)
    report = average_mixing(matrix_of(g))
    return {
        "add_loops": lambda v: add_loops(g, {v: 2}),
        "weight": lambda v: g.weight(v, 1),
        "are_cospectral": lambda v: are_cospectral(g, v, 2),
        "are_strongly_cospectral": lambda v: are_strongly_cospectral(g, 2, v, report),
        "pst_necessary": lambda v: pst_necessary(g, v, 2, report=report),
        "strong_cospectral_kernel": lambda v: strong_cospectral_kernel(report, 2, v),
        "circulant_graph": lambda v: circulant_graph(7, [2, v]),
    }


@pytest.mark.parametrize("bad", [True, 1.0, "0", -1], ids=repr)
@pytest.mark.parametrize("name", sorted(_vertex_entry_points()))
def test_a_vertex_is_an_int_in_range_never_coerced(name, bad):
    entry = _vertex_entry_points()[name]
    entry(1)
    if bad == -1:
        error = ValueError if name == "circulant_graph" else IndexError
    else:
        error = TypeError
    with pytest.raises(error, match="vertex|connection"):
        entry(bad)


def test_cospectral_with_weights_and_loops():
    g = add_loops(path_graph(3), {0: 2, 2: 2})
    assert are_cospectral(g, 0, 2)
    lop = add_loops(path_graph(3), {0: 2})
    assert not are_cospectral(lop, 0, 2)


def test_strongly_cospectral_path_ends():
    for n in range(2, 8):
        g = path_graph(n)
        assert are_strongly_cospectral(g, 0, n - 1)


def test_cycle_cospectral_but_not_strongly():
    g = cycle_graph(5)
    assert are_cospectral(g, 0, 1)
    assert not are_strongly_cospectral(g, 0, 1)


def test_strongly_cospectral_rejects_same_vertex():
    with pytest.raises(ValueError):
        are_strongly_cospectral(path_graph(3), 1, 1)


def test_strongly_cospectral_accepts_prebuilt_report():
    g = path_graph(4)
    report = average_mixing(matrix_of(g))
    assert are_strongly_cospectral(g, 0, 3, report)
    assert not are_strongly_cospectral(g, 0, 1, report)


def test_strongly_cospectral_rejects_report_of_other_order():
    report = average_mixing(matrix_of(path_graph(3)))
    with pytest.raises(ValueError, match="report order"):
        are_strongly_cospectral(path_graph(4), 0, 2, report)


def test_walk_regularity():
    assert is_walk_regular(cycle_graph(5))
    assert is_walk_regular(complete_graph(4))
    assert is_walk_regular(path_graph(2))
    assert not is_walk_regular(path_graph(3))
    assert is_walk_regular(path_graph(1))


def _weighted_graph(n, upper, shape):
    """Symmetric weights from the upper triangle, loops included.  A
    "mirror" adds the reversal image, so that u and n-1-u are cospectral;
    a "double" is the direct sum with itself, a repeated spectrum."""
    rows = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    if shape == "mirror":
        rows = [[x + rows[n - 1 - i][n - 1 - j] for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    elif shape == "double":
        rows = [row + [0] * n for row in rows] + [[0] * n + row for row in rows]
    return WeightedGraph.from_weights(rows)


# weighted graphs with loops and negative weights, two thirds of them with
# an automorphism, so that cospectral pairs are common
weighted_graphs = st.integers(1, 7).flatmap(
    lambda n: st.builds(
        _weighted_graph,
        st.just(n),
        st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                 max_size=n * (n + 1) // 2),
        st.sampled_from(["plain", "mirror"] + ["double"] * (n <= 3)),
    )
)


@settings(max_examples=80, deadline=None)
@given(weighted_graphs, st.sampled_from(["adjacency", "laplacian"]))
def test_resolvent_diagonal_gives_the_vertex_deleted_char_poly(g, basis):
    # phi(M \ u) = (phi / psi) f_uu with f_uu = sum_j B_j[u][u] y^j, and
    # the report's vertex classes, the deleted char polys and the closed
    # walks (M^k)_uu, k < n, decide cospectrality alike
    if basis == "laplacian":
        g = WeightedGraph.from_weights(
            [[0 if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(g.weights)]
        )
    rows, n = basis_rows(g, basis), g.n
    phi, psi, _, _, res = _radical_resolvent(rows)
    resolvent = reference.unpacked_resolvent(res)
    quotient, rest = reference.poly_divmod(phi, psi)
    assert rest == []
    deleted = [reference.deleted_char_poly(rows, u) for u in range(n)]
    for u in range(n):
        f_uu = [b[u][u] for b in resolvent]
        assert res.diagonals()[u] == tuple(f_uu)
        assert reference.mul(quotient, f_uu) == deleted[u]
    walks = reference.closed_walks(rows, n)
    report = average_mixing(matrix_of(g, basis))
    classes = report.vertex_classes
    for u in range(n):
        for v in range(n):
            same = classes[u] == classes[v]
            assert same == (deleted[u] == deleted[v]) == (walks[u] == walks[v])
    pairs = [(0, n - 1), (n // 2, n - 1 - n // 2), (0, n // 2)]
    for u, v in pairs:
        expected = deleted[u] == deleted[v]
        assert are_cospectral(g, u, v, basis) == expected
        assert are_cospectral(g, u, v, basis, report) == expected
    walk_regular = all(p == deleted[0] for p in deleted)
    assert is_walk_regular(g, basis) == walk_regular
    assert is_walk_regular(g, basis, report) == walk_regular


def _family_corpus():
    graphs = [cycle_graph(n) for n in (3, 6, 9, 14)]
    graphs += [path_graph(n) for n in (1, 2, 5, 8)]
    graphs += [complete_graph(n) for n in (1, 2, 5)]
    graphs += [circulant_graph(10, (1, 3)), circulant_graph(12, (2, 5))]
    graphs += [
        WeightedGraph.from_weights(cyclotomic_scheme(q, d)[1].numerators)
        for q, d in ((13, 2), (13, 3), (17, 2))
    ]
    return graphs + [complement(g) for g in graphs]


@pytest.mark.parametrize("basis", ["adjacency", "laplacian"])
def test_cospectrality_without_a_report_matches_the_report(basis):
    seen = set()
    for g in _family_corpus():
        report = average_mixing(matrix_of(g, basis))
        walk_regular = is_walk_regular(g, basis)
        assert walk_regular == is_walk_regular(g, basis, report)
        seen.add(walk_regular)
        pairs = {(0, v) for v in range(g.n)} | {(v, g.n - 1) for v in range(g.n)}
        for u, v in sorted(pairs):
            assert are_cospectral(g, u, v, basis) == are_cospectral(
                g, u, v, basis, report
            )
    # paths with n >= 3 and their complements are the only ones that are
    # not vertex-transitive
    assert seen == {True, False}


def test_cospectrality_rejects_a_report_of_another_order():
    report = average_mixing(matrix_of(path_graph(3)))
    with pytest.raises(ValueError, match="report order"):
        are_cospectral(path_graph(4), 0, 3, report=report)
    with pytest.raises(ValueError, match="report order"):
        is_walk_regular(path_graph(4), report=report)


def test_all_strongly_cospectral_only_tiny():
    assert all_strongly_cospectral_check(path_graph(1))
    assert all_strongly_cospectral_check(path_graph(2))
    assert not all_strongly_cospectral_check(path_graph(3))
    assert not all_strongly_cospectral_check(complete_graph(3))
    assert not all_strongly_cospectral_check(cycle_graph(5))


# ---------------------------------------------------------------------------
# transfer gate
# ---------------------------------------------------------------------------


def test_pst_gate_path_ends_candidate():
    verdict = pst_necessary(path_graph(3), 0, 2)
    assert verdict.status is PstStatus.CANDIDATE
    assert verdict.reason is None
    assert not verdict.no_pst_anywhere


def test_pst_gate_blocked_pair_with_reason():
    verdict = pst_necessary(path_graph(3), 0, 1)
    assert verdict.status is PstStatus.BLOCKED
    assert "strongly cospectral" in verdict.reason


def test_pst_gate_global_obstruction_on_c5():
    verdict = pst_necessary(cycle_graph(5), 0, 1)
    assert verdict.status is PstStatus.BLOCKED
    assert verdict.no_pst_anywhere


def test_pst_gate_p2():
    verdict = pst_necessary(path_graph(2), 0, 1)
    assert verdict.status is PstStatus.CANDIDATE


def test_pst_gate_validation():
    with pytest.raises(ValueError):
        pst_necessary(path_graph(3), 1, 1)
    with pytest.raises(IndexError):
        pst_necessary(path_graph(3), 0, 5)


def test_pst_gate_and_closed_form_reuse_a_report():
    g = path_graph(5)
    report = average_mixing(matrix_of(g))
    for u, v in [(0, 4), (0, 1)]:
        assert pst_necessary(g, u, v, report=report) == pst_necessary(g, u, v)
    assert verify_closed_form(ClosedForm("path_adjacency", 5), report=report)
    odd = average_mixing(matrix_of(cycle_graph(5)))
    assert not verify_closed_form(ClosedForm("path_adjacency", 5), report=odd)
    other = average_mixing(matrix_of(path_graph(4)))
    with pytest.raises(ValueError):
        pst_necessary(g, 0, 1, report=other)
    with pytest.raises(ValueError):
        verify_closed_form(ClosedForm("path_adjacency", 5), report=other)


# ---------------------------------------------------------------------------
# span classification
# ---------------------------------------------------------------------------


def test_span_classes_of_known_graphs():
    assert ij_span_check(average_mixing(matrix_of(cycle_graph(5)))) is SpanClass.IJ
    assert ij_span_check(average_mixing(matrix_of(complete_graph(3)))) is SpanClass.IJ
    assert ij_span_check(average_mixing(matrix_of(path_graph(2)))) is SpanClass.IJ
    assert ij_span_check(average_mixing(matrix_of(path_graph(4)))) is SpanClass.IJT
    assert ij_span_check(average_mixing(matrix_of(path_graph(6)))) is SpanClass.IJT


def test_span_class_other_for_end_loop_path():
    g = add_loops(path_graph(6), {0: 2, 5: 2})
    assert ij_span_check(average_mixing(matrix_of(g))) is SpanClass.OTHER


def test_span_class_even_cycle_is_other():
    # the antipodal permutation is never the reversal, so even cycles
    # leave span{I, J, T}
    assert ij_span_check(average_mixing(matrix_of(cycle_graph(4)))) is SpanClass.OTHER
    assert ij_span_check(average_mixing(matrix_of(cycle_graph(6)))) is SpanClass.OTHER


# ---------------------------------------------------------------------------
# trigonometric idempotent oracles
# ---------------------------------------------------------------------------


def path_idempotent_oracle(n, r):
    """Numeric adjacency idempotent of the path: eigenvalue 2cos(r pi/(n+1)).

    Entries (2/(n+1)) sin((j+1) r pi/(n+1)) sin((k+1) r pi/(n+1)) with
    0-based j, k; valid for r = 1..n.
    """
    if not 1 <= r <= n:
        raise ValueError("path idempotent index must satisfy 1 <= r <= n")
    angles = np.array(
        [np.sin((j + 1) * r * np.pi / (n + 1)) for j in range(n)]
    )
    return (2.0 / (n + 1)) * np.outer(angles, angles)


def path_laplacian_idempotent_oracle(n, r):
    """Numeric Laplacian idempotent of the path: eigenvalue 4 sin^2(r pi/(2n)).

    r = 0 gives the constant idempotent J/n; for r = 1..n-1 the entries
    are (2/n) cos((2j+1) r pi/(2n)) cos((2k+1) r pi/(2n)) with 0-based j, k.
    """
    if not 0 <= r <= n - 1:
        raise ValueError("Laplacian idempotent index must satisfy 0 <= r <= n-1")
    if r == 0:
        return np.full((n, n), 1.0 / n)
    angles = np.array(
        [np.cos((2 * j + 1) * r * np.pi / (2 * n)) for j in range(n)]
    )
    return (2.0 / n) * np.outer(angles, angles)



@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_path_oracle_matches_spectral_decomposition(n):
    d = spectral_decomposition(matrix_of(path_graph(n)))
    for r in range(1, n + 1):
        expected_value = 2 * np.cos(r * np.pi / (n + 1))
        hits = [
            i
            for i, value in enumerate(d.eigenvalues)
            if abs(value - expected_value) < 1e-8
        ]
        assert len(hits) == 1
        oracle = path_idempotent_oracle(n, r)
        assert np.allclose(d.projectors[hits[0]], oracle, atol=1e-8)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_path_laplacian_oracle_matches_spectral_decomposition(n):
    d = spectral_decomposition(matrix_of(path_graph(n), "laplacian"))
    for r in range(n):
        expected_value = 4 * np.sin(r * np.pi / (2 * n)) ** 2
        hits = [
            i
            for i, value in enumerate(d.eigenvalues)
            if abs(value - expected_value) < 1e-8
        ]
        assert len(hits) == 1
        oracle = path_laplacian_idempotent_oracle(n, r)
        assert np.allclose(d.projectors[hits[0]], oracle, atol=1e-8)


def test_path_oracles_resum_to_mixing():
    n = 7
    exact = average_mixing(matrix_of(path_graph(n))).mixing.to_float()
    resummed = sum(path_idempotent_oracle(n, r) ** 2 for r in range(1, n + 1))
    assert np.allclose(resummed, exact, atol=1e-8)
    lap_exact = average_mixing(matrix_of(path_graph(n), "laplacian"))
    lap_resummed = sum(
        path_laplacian_idempotent_oracle(n, r) ** 2 for r in range(n)
    )
    assert np.allclose(lap_resummed, lap_exact.mixing.to_float(), atol=1e-8)


def test_oracle_index_validation():
    with pytest.raises(ValueError):
        path_idempotent_oracle(4, 0)
    with pytest.raises(ValueError):
        path_idempotent_oracle(4, 5)
    with pytest.raises(ValueError):
        path_laplacian_idempotent_oracle(4, 4)
    with pytest.raises(ValueError):
        path_laplacian_idempotent_oracle(4, -1)


# ---------------------------------------------------------------------------
# randomized coherence
# ---------------------------------------------------------------------------


def _random_graphs(seed, choices):
    """Ten graphs on 2..7 vertices, each edge weight drawn from choices."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(10):
        n = rng.randint(2, 7)
        weights = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.choice(choices)
                weights[i][j] = weights[j][i] = w
        graphs.append(WeightedGraph.from_weights(weights))
    return graphs


def test_cospectrality_is_an_equivalence_on_random_graphs():
    for g in _random_graphs(77, [0, 0, 1, 1, 2]):
        n = g.n
        related = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if are_cospectral(g, u, v)
        ]
        # symmetry and reflexivity of the relation
        assert all((v, u) in related for (u, v) in related)
        assert all((u, u) in related for u in range(n))


def test_strong_cospectrality_implies_cospectrality_randomized():
    for g in _random_graphs(78, [0, 1, 1]):
        n = g.n
        report = average_mixing(matrix_of(g))
        for u in range(n):
            for v in range(u + 1, n):
                if are_strongly_cospectral(g, u, v, report):
                    assert are_cospectral(g, u, v)


@pytest.mark.parametrize("basis", ["adjacency", "laplacian"])
def test_trace_of_mhat_bounds_the_squared_multiplicities(basis):
    # tr Phi(M, y) = psi phi' / phi, so g = sum_u f_uu has
    # (g w)(theta_r) = tr E_r = m_r, and the trace form of (g, g) is
    # sum_r m_r^2.  Cauchy-Schwarz on the diagonal of each E_r gives
    # n tr Mhat >= sum_r m_r^2, with equality exactly when every E_r has
    # a constant diagonal, that is, when the graph is walk-regular
    seen = set()
    graphs = _family_corpus() + _random_graphs(77, [0, 0, 1, 1, 2])
    for g in graphs + _random_graphs(78, [0, 1, 1]):
        rows = basis_rows(g, basis)
        form = _trace_form(rows)
        trace = tuple(map(sum, zip(*form.resolvent.diagonals())))
        squares = Fraction(_TraceTable(form.tau)[trace, trace], form.denom)
        multiplicities = spectral_decomposition(rows).multiplicities
        assert squares == sum(m * m for m in multiplicities)
        report = average_mixing(matrix_of(g, basis))
        mhat_trace = sum(report.mixing[u, u] for u in range(g.n))
        walk_regular = is_walk_regular(g, basis, report)
        assert g.n * mhat_trace >= squares
        assert (g.n * mhat_trace == squares) == walk_regular
        seen.add(walk_regular)
    assert seen == {True, False}
