"""Tests for the exact average mixing pipeline.

The weighted-path example (P6 with weight-2 loops on both ends) is the
main frozen golden value: its mixing matrix has every entry over the
denominator 1926 = 2 * 9 * 107 and its characteristic discriminant is
2^6 * 3^5 * 107, so the integrality certificates are exercised with
nontrivial numbers.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from avgmix.exact import ExactMatrix, ExactPolynomial
from avgmix.graphs import (
    WeightedGraph,
    add_loops,
    complete_graph,
    cycle_graph,
    matrix_of,
    path_graph,
)
from avgmix.mixing import (
    _certify,
    _check_mixing_invariants,
    average_mixing,
    certify_integrality,
    minpoly_integrality_counterexamples,
    strong_cospectral_kernel,
)

F = Fraction

GOLDEN_P6_NUMERATORS = [
    [599, 218, 146, 146, 218, 599],
    [218, 455, 290, 290, 455, 218],
    [146, 290, 527, 527, 290, 146],
    [146, 290, 527, 527, 290, 146],
    [218, 455, 290, 290, 455, 218],
    [599, 218, 146, 146, 218, 599],
]


def golden_p6_matrix():
    return ExactMatrix(
        [[F(x, 1926) for x in row] for row in GOLDEN_P6_NUMERATORS]
    )


def looped_p6():
    return add_loops(path_graph(6), {0: 2, 5: 2})


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return ExactMatrix(rows)


def random_weighted_graph(rng, n, wmax):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = rng.randint(1, wmax)
    return WeightedGraph.from_weights(rows)


def literal_trace_mixing(m):
    """sum_r E_r o E_r entry by entry through Q[y]/(psi): the rational
    reference route of `tests/reference.py`, independent of the engine."""
    return ExactMatrix(reference.mixing(m.to_lists()))


def _symmetric_from_upper(n, xs):
    it = iter(xs)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return ExactMatrix(rows)


symmetric_integer_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.integers(-5, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(lambda xs: _symmetric_from_upper(n, xs))
)


@settings(max_examples=40, deadline=None)
@given(symmetric_integer_matrices)
def test_integer_engine_matches_rational_reference(m):
    assert average_mixing(m).mixing == literal_trace_mixing(m)


class TestKnownValues:
    def test_single_vertex(self):
        r = average_mixing(ExactMatrix([[0]]))
        assert r.mixing == ExactMatrix([[1]])
        assert r.min_poly == ExactPolynomial([0, 1])
        assert r.common_denominator == 1

    def test_single_vertex_with_loop(self):
        r = average_mixing(ExactMatrix([[7]]))
        assert r.mixing == ExactMatrix([[1]])

    def test_p2(self):
        r = average_mixing(matrix_of(path_graph(2)))
        assert r.mixing == ExactMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert r.simple_spectrum
        assert r.common_denominator == 2

    def test_k3(self):
        r = average_mixing(matrix_of(complete_graph(3)))
        expected = ExactMatrix(
            [
                [F(5, 9), F(2, 9), F(2, 9)],
                [F(2, 9), F(5, 9), F(2, 9)],
                [F(2, 9), F(2, 9), F(5, 9)],
            ]
        )
        assert r.mixing == expected
        assert not r.simple_spectrum
        assert r.min_poly == ExactPolynomial([-2, -1, 1])
        assert r.disc_min == 9

    def test_c5(self):
        r = average_mixing(matrix_of(cycle_graph(5)))
        for u in range(5):
            for v in range(5):
                expected = F(4, 25) + (F(1, 5) if u == v else 0)
                assert r.mixing[u, v] == expected

    def test_zero_matrix(self):
        r = average_mixing(ExactMatrix([[0] * 4] * 4))
        assert r.mixing == ExactMatrix.identity(4)
        assert r.min_poly == ExactPolynomial([0, 1])

    def test_golden_p6(self):
        r = average_mixing(matrix_of(looped_p6()))
        assert r.mixing == golden_p6_matrix()
        assert r.common_denominator == 1926
        assert r.simple_spectrum

    def test_golden_p6_discriminant(self):
        r = average_mixing(matrix_of(looped_p6()))
        assert r.disc_char == 2**6 * 3**5 * 107
        assert r.disc_min == r.disc_char
        assert F(int(r.disc_char), 1926) == 864


class TestValidation:
    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            average_mixing(ExactMatrix([[0, 1], [0, 0]]))

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            average_mixing(ExactMatrix([[0, F(1, 2)], [F(1, 2), 0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            average_mixing(ExactMatrix([[0, 1]]))


class TestCertificates:
    def test_golden_certificates(self):
        r = average_mixing(matrix_of(looped_p6()))
        certs = certify_integrality(r)
        assert certs.d2_integral
        assert certs.d_integral_simple
        # disc/denominator = 864 exactly, so D * Mhat is integral
        assert certs.d_integral_minpoly

    def test_k3_certificates(self):
        r = average_mixing(matrix_of(complete_graph(3)))
        certs = r.certificates
        assert certs.d2_integral  # 81 clears denominator 9
        assert certs.d_integral_simple  # vacuous: repeated spectrum
        assert certs.d_integral_minpoly  # observed: 9 clears 9

    def test_search_harness_runs(self):
        mats = [
            matrix_of(complete_graph(n)) for n in (2, 3, 4, 5)
        ]
        assert minpoly_integrality_counterexamples(mats) == []


class TestStrongCospectralKernel:
    def test_path_ends(self):
        r = average_mixing(matrix_of(path_graph(3)))
        assert strong_cospectral_kernel(r, 0, 2)
        assert not strong_cospectral_kernel(r, 0, 1)

    def test_c5_none(self):
        r = average_mixing(matrix_of(cycle_graph(5)))
        assert not strong_cospectral_kernel(r, 0, 1)
        assert not strong_cospectral_kernel(r, 0, 2)

    def test_validation(self):
        r = average_mixing(matrix_of(path_graph(3)))
        with pytest.raises(ValueError):
            strong_cospectral_kernel(r, 1, 1)
        with pytest.raises(IndexError):
            strong_cospectral_kernel(r, 0, 3)


class TestInvariants:
    def test_hard_checks_raise_on_broken_numerators(self):
        # numerator tables over one denominator, as the engine checks them
        _check_mixing_invariants([[1, 1], [1, 1]], 2)
        for table in ([[3, -1], [-1, 3]], [[1, 1], [1, 2]], [[1, 1], [0, 2]]):
            with pytest.raises(AssertionError):
                _check_mixing_invariants(table, 2)
        assert _certify(4, 2, 2, False).d2_integral
        with pytest.raises(AssertionError):
            _certify(8, 2, 2, True)  # D^2 = 4 does not clear 8
        with pytest.raises(AssertionError):
            _certify(4, 2, 6, True)  # D_char = 6 does not clear 4
        assert not _certify(4, 2, 0, False).d_integral_minpoly

    def test_row_sums_symmetry_nonnegativity(self):
        rng = random.Random(51)
        for _ in range(12):
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n)
            r = average_mixing(m)
            assert r.mixing.is_symmetric()
            assert all(s == 1 for s in r.mixing.row_sums())
            assert all(x >= 0 for x in r.mixing.entries())
            assert r.simple_spectrum == (r.disc_char != 0)
            rows = m.to_lists()
            assert r.char_poly.coeffs == tuple(reference.char_poly(rows))
            assert list(r.min_poly.coeffs) == reference.squarefree(r.char_poly.coeffs)
            psi = r.min_poly.coeffs
            at_m = reference.combine(psi, reference.powers(rows, len(psi)))
            assert not any(map(any, at_m))

    def test_matches_literal_trace_formula(self):
        # the production path precomputes the trace form over one integer
        # denominator; re-derive every entry with the rational reference
        # (Euclid inverse, multiplication-matrix traces) and compare exactly
        rng = random.Random(53)
        cases = [random_symmetric(rng, rng.randint(2, 5)) for _ in range(6)]
        for n in (6, 7, 8):
            g = random_weighted_graph(rng, n, wmax=5)
            cases.append(matrix_of(add_loops(g, {0: rng.randint(1, 5)})))
            cases.append(matrix_of(g, "laplacian"))
        # repeated spectra, both bases
        cases += [matrix_of(cycle_graph(n)) for n in (6, 7, 8)]
        cases += [matrix_of(cycle_graph(8), "laplacian")]
        cases += [matrix_of(complete_graph(n)) for n in (4, 5)]
        cases += [matrix_of(complete_graph(6), "laplacian")]
        # deg psi = 1: a single vertex and an empty graph
        cases += [ExactMatrix([[3]]), ExactMatrix([[0] * 5] * 5)]
        for m in cases:
            assert average_mixing(m).mixing == literal_trace_mixing(m)

    def test_matches_numeric_oracle(self):
        rng = random.Random(57)
        for _ in range(10):
            n = rng.randint(2, 8)
            m = random_symmetric(rng, n)
            r = average_mixing(m)
            eigs, vecs = np.linalg.eigh(np.array(m.to_float()))
            clusters = []
            for idx, lam in enumerate(eigs):
                if clusters and abs(lam - clusters[-1][0]) < 1e-8:
                    clusters[-1][1].append(idx)
                else:
                    clusters.append([lam, [idx]])
            assert len(clusters) == r.min_poly.degree
            numeric = np.zeros((n, n))
            for _, idxs in clusters:
                v = vecs[:, idxs]
                proj = v @ v.T
                numeric += proj * proj
            exact = np.array(r.mixing.to_float())
            assert np.abs(exact - numeric).max() < 1e-8

    def test_disconnected_zeros(self):
        rows = [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 2],
            [0, 0, 2, 0],
        ]
        r = average_mixing(ExactMatrix(rows))
        for u in (0, 1):
            for v in (2, 3):
                assert r.mixing[u, v] == 0

    def test_performance_golden(self):
        start = time.perf_counter()
        average_mixing(matrix_of(looped_p6()))
        assert time.perf_counter() - start < 1.0
