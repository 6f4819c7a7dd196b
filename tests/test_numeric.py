"""Tests for the numeric spectral route."""

import random

import numpy as np
import pytest

from avgmix.exact import ExactMatrix
from avgmix.graphs import complete_graph, cycle_graph, matrix_of, path_graph
from avgmix.mixing import average_mixing
from avgmix.numeric import (
    ClusteringError,
    average_upto,
    eigenvalue_range,
    expect_cluster_count,
    mixing_at,
    numeric_avg_mixing,
    spectral_decomposition,
    transition_matrix,
)


def decompose(graph, basis="adjacency"):
    return spectral_decomposition(matrix_of(graph, basis))


class TestSpectralDecomposition:
    def test_p2(self):
        d = decompose(path_graph(2))
        assert np.allclose(d.eigenvalues, [-1.0, 1.0])
        half = np.full((2, 2), 0.5)
        swapdiff = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(d.projectors[0], swapdiff, atol=1e-12)
        assert np.allclose(d.projectors[1], half, atol=1e-12)

    def test_k3_clusters(self):
        d = decompose(complete_graph(3))
        assert len(d.eigenvalues) == 2
        assert np.allclose(d.eigenvalues, [-1.0, 2.0])
        assert d.multiplicities == (2, 1)
        j3 = np.full((3, 3), 1.0 / 3.0)
        assert np.allclose(d.projectors[1], j3, atol=1e-10)
        assert np.allclose(d.projectors[0], np.eye(3) - j3, atol=1e-10)

    def test_p3_eigenvalues(self):
        d = decompose(path_graph(3))
        expected = [-np.sqrt(2), 0.0, np.sqrt(2)]
        assert np.allclose(d.eigenvalues, expected, atol=1e-12)

    def test_projector_identities(self):
        rng = random.Random(61)
        for _ in range(8):
            n = rng.randint(2, 9)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            m = ExactMatrix(rows)
            d = spectral_decomposition(m)
            total = sum(d.projectors)
            assert np.abs(total - np.eye(n)).max() < 1e-9
            recon = sum(
                lam * proj for lam, proj in zip(d.eigenvalues, d.projectors)
            )
            assert np.abs(recon - np.array(m.to_float())).max() < 1e-8
            for r, pr in enumerate(d.projectors):
                for s, ps in enumerate(d.projectors):
                    product = pr @ ps
                    expected = pr if r == s else np.zeros((n, n))
                    assert np.abs(product - expected).max() < 1e-8

    def test_cluster_count_cross_check(self):
        d = decompose(complete_graph(4))
        expect_cluster_count(d, 2)
        with pytest.raises(ClusteringError):
            expect_cluster_count(d, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral_decomposition(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            spectral_decomposition(np.eye(2), tol=0.0)


class TestEigenvalueRange:
    def test_rejects_near_symmetric_large_entries(self):
        # a relative tolerance would pass an off-by-one of 1e6
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalue_range([[0.0, 1e6], [1e6 + 1, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_decomposition([[0.0, 1e6], [1e6 + 1, 0.0]])

    def test_rejects_non_square_exact_matrix(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        for m in (ExactMatrix(rows), rows):
            with pytest.raises(ValueError, match="square"):
                eigenvalue_range(m)
            with pytest.raises(ValueError, match="square"):
                spectral_decomposition(m)


class TestTransition:
    def test_t_zero(self):
        d = decompose(path_graph(4))
        assert np.abs(transition_matrix(d, 0.0) - np.eye(4)).max() < 1e-12

    def test_p2_quarter_period(self):
        d = decompose(path_graph(2))
        u = transition_matrix(d, np.pi / 2)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.abs(u - 1j * swap).max() < 1e-12

    def test_p2_no_transfer_at_pi(self):
        d = decompose(path_graph(2))
        u = transition_matrix(d, np.pi)
        assert abs(u[0, 1]) < 1e-12

    def test_unitary(self):
        d = decompose(cycle_graph(6))
        for t in (0.3, 1.7, 12.0):
            u = transition_matrix(d, t)
            assert np.abs(u @ u.conj().T - np.eye(6)).max() < 1e-10


class TestMixingAt:
    def test_t_zero_identity(self):
        d = decompose(cycle_graph(5))
        assert np.abs(mixing_at(d, 0.0) - np.eye(5)).max() < 1e-12

    def test_p2_uniform(self):
        d = decompose(path_graph(2))
        assert np.abs(mixing_at(d, np.pi / 4) - 0.5).max() < 1e-12

    def test_matches_entrywise_modulus(self):
        d = decompose(path_graph(5))
        for t in (0.4, 2.9, 17.3):
            u = transition_matrix(d, t)
            direct = np.abs(u) ** 2
            assert np.abs(mixing_at(d, t) - direct).max() < 1e-10

    def test_doubly_stochastic_and_nonnegative(self):
        rng = random.Random(67)
        graphs = [path_graph(4), cycle_graph(7), complete_graph(5)]
        for g in graphs:
            d = decompose(g)
            for _ in range(20):
                t = rng.random() * 100.0
                m = mixing_at(d, t)
                assert m.min() > -1e-10
                assert np.abs(m.sum(axis=0) - 1).max() < 1e-8
                assert np.abs(m.sum(axis=1) - 1).max() < 1e-8
                # I - M(t) is positive semidefinite
                assert np.linalg.eigvalsh(np.eye(g.n) - m).min() > -1e-8


class TestAverageUpto:
    def test_k1(self):
        d = spectral_decomposition(np.zeros((1, 1)))
        assert np.allclose(average_upto(d, 5.0), [[1.0]])

    def test_c5_converges_to_exact(self):
        exact = np.array(
            average_mixing(matrix_of(cycle_graph(5))).mixing.to_float()
        )
        d = decompose(cycle_graph(5))
        avg = average_upto(d, 1e6)
        assert np.abs(avg - exact).max() < 1e-5

    def test_rate_is_one_over_t(self):
        exact = np.array(
            average_mixing(matrix_of(cycle_graph(5))).mixing.to_float()
        )
        d = decompose(cycle_graph(5))
        err3 = np.abs(average_upto(d, 1e3) - exact).max()
        err4 = np.abs(average_upto(d, 1e4) - exact).max()
        assert err3 <= 2e-3
        assert err4 <= err3 / 8.0

    def test_positive_horizon_required(self):
        d = decompose(path_graph(2))
        with pytest.raises(ValueError):
            average_upto(d, 0.0)


class TestNumericAvgMixing:
    def test_matches_exact_small(self):
        rng = random.Random(71)
        for _ in range(8):
            n = rng.randint(2, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            m = ExactMatrix(rows)
            report = average_mixing(m)
            d = spectral_decomposition(m)
            expect_cluster_count(d, report.min_poly.degree)
            numeric = numeric_avg_mixing(d)
            exact = np.array(report.mixing.to_float())
            assert np.abs(numeric - exact).max() < 1e-8
