"""Tests for the exact arithmetic kernels.

Expected values here are either worked out by hand or checked against an
independent route (numpy eigenvalues, Sylvester determinants, direct
matrix evaluation); the two routes must agree before anything downstream
is trusted.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgmix.exact import (
    ExactMatrix,
    ExactPolynomial,
    NonInvertibleError,
    NotAnnihilatingError,
    char_poly,
    compose_mod,
    discriminant,
    inverse_mod,
    matrix_in_span,
    poly_gcd,
    power_sums,
    resolvent_coeffs,
    squarefree_part,
    trace_mod,
    _charpoly_int,
    _int_resultant,
    _int_scaled_inverse,
)

F = Fraction


def poly(*ascending):
    return ExactPolynomial(ascending)


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            w = rng.randint(lo, hi)
            rows[i][j] = w
            rows[j][i] = w
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class TestExactMatrix:
    def test_constructor_normalizes(self):
        m = ExactMatrix([[F(2, 4), 1], [1, 0]])
        assert m[0, 0] == F(1, 2)
        assert m[0, 0].denominator == 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [3]])

    def test_arithmetic(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        b = ExactMatrix([[0, 1], [1, 0]])
        assert a * b == ExactMatrix([[2, 1], [4, 3]])
        assert a + b - b == a
        assert (a * F(1, 2))[1, 1] == 2
        assert 2 * b == ExactMatrix([[0, 2], [2, 0]])

    def test_transpose_and_symmetry(self):
        a = ExactMatrix([[1, 2], [2, 5]])
        assert a.is_symmetric()
        b = ExactMatrix([[1, 2], [3, 5]])
        assert not b.is_symmetric()
        assert b.transpose() == ExactMatrix([[1, 3], [2, 5]])

    def test_determinant(self):
        assert ExactMatrix([[2]]).determinant() == 2
        assert ExactMatrix([[1, 2], [3, 4]]).determinant() == -2
        assert ExactMatrix([[1, 2], [2, 4]]).determinant() == 0
        rng = random.Random(7)
        for _ in range(10):
            m = random_symmetric(rng, 4)
            exact = float(m.determinant())
            approx = np.linalg.det(np.array(m.to_float()))
            assert abs(exact - approx) < 1e-6

    def test_leading_principal_minors(self):
        m = ExactMatrix([[2, 1], [1, 2]])
        assert m.leading_principal_minors() == (F(2), F(3))

    def test_deleted(self):
        m = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.deleted(1) == ExactMatrix([[1, 3], [7, 9]])
        with pytest.raises(IndexError):
            m.deleted(3)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class TestExactPolynomial:
    def test_trailing_zeros_stripped(self):
        p = poly(1, 2, 0, 0)
        assert p.degree == 1
        assert poly(0, 0).is_zero()
        assert ExactPolynomial.zero().degree == -1

    def test_arithmetic(self):
        p = poly(-1, 0, 1)  # x^2 - 1
        q = poly(1, 1)  # x + 1
        assert p % q == ExactPolynomial.zero()
        assert p // q == poly(-1, 1)
        assert q * poly(-1, 1) == p
        assert (p + q).coeffs == (F(0), F(1), F(1))

    def test_divmod_remainder(self):
        p = poly(1, 0, 0, 1)  # x^3 + 1
        d = poly(-2, 1)  # x - 2
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree == 0
        assert r.coeff(0) == 9  # p(2)

    def test_eval(self):
        p = poly(-2, 0, 1)
        assert p(2) == 2
        assert p(F(1, 2)) == F(-7, 4)

    def test_derivative(self):
        assert poly(5, 3, 1).derivative() == poly(3, 2)
        assert poly(7).derivative().is_zero()

    def test_at_matrix(self):
        a = ExactMatrix([[0, 1], [1, 0]])
        p = poly(-1, 0, 1)  # char poly of the swap
        assert p.at_matrix(a).is_zero()


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


class TestCharPoly:
    def test_p2(self):
        a = ExactMatrix([[0, 1], [1, 0]])
        assert char_poly(a) == poly(-1, 0, 1)

    def test_k3(self):
        j_minus_i = ExactMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        # roots 2, -1, -1
        assert char_poly(j_minus_i) == poly(-2, -3, 0, 1)

    def test_one_by_one(self):
        assert char_poly(ExactMatrix([[0]])) == poly(0, 1)
        assert char_poly(ExactMatrix([[5]])) == poly(-5, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(ExactMatrix([[1, 2]]))

    def test_rational_entries(self):
        m = ExactMatrix([[F(1, 2), 0], [0, F(1, 3)]])
        p = char_poly(m)
        assert p == poly(F(1, 6), F(-5, 6), 1)

    def test_cayley_hamilton_random(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n)
            p = char_poly(m)
            assert p.degree == n and p.is_monic()
            assert p.at_matrix(m).is_zero()

    def test_matches_numpy_eigenvalues(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 7)
            m = random_symmetric(rng, n)
            p = char_poly(m)
            eigs = np.linalg.eigvalsh(np.array(m.to_float()))
            approx = np.poly(eigs)  # descending coefficients
            exact = [float(p.coeff(n - i)) for i in range(n + 1)]
            assert np.allclose(exact, approx, atol=1e-6)

    def test_asymmetric_supported(self):
        m = ExactMatrix([[0, 1], [0, 0]])
        assert char_poly(m) == poly(0, 0, 1)


square_integer_rows = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=60, deadline=None)
@given(square_integer_rows, st.lists(st.integers(-20, 20), min_size=1, max_size=4))
def test_charpoly_int_matches_determinant(rows, points):
    # no symmetry assumed; det(xI - M) by rational elimination is the reference
    coeffs = _charpoly_int(rows)
    n = len(rows)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    for x in points:
        shifted = ExactMatrix(
            [[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        )
        assert sum(c * x**k for k, c in enumerate(coeffs)) == shifted.determinant()


# ---------------------------------------------------------------------------
# squarefree parts and discriminants
# ---------------------------------------------------------------------------


class TestSquarefreeAndDiscriminant:
    def test_examples(self):
        # x^2 (x - 1) -> x (x - 1)
        assert squarefree_part(poly(0, 0, -1, 1)) == poly(0, -1, 1)
        # (x - 2)(x + 1)^2 -> (x - 2)(x + 1)
        assert squarefree_part(poly(-2, -3, 0, 1)) == poly(-2, -1, 1)
        assert squarefree_part(poly(-2, 0, 1)) == poly(-2, 0, 1)
        assert squarefree_part(poly(7)) == ExactPolynomial.one()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(ExactPolynomial.zero())

    def test_result_monic_squarefree(self):
        rng = random.Random(17)
        for _ in range(25):
            deg = rng.randint(1, 6)
            p = ExactPolynomial(
                [rng.randint(-4, 4) for _ in range(deg)] + [1]
            )
            sf = squarefree_part(p)
            assert sf.is_monic()
            assert discriminant(sf) != 0
            # same roots: sf divides p and p divides sf^deg
            assert p % sf == ExactPolynomial.zero()

    def test_discriminant_values(self):
        assert discriminant(poly(-1, 0, 1)) == 4
        assert discriminant(poly(0, 0, 1)) == 0
        assert discriminant(poly(3, 1)) == 1
        # b^2 - 4ac for a general quadratic
        assert discriminant(poly(-1, 1, 2)) == 9

    def test_discriminant_constant_rejected(self):
        with pytest.raises(ValueError):
            discriminant(poly(3))

    def test_discriminant_iff_gcd(self):
        rng = random.Random(19)
        for _ in range(40):
            deg = rng.randint(1, 6)
            p = ExactPolynomial(
                [rng.randint(-3, 3) for _ in range(deg)] + [rng.randint(1, 3)]
            )
            g = poly_gcd(p, p.derivative())
            assert (discriminant(p) == 0) == (g.degree > 0)

    def test_resultant_matches_sylvester(self):
        def sylvester_resultant(p, q):
            n, m = p.degree, q.degree
            size = n + m
            rows = []
            for i in range(m):
                row = [0] * size
                for k in range(n + 1):
                    row[i + k] = p.coeff(n - k)
                rows.append(row)
            for i in range(n):
                row = [0] * size
                for k in range(m + 1):
                    row[i + k] = q.coeff(m - k)
                rows.append(row)
            return ExactMatrix(rows).determinant()

        rng = random.Random(23)
        for _ in range(30):
            dp = rng.randint(1, 5)
            dq = rng.randint(1, 5)
            p = ExactPolynomial(
                [rng.randint(-4, 4) for _ in range(dp)] + [rng.randint(1, 4)]
            )
            q = ExactPolynomial(
                [rng.randint(-4, 4) for _ in range(dq)] + [rng.randint(1, 4)]
            )
            via_prs = _int_resultant(
                [int(c) for c in p.coeffs], [int(c) for c in q.coeffs]
            )
            assert via_prs == sylvester_resultant(p, q)


# ---------------------------------------------------------------------------
# modular arithmetic: inverses, power sums, traces
# ---------------------------------------------------------------------------


class TestModular:
    def test_inverse_mod_example(self):
        w = inverse_mod(poly(0, 1), poly(-2, 0, 1))
        assert w == poly(0, F(1, 2))
        assert (poly(0, 1) * w) % poly(-2, 0, 1) == ExactPolynomial.one()

    def test_inverse_of_one(self):
        assert inverse_mod(ExactPolynomial.one(), poly(-2, 0, 1)) == (
            ExactPolynomial.one()
        )

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleError):
            inverse_mod(poly(0, 1), poly(0, 0, 1))  # x mod x^2
        with pytest.raises(NonInvertibleError):
            inverse_mod(ExactPolynomial.zero(), poly(-2, 0, 1))

    def test_inverse_random(self):
        rng = random.Random(29)
        for _ in range(20):
            deg = rng.randint(1, 7)
            m = ExactPolynomial(
                [rng.randint(-5, 5) for _ in range(deg)] + [1]
            )
            a = ExactPolynomial([rng.randint(-5, 5) for _ in range(deg)])
            if a.is_zero():
                continue
            if poly_gcd(a, m).degree > 0:
                with pytest.raises(NonInvertibleError):
                    inverse_mod(a, m)
                continue
            w = inverse_mod(a, m)
            assert (a * w) % m == ExactPolynomial.one()
            assert w.degree < m.degree

    def test_scaled_inverse_matches_inverse_mod(self):
        # t / d is the inverse, d = +-Res(psi, a), and a shared factor raises
        rng = random.Random(31)
        for _ in range(40):
            deg = rng.randint(1, 7)
            psi = [rng.randint(-5, 5) for _ in range(deg)] + [1]
            a = [rng.randint(-5, 5) for _ in range(rng.randint(1, deg))]
            if not any(a):
                continue
            if poly_gcd(ExactPolynomial(a), ExactPolynomial(psi)).degree > 0:
                with pytest.raises(NonInvertibleError):
                    _int_scaled_inverse(psi, a)
                continue
            t, d = _int_scaled_inverse(psi, a)
            assert abs(d) == abs(_int_resultant(psi, a))
            w = inverse_mod(ExactPolynomial(a), ExactPolynomial(psi))
            assert ExactPolynomial([F(c, d) for c in t]) == w

    def test_power_sums_examples(self):
        assert power_sums(poly(-1, 0, 1), 2) == [2, 0, 2]
        assert power_sums(poly(-2, -1, 1), 2) == [2, 1, 5]
        assert power_sums(poly(-3, 1), 3) == [1, 3, 9, 27]

    def test_power_sums_requires_monic(self):
        with pytest.raises(ValueError):
            power_sums(poly(-1, 2), 2)

    def test_power_sums_match_numeric_roots(self):
        rng = random.Random(31)
        for _ in range(20):
            deg = rng.randint(1, 8)
            p = ExactPolynomial(
                [rng.randint(-5, 5) for _ in range(deg)] + [1]
            )
            roots = np.roots([1.0] + [float(p.coeff(deg - 1 - i)) for i in range(deg)])
            sums = power_sums(p, 6)
            for k in range(7):
                numeric = np.sum(roots**k)
                assert abs(complex(sums[k]) - numeric) < 1e-6 * max(
                    1.0, abs(numeric)
                )

    def test_trace_mod_examples(self):
        assert trace_mod(poly(1), poly(-1, 0, 1)) == 2
        assert trace_mod(poly(0, 1), poly(-2, -1, 1)) == 1

    def test_trace_mod_degree_violation(self):
        with pytest.raises(ValueError):
            trace_mod(poly(0, 0, 1), poly(-1, 0, 1))

    def test_trace_mod_matches_numeric(self):
        rng = random.Random(37)
        checked = 0
        while checked < 15:
            deg = rng.randint(2, 8)
            p = ExactPolynomial(
                [rng.randint(-5, 5) for _ in range(deg)] + [1]
            )
            if discriminant(p) == 0:
                continue
            checked += 1
            h = ExactPolynomial([rng.randint(-5, 5) for _ in range(deg)])
            roots = np.roots(
                [1.0] + [float(p.coeff(deg - 1 - i)) for i in range(deg)]
            )
            numeric = sum(
                np.polyval([float(h.coeff(h.degree - i)) for i in range(h.degree + 1)], r)
                if not h.is_zero()
                else 0.0
                for r in roots
            )
            exact = trace_mod(h, p)
            assert abs(complex(exact) - numeric) < 1e-6 * max(1.0, abs(numeric))


# ---------------------------------------------------------------------------
# resolvent coefficients
# ---------------------------------------------------------------------------


class TestResolventCoeffs:
    def test_swap_matrix(self):
        a = ExactMatrix([[0, 1], [1, 0]])
        rc = resolvent_coeffs(a, poly(-1, 0, 1))
        assert rc.count == 2
        assert rc.matrices[0] == a
        assert rc.matrices[1] == ExactMatrix.identity(2)

    def test_zero_matrix(self):
        rc = resolvent_coeffs(ExactMatrix([[0]]), poly(0, 1))
        assert rc.matrices == (ExactMatrix.identity(1),)

    def test_k3_minimal(self):
        a = ExactMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        rc = resolvent_coeffs(a, poly(-2, -1, 1))
        assert rc.matrices[0] == a - ExactMatrix.identity(3)
        assert rc.matrices[1] == ExactMatrix.identity(3)

    def test_not_annihilating(self):
        a = ExactMatrix([[0, 1], [1, 0]])
        with pytest.raises(NotAnnihilatingError):
            resolvent_coeffs(a, poly(-2, 0, 1))

    def test_reconstructs_idempotents(self):
        # Phi(M, theta_r) / psi'(theta_r) must match the numeric projector
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 6)
            m = random_symmetric(rng, n)
            psi = squarefree_part(char_poly(m))
            rc = resolvent_coeffs(m, psi)
            dpsi = psi.derivative()
            eigs, vecs = np.linalg.eigh(np.array(m.to_float()))
            # cluster equal eigenvalues
            clusters = []
            for idx, lam in enumerate(eigs):
                if clusters and abs(lam - clusters[-1][0][-1]) < 1e-8:
                    clusters[-1][0].append(lam)
                    clusters[-1][1].append(idx)
                else:
                    clusters.append(([lam], [idx]))
            assert len(clusters) == psi.degree
            for lams, idxs in clusters:
                lam = float(np.mean(lams))
                v = vecs[:, idxs]
                proj = v @ v.T
                phi = sum(
                    (lam**j) * np.array(bj.to_float())
                    for j, bj in enumerate(rc.matrices)
                )
                scale = np.polyval(
                    [float(dpsi.coeff(dpsi.degree - i)) for i in range(dpsi.degree + 1)],
                    lam,
                )
                assert np.allclose(phi / scale, proj, atol=1e-8)


class TestComposeMod:
    def test_simple(self):
        # g(u) mod psi with g = y^2, u = y + 1, psi = y^2 - 2
        g = poly(0, 0, 1)
        u = poly(1, 1)
        psi = poly(-2, 0, 1)
        assert compose_mod(g, u, psi) == poly(3, 2)

    def test_identity_composition(self):
        rng = random.Random(43)
        for _ in range(10):
            deg = rng.randint(2, 6)
            psi = ExactPolynomial(
                [rng.randint(-4, 4) for _ in range(deg)] + [1]
            )
            g = ExactPolynomial([rng.randint(-4, 4) for _ in range(deg)])
            assert compose_mod(g, poly(0, 1), psi) == g % psi


class TestMatrixInSpan:
    def test_combination_is_in_span(self):
        a = ExactMatrix([[1, 0], [0, 1]])
        b = ExactMatrix([[0, 1], [1, 0]])
        assert matrix_in_span(3 * a - 2 * b, [a, b])
        assert matrix_in_span(ExactMatrix.zeros(2, 2), [a, b])
        assert matrix_in_span(ExactMatrix.zeros(2, 2), [])

    def test_outside_span(self):
        a = ExactMatrix([[1, 0], [0, 1]])
        b = ExactMatrix([[0, 1], [1, 0]])
        assert not matrix_in_span(ExactMatrix([[1, 0], [0, 0]]), [a, b])
        assert not matrix_in_span(a, [])
        # a repeated basis element adds nothing
        assert not matrix_in_span(b, [a, a])

    def test_rational_entries(self):
        a = ExactMatrix([[F(1, 2), F(1, 3)], [F(-2, 7), 1]])
        b = ExactMatrix([[F(5, 3), 0], [F(1, 9), F(-4, 5)]])
        target = F(7, 11) * a - F(13, 4) * b
        assert matrix_in_span(target, [a, b])
        nudged = target + ExactMatrix([[0, 0], [0, F(1, 10**30)]])
        assert not matrix_in_span(nudged, [a, b])

    def test_many_duplicate_rows(self):
        # 0/1 classes partitioning the positions of a 12 x 12 matrix give
        # 144 equations with only a handful of distinct rows
        n = 12
        ident = ExactMatrix.identity(n)
        even = ExactMatrix(
            [[int(i != j and (i - j) % 2 == 0) for j in range(n)] for i in range(n)]
        )
        odd = ExactMatrix([[int((i - j) % 2 == 1) for j in range(n)] for i in range(n)])
        basis = [ident, even, odd]
        assert matrix_in_span(even * odd, basis)
        assert matrix_in_span(odd * odd, basis)
        assert matrix_in_span(5 * ident + F(2, 3) * odd, basis)
        broken = (odd * odd).to_lists()
        broken[n - 1][n - 1] += 1
        assert not matrix_in_span(ExactMatrix(broken), basis)

    def test_agrees_with_rank_on_random_systems(self):
        rng = random.Random(53)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(0, 3)
            basis = [
                ExactMatrix(
                    [[rng.choice((0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)]
                )
                for _ in range(k)
            ]
            target = ExactMatrix(
                [[rng.choice((0, 1, -1)) for _ in range(cols)] for _ in range(rows)]
            )
            flat = np.array(
                [[float(x) for x in b.entries()] for b in basis]
            ).reshape(k, rows * cols).T
            full = np.column_stack([flat, [float(x) for x in target.entries()]])
            rank = np.linalg.matrix_rank(flat) if k else 0
            expected = np.linalg.matrix_rank(full) == rank
            assert matrix_in_span(target, basis) == expected
