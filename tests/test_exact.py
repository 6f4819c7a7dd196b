"""Tests for the exact arithmetic kernels.

Expected values here are either worked out by hand or checked against an
independent route (numpy eigenvalues, Sylvester determinants, the
Fraction algorithms of `tests/reference.py`); the two routes must agree
before anything downstream is trusted.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from avgmix.exact import (
    ExactMatrix,
    ExactPolynomial,
    NonInvertibleError,
    NotAnnihilatingError,
    _bareiss_det,
    _charpoly_int,
    _int_disc,
    _int_power_sums,
    _int_resultant,
    _int_scaled_inverse,
    _int_squarefree,
    _rows_in_span,
)
from avgmix.mixing import _resolvent_int

F = Fraction


def poly(*ascending):
    return ExactPolynomial(ascending)


def random_monic(rng, deg, lo=-4, hi=4):
    return [rng.randint(lo, hi) for _ in range(deg)] + [1]


def test_reference_imports_nothing_from_avgmix():
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(name.startswith(("avgmix", ".")) for name in imported)


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            w = rng.randint(lo, hi)
            rows[i][j] = w
            rows[j][i] = w
    return rows


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

    def test_bool_entries_rejected(self):
        # a bool is not a matrix entry, as it is not a graph weight
        with pytest.raises(TypeError):
            ExactMatrix([[True, False], [False, True]])

    def test_transpose_and_symmetry(self):
        a = ExactMatrix([[1, 2], [2, 5]])
        assert a.is_symmetric()
        b = ExactMatrix([[1, 2], [3, 5]])
        assert not b.is_symmetric()

    def test_determinant(self):
        # the Bareiss kernel against hand values, elimination over Q and numpy
        assert _bareiss_det([[2]]) == 2
        assert _bareiss_det([[1, 2], [3, 4]]) == -2
        assert _bareiss_det([[1, 2], [2, 4]]) == 0
        assert _bareiss_det([[0, 1], [1, 0]]) == -1
        rng = random.Random(7)
        for _ in range(10):
            rows = random_symmetric(rng, 4)
            exact = _bareiss_det(rows)
            assert exact == reference.determinant(rows)
            assert abs(exact - np.linalg.det(np.array(rows, dtype=float))) < 1e-6


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class TestExactPolynomial:
    def test_trailing_zeros_stripped(self):
        p = poly(1, 2, 0, 0)
        assert p.degree == 1
        assert p == poly(1, 2) and hash(p) == hash(poly(1, 2))
        assert p.coeffs == (F(1), F(2))
        assert poly(0, 0).is_zero()
        assert poly().degree == -1
        assert repr(poly(F(1, 2), 0, -3, 1)) == "ExactPolynomial(x^3 + -3*x^2 + 1/2)"
        assert repr(poly(1, 2)) == "ExactPolynomial(2*x + 1)"
        assert repr(poly(0, 1)) == "ExactPolynomial(x)"
        assert repr(poly()) == "ExactPolynomial(0)"

    def test_bool_coefficients_rejected(self):
        with pytest.raises(TypeError):
            poly(1, True)


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


class TestCharPoly:
    def test_p2(self):
        assert _charpoly_int([[0, 1], [1, 0]]) == [-1, 0, 1]

    def test_k3(self):
        # roots 2, -1, -1
        assert _charpoly_int([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == [-2, -3, 0, 1]

    def test_one_by_one(self):
        assert _charpoly_int([[0]]) == [0, 1]
        assert _charpoly_int([[5]]) == [-5, 1]

    def test_cayley_hamilton_random(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 8)
            rows = random_symmetric(rng, n)
            p = _charpoly_int(rows)
            assert len(p) == n + 1 and p[-1] == 1
            at_m = reference.combine(p, reference.powers(rows, n + 1))
            assert not any(map(any, at_m))

    def test_matches_numpy_eigenvalues(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 7)
            rows = random_symmetric(rng, n)
            p = _charpoly_int(rows)
            eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
            approx = np.poly(eigs)  # descending coefficients
            assert np.allclose(p[::-1], approx, atol=1e-6)

    def test_asymmetric_supported(self):
        assert _charpoly_int([[0, 1], [0, 0]]) == [0, 0, 1]


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
    # no symmetry assumed; Faddeev-LeVerrier gives the coefficients and
    # det(xI - M) by rational elimination the values
    coeffs = _charpoly_int(rows)
    n = len(rows)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    assert coeffs == reference.char_poly(rows)
    for x in points:
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        value = sum(c * x**k for k, c in enumerate(coeffs))
        assert value == reference.determinant(shifted)


# ---------------------------------------------------------------------------
# squarefree parts and discriminants
# ---------------------------------------------------------------------------


def sylvester_resultant(p, q):
    n, m = len(p) - 1, len(q) - 1
    rows = [[0] * i + p[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + q[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return reference.determinant(rows)


class TestSquarefreeAndDiscriminant:
    def test_examples(self):
        # x^2 (x - 1) -> x (x - 1)
        assert _int_squarefree([0, 0, -1, 1]) == [0, -1, 1]
        # (x - 2)(x + 1)^2 -> (x - 2)(x + 1)
        assert _int_squarefree([-2, -3, 0, 1]) == [-2, -1, 1]
        assert _int_squarefree([-2, 0, 1]) == [-2, 0, 1]
        assert _int_squarefree([7, 1]) == [7, 1]

    def test_zero_rejected(self):
        for bad in ([], [3], [1, 2]):
            with pytest.raises(ValueError):
                _int_squarefree(bad)

    def test_result_monic_squarefree(self):
        rng = random.Random(17)
        for _ in range(25):
            p = random_monic(rng, rng.randint(1, 6))
            sf = _int_squarefree(p)
            assert sf == reference.squarefree(p)
            assert sf[-1] == 1 and _int_disc(sf) != 0
            # same roots: sf divides p
            assert reference.poly_divmod(p, sf)[1] == []

    def test_discriminant_values(self):
        assert _int_disc([-1, 0, 1]) == 4
        assert _int_disc([0, 0, 1]) == 0
        assert _int_disc([3, 1]) == 1
        # b^2 - 4c for a monic quadratic
        assert _int_disc([-1, 3, 1]) == 13
        # -4p^3 - 27q^2 for x^3 + px + q
        assert _int_disc([1, -2, 0, 1]) == 32 - 27

    def test_discriminant_constant_rejected(self):
        with pytest.raises(ValueError):
            _int_disc([3])

    def test_discriminant_iff_gcd(self):
        rng = random.Random(19)
        for _ in range(40):
            p = random_monic(rng, rng.randint(1, 6), -3, 3)
            g = reference.gcd(p, reference.derivative(p))
            assert (_int_disc(p) == 0) == (len(g) > 1)
            m = len(p) - 1
            if m > 1:
                sign = -1 if (m * (m - 1) // 2) % 2 else 1
                res = sylvester_resultant(p, reference.derivative(p))
                assert _int_disc(p) == sign * res

    def test_resultant_matches_sylvester(self):
        rng = random.Random(23)
        for _ in range(30):
            dp = rng.randint(1, 5)
            dq = rng.randint(1, 5)
            p = [rng.randint(-4, 4) for _ in range(dp)] + [rng.randint(1, 4)]
            q = [rng.randint(-4, 4) for _ in range(dq)] + [rng.randint(1, 4)]
            assert _int_resultant(p, q) == sylvester_resultant(p, q)
        # sparse coefficients: remainders that drop more than one degree
        for _ in range(200):
            p, q = (
                [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(rng.randint(1, 7))]
                + [rng.randint(1, 3)]
                for _ in range(2)
            )
            assert _int_resultant(p, q) == sylvester_resultant(p, q)


# ---------------------------------------------------------------------------
# modular arithmetic: inverses, power sums, traces
# ---------------------------------------------------------------------------


class TestModular:
    def test_inverse_mod_example(self):
        # 1/y mod y^2 - 2 is y/2
        t, d = _int_scaled_inverse([-2, 0, 1], [0, 1])
        assert [F(c, d) for c in t] == [0, F(1, 2)]
        assert reference.inverse_mod([0, 1], [-2, 0, 1]) == [0, F(1, 2)]

    def test_inverse_of_one(self):
        t, d = _int_scaled_inverse([-2, 0, 1], [1])
        assert [F(c, d) for c in t] == [1, 0]

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleError):
            _int_scaled_inverse([0, 0, 1], [0, 1])  # y mod y^2
        with pytest.raises(NonInvertibleError):
            _int_scaled_inverse([-2, 0, 1], [])
        with pytest.raises(ZeroDivisionError):
            reference.inverse_mod([0, 1], [0, 0, 1])

    def test_inverse_random(self):
        # a t = d mod psi, deg t < deg psi
        rng = random.Random(29)
        for _ in range(20):
            deg = rng.randint(1, 7)
            psi = random_monic(rng, deg, -5, 5)
            a = reference.trim([rng.randint(-5, 5) for _ in range(deg)])
            if not a:
                continue
            if len(reference.gcd(a, psi)) > 1:
                with pytest.raises(NonInvertibleError):
                    _int_scaled_inverse(psi, a)
                continue
            t, d = _int_scaled_inverse(psi, a)
            assert len(t) == deg
            assert reference.poly_divmod(reference.mul(a, t), psi)[1] == [d]

    def test_scaled_inverse_matches_inverse_mod(self):
        # t / d is the inverse, d = +-Res(psi, a), and a shared factor raises
        rng = random.Random(31)
        for _ in range(40):
            deg = rng.randint(1, 7)
            psi = random_monic(rng, deg, -5, 5)
            a = [rng.randint(-5, 5) for _ in range(rng.randint(1, deg))]
            if not any(a):
                continue
            if len(reference.gcd(a, psi)) > 1:
                with pytest.raises(NonInvertibleError):
                    _int_scaled_inverse(psi, a)
                continue
            t, d = _int_scaled_inverse(psi, a)
            assert abs(d) == abs(sylvester_resultant(psi, reference.trim(a)))
            w = reference.inverse_mod(a, psi)
            assert reference.trim([F(c, d) for c in t]) == w

    def test_power_sums_examples(self):
        assert _int_power_sums([-1, 0, 1], 2) == [2, 0, 2]
        assert _int_power_sums([-2, -1, 1], 2) == [2, 1, 5]
        assert _int_power_sums([-3, 1], 3) == [1, 3, 9, 27]

    def test_power_sums_requires_monic(self):
        for bad in ([-1, 2], [1], []):
            with pytest.raises(ValueError):
                _int_power_sums(bad, 2)

    def test_power_sums_match_numeric_roots(self):
        rng = random.Random(31)
        for _ in range(20):
            deg = rng.randint(1, 8)
            p = random_monic(rng, deg, -5, 5)
            roots = np.roots([float(c) for c in reversed(p)])
            sums = _int_power_sums(p, 6)
            assert sums == reference.power_traces(p, 7)
            for k in range(7):
                numeric = np.sum(roots**k)
                assert abs(complex(sums[k]) - numeric) < 1e-6 * max(
                    1.0, abs(numeric)
                )

    def test_trace_mod_examples(self):
        # the reference trace: y^j times the trace of multiplication by y^j
        assert reference.trace([1], reference.power_traces([-1, 0, 1], 2)) == 2
        assert reference.trace([0, 1], reference.power_traces([-2, -1, 1], 2)) == 1

    def test_trace_mod_degree_violation(self):
        with pytest.raises(ValueError):
            reference.trace([0, 0, 1], reference.power_traces([-1, 0, 1], 2))

    def test_trace_mod_matches_numeric(self):
        rng = random.Random(37)
        checked = 0
        while checked < 15:
            deg = rng.randint(2, 8)
            p = random_monic(rng, deg, -5, 5)
            if _int_disc(p) == 0:
                continue
            checked += 1
            h = reference.trim([rng.randint(-5, 5) for _ in range(deg)])
            roots = np.roots([float(c) for c in reversed(p)])
            numeric = sum(np.polyval([float(c) for c in reversed(h)], r) for r in roots)
            exact = reference.trace(h, reference.power_traces(p, deg))
            assert abs(complex(exact) - numeric) < 1e-6 * max(1.0, abs(numeric))


# ---------------------------------------------------------------------------
# resolvent coefficients
# ---------------------------------------------------------------------------


class TestResolventCoeffs:
    def test_swap_matrix(self):
        a = [[0, 1], [1, 0]]
        mats = _resolvent_int(a, [-1, 0, 1])
        assert mats == [a, [[1, 0], [0, 1]]]

    def test_zero_matrix(self):
        assert _resolvent_int([[0]], [0, 1]) == [[[1]]]

    def test_k3_minimal(self):
        a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        mats = _resolvent_int(a, [-2, -1, 1])
        assert mats[0] == [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
        assert mats[1] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_not_annihilating(self):
        with pytest.raises(NotAnnihilatingError):
            _resolvent_int([[0, 1], [1, 0]], [-2, 0, 1])

    def test_reconstructs_idempotents(self):
        # Phi(M, theta_r) / psi'(theta_r) must match the numeric projector
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 6)
            rows = random_symmetric(rng, n)
            psi = _int_squarefree(_charpoly_int(rows))
            mats = _resolvent_int(rows, psi)
            deg = len(psi) - 1
            assert mats == reference.resolvent(rows, psi)
            dpsi = [float(k * c) for k, c in enumerate(psi)][1:]
            eigs, vecs = np.linalg.eigh(np.array(rows, dtype=float))
            # cluster equal eigenvalues
            clusters = []
            for idx, lam in enumerate(eigs):
                if clusters and abs(lam - clusters[-1][0][-1]) < 1e-8:
                    clusters[-1][0].append(lam)
                    clusters[-1][1].append(idx)
                else:
                    clusters.append(([lam], [idx]))
            assert len(clusters) == deg
            for lams, idxs in clusters:
                lam = float(np.mean(lams))
                v = vecs[:, idxs]
                proj = v @ v.T
                phi = sum(lam**j * np.array(bj, dtype=float) for j, bj in enumerate(mats))
                scale = np.polyval(dpsi[::-1], lam)
                assert np.allclose(phi / scale, proj, atol=1e-8)


class TestComposeMod:
    # the reference composition behind the physical pairing
    def test_simple(self):
        # g(u) mod psi with g = y^2, u = y + 1, psi = y^2 - 2
        assert reference.compose_mod([0, 0, 1], [1, 1], [-2, 0, 1]) == [3, 2]

    def test_identity_composition(self):
        rng = random.Random(43)
        for _ in range(10):
            deg = rng.randint(2, 6)
            psi = random_monic(rng, deg)
            g = reference.trim([rng.randint(-4, 4) for _ in range(deg)])
            assert reference.compose_mod(g, [0, 1], psi) == reference.poly_divmod(g, psi)[1]


def in_span(target, basis):
    """_rows_in_span on the system sum_k x_k B_k = T, one row per position."""
    return _rows_in_span(
        [b[i][j] for b in basis] + [t]
        for i, row in enumerate(target)
        for j, t in enumerate(row)
    )


def combination(coeffs, mats):
    return [
        [sum(c * m[i][j] for c, m in zip(coeffs, mats)) for j in range(len(mats[0][0]))]
        for i in range(len(mats[0]))
    ]


class TestMatrixInSpan:
    def test_combination_is_in_span(self):
        a = [[1, 0], [0, 1]]
        b = [[0, 1], [1, 0]]
        zero = [[0, 0], [0, 0]]
        assert in_span(combination([3, -2], [a, b]), [a, b])
        assert in_span(zero, [a, b])
        assert in_span(zero, [])

    def test_outside_span(self):
        a = [[1, 0], [0, 1]]
        b = [[0, 1], [1, 0]]
        assert not in_span([[1, 0], [0, 0]], [a, b])
        assert not in_span(a, [])
        # a repeated basis element adds nothing
        assert not in_span(b, [a, a])

    def test_rational_entries(self):
        a = [[F(1, 2), F(1, 3)], [F(-2, 7), 1]]
        b = [[F(5, 3), 0], [F(1, 9), F(-4, 5)]]
        target = combination([F(7, 11), F(-13, 4)], [a, b])
        assert in_span(target, [a, b])
        nudged = [target[0], [target[1][0], target[1][1] + F(1, 10**30)]]
        assert not in_span(nudged, [a, b])

    def test_many_duplicate_rows(self):
        # 0/1 classes partitioning the positions of a 12 x 12 matrix give
        # 144 equations with only a handful of distinct rows
        n = 12
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        even = [[int(i != j and (i - j) % 2 == 0) for j in range(n)] for i in range(n)]
        odd = [[int((i - j) % 2 == 1) for j in range(n)] for i in range(n)]
        basis = [ident, even, odd]
        assert in_span(reference.matmul(even, odd), basis)
        assert in_span(reference.matmul(odd, odd), basis)
        assert in_span(combination([5, F(2, 3)], [ident, odd]), basis)
        broken = reference.matmul(odd, odd)
        broken[n - 1][n - 1] += 1
        assert not in_span(broken, basis)

    def test_agrees_with_rank_on_random_systems(self):
        rng = random.Random(53)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            k = rng.randint(0, 3)
            basis = [
                [[rng.choice((0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)]
                for _ in range(k)
            ]
            target = [[rng.choice((0, 1, -1)) for _ in range(cols)] for _ in range(rows)]
            flat = np.array(basis, dtype=float).reshape(k, rows * cols).T
            full = np.column_stack([flat, np.ravel(target)])
            rank = np.linalg.matrix_rank(flat) if k else 0
            expected = np.linalg.matrix_rank(full) == rank
            assert in_span(target, basis) == expected
