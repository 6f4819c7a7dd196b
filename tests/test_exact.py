"""Tests for the exact arithmetic kernels.

Expected values here are either worked out by hand or checked against an
independent route (numpy eigenvalues, Sylvester determinants, the
Fraction algorithms of `tests/reference.py`); the two routes must agree
before anything downstream is trusted.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from avgmix import exact
from avgmix.exact import (
    ExactMatrix,
    ExactPolynomial,
    NotAnnihilatingError,
    _P0,
    _charpoly_bound,
    _charpoly_mod,
    _int_disc,
    _int_exact_div,
    _int_radical,
    _is_prime_62,
    _radical_resolvent,
    _Resolvent,
    _resolvent_int,
    _rows_in_span,
    _support_components,
)

F = Fraction


def poly(*ascending):
    return ExactPolynomial(ascending)


def random_monic(rng, deg, lo=-4, hi=4):
    return [rng.randint(lo, hi) for _ in range(deg)] + [1]


rational_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(
            st.one_of(
                st.fractions(max_denominator=60),
                st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 3**60)),
            ),
            min_size=width,
            max_size=width,
        ),
        min_size=1,
        max_size=4,
    )
)


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

    def test_numerators_over_one_denominator(self):
        m = ExactMatrix([[F(1, 6), F(-3, 4)], [2, 0]])
        assert m.denominator == 12
        assert m.numerators == ((2, -9), (24, 0))
        assert m[0, 1] == F(-3, 4) and m.row(1) == (2, 0)
        assert m.row_sums() == (F(-7, 12), 2)
        assert repr(m) == "ExactMatrix(2x2: 1/6 -3/4; 2 0)"
        # a denominator shared by every numerator is cancelled
        assert ExactMatrix([[4, 6], [0, -2]], 8).numerators == ((2, 3), (0, -1))
        assert ExactMatrix([[4, 6], [0, -2]], 8).denominator == 4
        zero = ExactMatrix([[0, 0]], 7)
        assert zero.denominator == 1 and zero.is_integral()

    @pytest.mark.parametrize(
        "denominator, error",
        [(0, ValueError), (-1, ValueError), (True, TypeError), (2.0, TypeError)],
    )
    def test_bad_denominator_rejected(self, denominator, error):
        with pytest.raises(error, match="denominator"):
            ExactMatrix([[1, 2], [3, 4]], denominator)

    @settings(max_examples=100, deadline=None)
    @given(rational_rows, st.integers(1, 10**6))
    def test_equal_values_store_equal_integers(self, rows, k):
        scale = k * math.lcm(*(x.denominator for row in rows for x in row))
        nums = [[int(x * scale) for x in row] for row in rows]
        built = [
            ExactMatrix(rows),
            ExactMatrix(nums, scale),
            ExactMatrix([[F(x) for x in row] for row in nums], scale),
            ExactMatrix([[x * k for x in row] for row in rows], k),
        ]
        if all(x.denominator == 1 for row in rows for x in row):
            built.append(ExactMatrix([[int(x) for x in row] for row in rows]))
        first = built[0]
        for m in built:
            assert m.numerators == first.numerators
            assert m.denominator == first.denominator
            assert m == first and hash(m) == hash(first)
            assert all(type(x) is int for row in m.numerators for x in row)
        assert first.to_lists() == rows
        # lowest terms: the lcm of the reduced entry denominators
        assert first.denominator == math.lcm(
            *(x.denominator for row in rows for x in row)
        )
        flat = [x for row in first.numerators for x in row]
        assert math.gcd(first.denominator, *flat) == 1
        # int true division rounds as float(Fraction) does, bit for bit
        assert [[x.hex() for x in row] for row in first.to_float()] == [
            [float(x).hex() for x in row] for row in rows
        ]


def test_support_components_join_one_way_entries():
    # u ~ v when M[u][v] or M[v][u] is nonzero; the diagonal joins nothing
    rows = [[4, 0, 0, 0], [0, 0, 0, 0], [0, 0, 5, 0], [-1, 2, 0, 0]]
    assert _support_components(rows) == [[0, 1, 3], [2]]
    assert _support_components([[0, 0], [0, 0]]) == [[0], [1]]
    assert _support_components([[7]]) == [[0]]


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


def one_prime_char_poly(rows):
    """The one-prime route: the signed residues of `_charpoly_mod` mod P0."""
    return [c - _P0 if 2 * c > _P0 else c for c in _charpoly_mod(rows, _P0)]


def engine_char_poly(rows):
    """phi from `_radical_resolvent` on either route, or None for an M
    that is not diagonalizable, which it refuses: then the squarefree part
    of the reference char poly must not annihilate M."""
    try:
        return _radical_resolvent(rows)[0]
    except NotAnnihilatingError:
        psi = reference.squarefree(reference.char_poly(rows))
        assert any(map(any, reference.combine(psi, reference.powers(rows, len(psi)))))
        return None


class TestCharPoly:
    def test_p2(self):
        assert one_prime_char_poly([[0, 1], [1, 0]]) == [-1, 0, 1]

    def test_k3(self):
        # roots 2, -1, -1
        assert one_prime_char_poly([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == [-2, -3, 0, 1]

    def test_one_by_one(self):
        assert one_prime_char_poly([[0]]) == [0, 1]
        assert one_prime_char_poly([[5]]) == [-5, 1]

    def test_cayley_hamilton_random(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 8)
            rows = random_symmetric(rng, n)
            p = one_prime_char_poly(rows)
            assert len(p) == n + 1 and p[-1] == 1
            at_m = reference.combine(p, reference.powers(rows, n + 1))
            assert not any(map(any, at_m))

    def test_matches_numpy_eigenvalues(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 7)
            rows = random_symmetric(rng, n)
            p = one_prime_char_poly(rows)
            eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
            approx = np.poly(eigs)  # descending coefficients
            assert np.allclose(p[::-1], approx, atol=1e-6)

    def test_asymmetric_supported(self):
        assert one_prime_char_poly([[0, 1], [0, 0]]) == [0, 0, 1]


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
    coeffs = engine_char_poly(rows)
    assume(coeffs is not None)
    n = len(rows)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    assert coeffs == reference.char_poly(rows)
    for x in points:
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        value = sum(c * x**k for k, c in enumerate(coeffs))
        assert value == reference.determinant(shifted)


def random_integer_rows(rng, n, size):
    # asymmetric, with some zeros so that Hessenberg pivoting is exercised
    return [
        [rng.randint(-size, size) if rng.random() < 0.7 else 0 for _ in range(n)]
        for _ in range(n)
    ]


def test_charpoly_int_matches_faddeev_leverrier_with_huge_entries():
    # entries up to 10^30 take the traced pass, small entries one prime;
    # a defective M is refused on both routes
    rng = random.Random(17)
    refused = 0
    for n in range(1, 10):
        for size in (1, 9, 10**6, 10**30):
            for _ in range(2):
                rows = random_integer_rows(rng, n, size)
                coeffs = engine_char_poly(rows)
                refused += coeffs is None
                assert coeffs in (None, reference.char_poly(rows))
    assert 0 < refused < 20
    huge = random_integer_rows(random.Random(1), 9, 10**30)
    assert _charpoly_bound(huge).bit_length() > 10 * 62


def test_charpoly_bound_dominates_the_coefficients():
    rng = random.Random(19)
    cases = [[[0] * 4] * 4, [[-7]], [[1, 1], [1, 1]]]
    cases += [[[2] * n for _ in range(n)] for n in range(1, 8)]
    cases += [
        random_integer_rows(rng, rng.randint(1, 9), rng.choice((1, 30, 10**30)))
        for _ in range(60)
    ]
    for rows in cases:
        coeffs = reference.char_poly(rows)
        assert max(abs(c) for c in coeffs) <= _charpoly_bound(rows)


def test_charpoly_of_empty_matrix_is_one():
    assert one_prime_char_poly([]) == [1]


def test_p0_is_the_largest_62_bit_prime():
    assert _P0 == 2**62 - 57 and _is_prime_62(_P0)
    assert not any(map(_is_prime_62, range(_P0 + 2, 2**62, 2)))
    # a strong pseudoprime to every prime base up to 23 (but not 29)
    assert not _is_prime_62(3825123056546413051)
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    assert [_is_prime_62(k) for k in range(2, 2000)] == sieve[2:]


# ---------------------------------------------------------------------------
# squarefree parts, discriminants and resultants
# ---------------------------------------------------------------------------


def sylvester_resultant(p, q):
    n, m = len(p) - 1, len(q) - 1
    rows = [[0] * i + p[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + q[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return reference.determinant(rows)


def primitive_gcd(f, g):
    """The gcd of f and g by Euclid over Q, scaled to a primitive integer
    polynomial; it is monic, so the leading coefficient stays positive."""
    monic = reference.gcd(f, g)
    scale = math.lcm(*(c.denominator for c in monic))
    ints = [int(c * scale) for c in monic]
    return [c // math.gcd(*ints) for c in ints]


def sylvester_disc(p):
    """disc(p) = (-1)^(m(m-1)/2) Res(p, p') for a monic p of degree m,
    Res by the Sylvester determinant."""
    m = len(p) - 1
    res = sylvester_resultant(p, [int(c) for c in reference.derivative(p)])
    return -res if m * (m - 1) // 2 % 2 else res


def disc_and_cofactor(psi):
    """_int_disc(psi), checked: D against the Sylvester determinant,
    t psi' = D modulo psi with deg t < deg psi, t / D = 1/psi' mod psi,
    and the gcd of psi and psi' against `primitive_gcd`; returns (D, t)."""
    d, t, gcd = _int_disc(psi)
    dpsi = reference.derivative(psi)
    assert d == sylvester_disc(psi)
    assert gcd == primitive_gcd(psi, dpsi)
    assert len(t) < len(psi)
    gap = reference.add(reference.mul(t, dpsi), [-d])
    assert reference.poly_divmod(gap, psi)[1] == []
    if d == 0:
        assert t == []
    else:
        assert [F(c, d) for c in t] == reference.inverse_mod(dpsi, psi)
    return d, t


def remainder_degrees(psi):
    """(deg b, deg r) of each pseudo-division b | a -> r in `_int_disc(psi)`."""
    steps = []
    prem = exact._int_prem

    def recorded(f, g):
        q, r = prem(f, g)
        steps.append((len(g) - 1, len(r) - 1))
        return q, r

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_int_prem", recorded)
        _int_disc(psi)
    return steps


def disc(p):
    return _int_disc(p)[0]


class TestSquarefreeAndDiscriminant:
    def test_examples(self):
        # (psi, disc psi, t) with t = disc(psi) / psi' at every root of psi
        # x^2 (x - 1) -> x (x - 1), psi' = -1 and 1 at the roots 0 and 1
        assert _int_radical([0, 0, -1, 1]) == ([0, -1, 1], 1, [-1, 2])
        # (x - 2)(x + 1)^2 -> (x - 2)(x + 1), psi' = 3 and -3 at 2 and -1
        assert _int_radical([-2, -3, 0, 1]) == ([-2, -1, 1], 9, [-1, 2])
        # psi' = 2y at +-sqrt(2)
        assert _int_radical([-2, 0, 1]) == ([-2, 0, 1], 8, [0, 2])
        assert _int_radical([7, 1]) == ([7, 1], 1, [1])

    def test_zero_rejected(self):
        for bad in ([], [3], [1, 2], [1]):
            with pytest.raises(ValueError):
                _int_radical(bad)

    def test_result_monic_squarefree(self):
        rng = random.Random(17)
        for _ in range(25):
            p = random_monic(rng, rng.randint(1, 6))
            sf, d, t = _int_radical(p)
            assert sf == reference.squarefree(p)
            # same roots: sf divides p
            assert reference.poly_divmod(p, sf)[1] == []
            dsf = reference.derivative(sf)
            m = len(sf) - 1
            sign = -1 if m * (m - 1) // 2 % 2 else 1
            assert d == sign * sylvester_resultant(sf, dsf) != 0
            assert len(t) < len(sf)
            assert [F(c, d) for c in t] == reference.inverse_mod(dsf, sf)

    def test_discriminant_values(self):
        assert disc([-1, 0, 1]) == 4
        assert disc([0, 0, 1]) == 0
        assert disc([3, 1]) == 1
        # b^2 - 4c for a monic quadratic
        assert disc([-1, 3, 1]) == 13
        # -4p^3 - 27q^2 for x^3 + px + q
        assert disc([1, -2, 0, 1]) == 32 - 27

    def test_discriminant_iff_gcd(self):
        rng = random.Random(19)
        for _ in range(40):
            p = random_monic(rng, rng.randint(1, 6), -3, 3)
            g = reference.gcd(p, reference.derivative(p))
            assert (disc(p) == 0) == (len(g) > 1)
            m = len(p) - 1
            if m > 1:
                sign = -1 if (m * (m - 1) // 2) % 2 else 1
                res = sylvester_resultant(p, reference.derivative(p))
                assert disc(p) == sign * res

    def test_resultant_matches_sylvester(self):
        rng = random.Random(23)
        for _ in range(60):
            disc_and_cofactor(random_monic(rng, rng.randint(1, 7)))
        # sparse coefficients: remainders that drop more than one degree,
        # in the middle of the sequence and at its last step
        middle = last = 0
        for _ in range(250):
            psi = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(rng.randint(1, 9))]
            disc_and_cofactor(psi + [1])
            drops = [b - r > 1 for b, r in remainder_degrees(psi + [1]) if r >= 0]
            middle += any(drops[:-1])
            last += drops[-1:] == [True]
        assert middle and last


@st.composite
def planted_repeated_roots(draw):
    """Monic phi = f_1^(e_1 + 1) f_2^e_2 ..., the f_i monic of degree 1-3
    and not always coprime, so f_1 at least is a repeated factor."""
    factors = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                st.integers(1, 2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    phi = [int(c) for c in factors[0][0]] + [1]
    for low, e in factors:
        for _ in range(e):
            phi = [int(c) for c in reference.mul(phi, low + [1])]
    return phi


@settings(max_examples=80, deadline=None)
@given(planted_repeated_roots())
@example([0, 0, 1])
def test_radical_of_planted_repeated_roots(phi):
    psi, d, t = _int_radical(phi)
    assert psi == reference.squarefree(phi) and len(psi) < len(phi)
    assert d == sylvester_disc(psi) != 0
    gap = reference.add(reference.mul(t, reference.derivative(psi)), [-d])
    assert len(t) < len(psi) and reference.poly_divmod(gap, psi)[1] == []


# ---------------------------------------------------------------------------
# modular arithmetic: inverses, traces
# ---------------------------------------------------------------------------


class TestModular:
    def test_inverse_mod_example(self):
        # psi = y^2 - 2, psi' = 2y: 2y * 2y = 8 mod psi, so 1/psi' is y/4
        assert disc_and_cofactor([-2, 0, 1]) == (8, [0, 2])
        assert reference.inverse_mod([0, 1], [-2, 0, 1]) == [0, F(1, 2)]

    def test_inverse_of_one(self):
        # deg psi = 1: psi' = 1, D = 1 and t = 1, before any pseudo-division
        for psi in ([5, 1], [0, 1], [-(2**70), 1]):
            assert _int_disc(psi) == (1, [1], [1])
            assert remainder_degrees(psi) == []
            disc_and_cofactor(psi)

    def test_non_invertible(self):
        # a repeated root: D = 0, no cofactor, and the gcd of psi and psi'
        assert _int_disc([0, 0, 1]) == (0, [], [0, 1])
        assert _int_disc([0, 0, 0, 1]) == (0, [], [0, 0, 1])
        assert _int_disc([1, -2, 1]) == (0, [], [-1, 1])
        # (y - 2)^2 (y + 1), after one normal step
        assert _int_disc([4, 0, -3, 1]) == (0, [], [-2, 1])
        for psi in ([0, 0, 1], [0, 0, 0, 1], [1, -2, 1], [4, 0, -3, 1]):
            assert disc_and_cofactor(psi) == (0, [])
        with pytest.raises(ZeroDivisionError):
            reference.inverse_mod([0, 1], [0, 0, 1])

    def test_gcd_of_planted_factor(self):
        # psi = a h^2 with a repeated factor h of positive degree: the gcd
        # is a multiple of h, primitive with a positive leading coefficient
        rng = random.Random(43)
        for _ in range(60):
            h, a = (
                random_monic(rng, deg) for deg in (rng.randint(1, 3), rng.randint(0, 3))
            )
            psi = [int(c) for c in reference.mul(a, reference.mul(h, h))]
            d, t, gcd = _int_disc(psi)
            assert (d, t) == (0, [])
            assert gcd == primitive_gcd(psi, reference.derivative(psi)) and gcd[-1] > 0
            assert reference.poly_divmod(gcd, h)[1] == []

    def test_inverse_random(self):
        # t psi' = D mod psi for monic psi, deg t < deg psi; D = 0 iff a
        # repeated root
        rng = random.Random(29)
        for _ in range(40):
            psi = random_monic(rng, rng.randint(1, 7), -5, 5)
            d, _ = disc_and_cofactor(psi)
            assert (d == 0) == (len(reference.gcd(psi, reference.derivative(psi))) > 1)

    def test_scaled_inverse_matches_inverse_mod(self):
        # psi' with content c = m > 1: the sequence runs on psi' / c, and
        # D and t are scaled back by c^m and c^(m-1)
        rng = random.Random(31)
        for _ in range(40):
            m = rng.choice((2, 3, 4, 6))
            psi = [m * rng.randint(-3, 3) for _ in range(m)] + [1]
            disc_and_cofactor(psi)

    def test_cofactor_on_abnormal_sequences(self):
        # remainders that drop several degrees at once: y^4 + 1 = 1 mod
        # y^3 in one step, at the end; y^4 = -1 gives -64y * 4y^3 = 256
        assert disc_and_cofactor([1, 0, 0, 0, 1]) == (256, [0, -64])
        assert remainder_degrees([1, 0, 0, 0, 1]) == [(3, 0)]
        # 6 (y^6 + y + 1) - y psi' = 5y + 6: a drop from 5 to 1 first;
        # disc(y^n + ay + b) = +-(n^n b^(n-1) - (n-1)^(n-1) a^n) for even n
        assert disc_and_cofactor([1, 1, 0, 0, 0, 0, 1])[0] == -(6**6 - 5**5)
        assert remainder_degrees([1, 1, 0, 0, 0, 0, 1]) == [(5, 1), (1, 0)]
        # 8 (y^8 + y^5 + 1) - y psi' = 3y^5 + 8: a drop of two, then more steps
        disc_and_cofactor([1, 0, 0, 0, 0, 1, 0, 0, 1])
        assert remainder_degrees([1, 0, 0, 0, 0, 1, 0, 0, 1])[0] == (7, 5)

    def test_cofactor_with_content(self):
        # psi' = 2y + 4: D = 4^2 - 4 * 2 = 8
        assert disc_and_cofactor([2, 4, 1]) == (8, [4, 2])
        # psi' = 3y^2 - 3: D = -4 p^3 - 27 q^2 = 108 - 27 for y^3 + py + q
        assert disc_and_cofactor([1, -3, 0, 1]) == (81, [-36, 9, 18])
        disc_and_cofactor([2, 0, 0, 0, 4, 0, 1])

    def test_cofactor_of_degree_one(self):
        # the early return gives what the sequence would: t psi' = 1 = D
        assert _int_radical([7, 1]) == ([7, 1], 1, [1])
        assert _int_radical([0, 0, 1]) == ([0, 1], 1, [1])
        assert _int_radical([9, -6, 1]) == ([-3, 1], 1, [1])

    def test_exact_division_is_checked(self):
        assert _int_exact_div([6, -4, 2], [2]) == [3, -2, 1]
        with pytest.raises(ArithmeticError):
            _int_exact_div([6, -3, 2], [2])
        with pytest.raises(ArithmeticError):
            _int_exact_div([1, 0, 1], [1, 1])

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
            if disc(p) == 0:
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


def traced_pass(rows):
    """The Faddeev-LeVerrier pass (no psi given) under the Hadamard bound."""
    return _resolvent_int(rows, bound=_charpoly_bound(rows))


def unpacked(pass_result):
    """(psi, [B_0..B_{deg-1}]) of a `_resolvent_int` result, rows unpacked."""
    psi, res = pass_result
    return psi, reference.unpacked_resolvent(res)


class TestResolventCoeffs:
    def test_swap_matrix(self):
        a = [[0, 1], [1, 0]]
        assert unpacked(_resolvent_int(a, [-1, 0, 1])) == (
            [-1, 0, 1],
            [a, [[1, 0], [0, 1]]],
        )

    def test_zero_matrix(self):
        assert unpacked(_resolvent_int([[0]], [0, 1])) == ([0, 1], [[[1]]])

    def test_k3_minimal(self):
        a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        mats = reference.unpacked_resolvent(_resolvent_int(a, [-2, -1, 1])[1])
        assert mats[0] == [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
        assert mats[1] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_not_annihilating(self):
        with pytest.raises(NotAnnihilatingError):
            _resolvent_int([[0, 1], [1, 0]], [-2, 0, 1])

    @pytest.mark.parametrize("loop", [0, 5, -3])
    def test_degree_one_is_the_check_alone(self, loop):
        # n = 1 (the empty graph, or one loop): B_0 = I, and M + psi_0 I
        # is psi(M) itself, on both routes
        assert unpacked(traced_pass([[loop]])) == ([-loop, 1], [[[1]]])
        assert unpacked(_resolvent_int([[loop]], [-loop, 1])) == ([-loop, 1], [[[1]]])
        with pytest.raises(NotAnnihilatingError):
            _resolvent_int([[loop]], [1 - loop, 1])

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_degree_two_complete_graph(self, n):
        # K_n: psi = (y - (n - 1))(y + 1), B_1 = I, B_0 = A - (n - 2) I
        a = [[int(i != j) for j in range(n)] for i in range(n)]
        psi = [-(n - 1), -(n - 2), 1]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        b0 = [[a[i][j] - (n - 2) * eye[i][j] for j in range(n)] for i in range(n)]
        assert unpacked(_resolvent_int(a, psi)) == (psi, [b0, eye])
        # the watch needs p_0..p_4 to stop at psi, so K_2..K_4 run to phi
        phi, res = traced_pass(a)
        assert phi == reference.char_poly(a)
        assert res.psi == (psi if n > 4 else phi)
        assert reference.unpacked_resolvent(res) == reference.resolvent(a, res.psi)
        with pytest.raises(NotAnnihilatingError):
            _resolvent_int(a, [-n, -(n - 2), 1])

    def test_reconstructs_idempotents(self):
        # Phi(M, theta_r) / psi'(theta_r) must match the numeric projector
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 6)
            rows = random_symmetric(rng, n)
            psi = _radical_resolvent(rows)[1]
            mats = reference.unpacked_resolvent(_resolvent_int(rows, psi)[1])
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


# ---------------------------------------------------------------------------
# packed resolvent rows
# ---------------------------------------------------------------------------


@st.composite
def integer_matrices(draw):
    """Square integer matrices, n = 1..9: symmetric or not, negative
    weights and loops, mostly sparse."""
    n = draw(st.integers(1, 9))
    weight = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))
    rows = [[draw(weight) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return rows


def check_against_reference(rows, psi, res):
    """Every B_j and every diagonal of a pass against the sums of powers."""
    mats = reference.resolvent(rows, psi)
    assert reference.unpacked_resolvent(res) == mats
    n = len(rows)
    assert res.diagonals() == [tuple(b[u][u] for b in mats) for u in range(n)]
    for u in range(n):
        assert res.polys(u) == [tuple(b[u][v] for b in mats) for v in range(n)]


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_packed_pass_matches_the_sums_of_powers(rows):
    phi, res = traced_pass(rows)
    assert phi == reference.char_poly(rows)
    check_against_reference(rows, res.psi, res)
    # a symmetric M is diagonalizable, so its squarefree part annihilates
    # it; any M is annihilated by its char poly
    symmetric = rows == [list(col) for col in zip(*rows)]
    psi = _int_radical(phi)[0] if symmetric else phi
    given_psi, res = _resolvent_int(rows, psi)
    assert given_psi == psi and res.symmetric == symmetric
    check_against_reference(rows, psi, res)


def near_two_to_the_20(n, offset):
    """Weights near 2^20 with mixed signs and a loop on every vertex."""
    w = 2**20 + offset
    return [
        [w - 1 - i if i == j else (w - i - j) * (-1) ** (i * j) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "rows, slots",
    [
        # (Faddeev-LeVerrier slot, slot with psi given)
        (near_two_to_the_20(3, -(2**19)), (64, 64)),
        (near_two_to_the_20(3, -(2**18)), (64, 66)),
        (near_two_to_the_20(3, 0), (65, 67)),
        # entries of 63 bits
        (near_two_to_the_20(4, 2**18), (88, 92)),
    ],
)
def test_packed_pass_at_slots_near_64_bits(rows, slots):
    # a 64-bit slot unpacks by bytes, a wider one by shift and mask
    phi, res = traced_pass(rows)
    check_against_reference(rows, phi, res)
    given_phi, given = _resolvent_int(rows, phi)
    check_against_reference(rows, phi, given)
    assert (res.slot, given.slot) == slots
    wrong = phi[:]
    wrong[0] += 1
    with pytest.raises(NotAnnihilatingError):
        _resolvent_int(rows, wrong)


@pytest.mark.parametrize("slot", [64, 65, 97])
def test_packed_rows_unpack_exactly_at_the_slot_edges(slot):
    n = 4
    top = 2 ** (slot - 1)
    rng = random.Random(slot)
    edges = [top - 1, 1 - top, -top, 0, 1, -1]
    mat = [
        [rng.choice(edges) if rng.random() < 0.6 else rng.randint(-top, top - 1)
         for _ in range(n)]
        for _ in range(n)
    ]
    res = _Resolvent(n, slot, False)
    res.packed.append([sum(x << (slot * k) for k, x in enumerate(row)) for row in mat])
    assert reference.unpacked_resolvent(res) == [mat]
    assert res.diagonal(res.packed[0]) == [mat[i][i] for i in range(n)]
    assert res.diagonals() == [(mat[u][u],) for u in range(n)]
    assert res.polys(1) == [(x,) for x in mat[1]]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("c", [0, 3, -7, 2**40])
def test_scalar_matrix_has_a_degree_one_psi(n, c):
    # M = cI: psi = y - c, B_0 = I, and M + psi_0 I is psi(M) itself
    rows = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    psi, res = _resolvent_int(rows, [-c, 1])
    assert (psi, reference.unpacked_resolvent(res)) == ([-c, 1], [eye])
    assert res.diagonals() == [(1,)] * n
    with pytest.raises(NotAnnihilatingError):
        _resolvent_int(rows, [1 - c, 1])
    # Faddeev-LeVerrier: phi = (y - c)^n, and at n = 4 the watch stops
    # the pass at psi once it has read p_0, p_1, p_2
    phi, res = traced_pass(rows)
    assert phi == [math.comb(n, k) * (-c) ** (n - k) for k in range(n + 1)]
    assert res.psi == ([-c, 1] if n == 4 else phi)
    check_against_reference(rows, res.psi, res)


@pytest.mark.parametrize("x", [0, -5, 2**70])
def test_one_by_one_matrix(x):
    for psi in (None, [-x, 1]):
        phi, res = _resolvent_int([[x]], psi, _charpoly_bound([[x]]))
        assert (phi, res.diagonals()) == ([-x, 1], [(1,)])
        assert reference.unpacked_resolvent(res) == [[[1]]]
    wide = traced_pass([[x]])[1].slot > 64
    assert wide == (x == 2**70)
    with pytest.raises(NotAnnihilatingError):
        _resolvent_int([[x]], [-x - 1, 1])


def test_traced_char_poly_coefficient_past_the_bound_raises():
    # K4: phi = y^4 - 6 y^2 - 8 y - 3; a bound of 1 still leaves a 64-bit
    # slot, so the traces read exactly and |phi_2| = 6 trips the check
    k4 = [[int(i != j) for j in range(4)] for i in range(4)]
    assert traced_pass(k4)[0] == [-3, -8, -6, 0, 1]
    with pytest.raises(ArithmeticError, match="Hadamard bound"):
        _resolvent_int(k4, bound=1)


@pytest.mark.parametrize("w", [1, 2**40])
def test_wrong_psi_raises_on_both_slot_paths(w):
    rows = [[0, w], [w, 0]]
    psi, res = _resolvent_int(rows, [-(w * w), 0, 1])
    # the bound chain: 1, rho + |psi_1| = w, rho w + |psi_0| = 2 w^2
    assert res.slot == (64 if w == 1 else 83)
    check_against_reference(rows, psi, res)
    for wrong in ([-(w * w) + 1, 0, 1], [-(w * w), 1, 1], [0, 0, 1]):
        with pytest.raises(NotAnnihilatingError):
            _resolvent_int(rows, wrong)


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
        # the span routine takes integer rows: rational matrices are scaled
        # by one common denominator, which keeps every span relation
        a = [[F(1, 2), F(1, 3)], [F(-2, 7), 1]]
        b = [[F(5, 3), 0], [F(1, 9), F(-4, 5)]]
        target = combination([F(7, 11), F(-13, 4)], [a, b])
        nudged = [target[0], [target[1][0], target[1][1] + F(1, 10**30)]]
        mats = (a, b, target, nudged)
        scale = math.lcm(*(F(x).denominator for m in mats for row in m for x in row))
        a, b, target, nudged = (
            [[int(x * scale) for x in row] for row in m] for m in mats
        )
        assert in_span(target, [a, b])
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
        assert in_span(combination([5, -2], [ident, odd]), basis)
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
