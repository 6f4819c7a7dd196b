"""Discrete-walk average mixing: literal vs physical, Cesaro control."""

import random
from fractions import Fraction

import numpy as np
import pytest

from avgmix.discrete import (
    avg_mixing_literal,
    avg_mixing_physical,
    cesaro_error_bound,
    cesaro_partial,
)
import reference
from avgmix.exact import ExactMatrix

F = Fraction


def rotation_345() -> ExactMatrix:
    return ExactMatrix([[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]])


def orthogonal_third() -> ExactMatrix:
    rows = [[2, -2, 1], [1, 2, 2], [2, 1, -2]]
    return ExactMatrix([[F(x, 3) for x in row] for row in rows])


def signed_permutation(rng: random.Random, n: int) -> ExactMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([1, -1])
    return ExactMatrix(rows)


def symmetric_signed_permutation(rng: random.Random, n: int) -> ExactMatrix:
    # an involution with one sign per orbit stays symmetric
    vertices = list(range(n))
    rng.shuffle(vertices)
    rows = [[0] * n for _ in range(n)]
    while vertices:
        a = vertices.pop()
        sign = rng.choice([1, -1])
        if vertices and rng.random() < 0.6:
            b = vertices.pop()
            rows[a][b] = rows[b][a] = sign
        else:
            rows[a][a] = sign
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_rotation_literal_value():
    expected = ExactMatrix(
        [[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]]
    )
    assert avg_mixing_literal(rotation_345()) == expected


def test_rotation_physical_value():
    expected = ExactMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert avg_mixing_physical(rotation_345()) == expected


def test_rotation_literal_rows_do_not_sum_to_one():
    assert avg_mixing_literal(rotation_345()).row_sums() == (F(0), F(0))


def test_identity_and_reflection_are_fixed_points():
    ident = ExactMatrix.identity(2)
    assert avg_mixing_literal(ident) == ident
    assert avg_mixing_physical(ident) == ident
    reflect = ExactMatrix([[1, 0], [0, -1]])
    assert avg_mixing_literal(reflect) == ident
    assert avg_mixing_physical(reflect) == ident


def test_swap_mixes_completely():
    swap = ExactMatrix([[0, 1], [1, 0]])
    half = ExactMatrix([[F(1, 2)] * 2] * 2)
    assert avg_mixing_literal(swap) == half
    assert avg_mixing_physical(swap) == half


def test_cyclic_shift_separates_literal_from_physical():
    shift = ExactMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    third = F(1, 3)
    assert avg_mixing_literal(shift) == ExactMatrix(
        [[third if i == j else 0 for j in range(3)] for i in range(3)]
    )
    assert avg_mixing_physical(shift) == ExactMatrix([[third] * 3] * 3)


def test_block_sum_of_rotation_and_fixed_point():
    r = rotation_345()
    u = ExactMatrix(
        [
            [r[0, 0], r[0, 1], F(0)],
            [r[1, 0], r[1, 1], F(0)],
            [F(0), F(0), F(1)],
        ]
    )
    physical = avg_mixing_physical(u)
    assert physical == ExactMatrix(
        [
            [F(1, 2), F(1, 2), F(0)],
            [F(1, 2), F(1, 2), F(0)],
            [F(0), F(0), F(1)],
        ]
    )
    literal = avg_mixing_literal(u)
    assert literal[0, 1] == F(-1, 2)
    assert literal[2, 2] == F(1)


def test_rational_orthogonal_third_matrix():
    u = orthogonal_third()
    physical = avg_mixing_physical(u)
    assert physical.row_sums() == (F(1),) * 3
    assert all(x >= 0 for x in physical.entries())
    literal = avg_mixing_literal(u)
    assert literal.is_symmetric()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_non_orthogonal_rejected():
    with pytest.raises(ValueError):
        avg_mixing_literal(ExactMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        avg_mixing_physical(ExactMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        cesaro_partial(ExactMatrix([[1, 0]]), 10)


def test_step_counts_must_be_positive():
    with pytest.raises(ValueError):
        cesaro_partial(rotation_345(), 0)
    with pytest.raises(ValueError):
        cesaro_error_bound(rotation_345(), -3)


# ---------------------------------------------------------------------------
# structural properties on a seeded corpus
# ---------------------------------------------------------------------------


def rational_reference(u: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """(literal, physical) through Q[y]/(psi) by `tests/reference.py`:
    g_uv = (f_uv w) mod psi interpolates (E_r)_uv, and the conjugate
    eigenvalue is paired in by composing with y^-1 mod psi."""
    rows = u.to_lists()
    return (
        ExactMatrix(reference.mixing(rows)),
        ExactMatrix(reference.mixing(rows, conjugate=True)),
    )


def test_integer_engine_matches_rational_reference():
    rng = random.Random(96)
    cases = [rotation_345(), orthogonal_third(), ExactMatrix.identity(4)]
    cases += [signed_permutation(rng, n) for n in (3, 5, 6, 6)]
    cases += [symmetric_signed_permutation(rng, n) for n in (4, 6)]
    # a rotation block next to fixed points: eigenvalues 3/5 +- 4i/5, 1, 1
    r = rotation_345()
    cases.append(
        ExactMatrix(
            [
                [r[0, 0], r[0, 1], 0, 0],
                [r[1, 0], r[1, 1], 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
    )
    for u in cases:
        literal, physical = rational_reference(u)
        assert avg_mixing_literal(u) == literal
        assert avg_mixing_physical(u) == physical


def test_physical_invariants_on_signed_permutations():
    rng = random.Random(91)
    for _ in range(10):
        n = rng.randint(2, 6)
        u = signed_permutation(rng, n)
        physical = avg_mixing_physical(u)
        assert physical.row_sums() == (F(1),) * n
        assert all(x >= 0 for x in physical.entries())
        literal = avg_mixing_literal(u)
        assert literal.is_symmetric()


def test_literal_equals_physical_for_symmetric_steps():
    rng = random.Random(92)
    for _ in range(10):
        n = rng.randint(2, 6)
        u = symmetric_signed_permutation(rng, n)
        assert avg_mixing_literal(u) == avg_mixing_physical(u)


def test_identity_minus_physical_is_psd():
    for u in [rotation_345(), orthogonal_third()]:
        gap = np.eye(u.nrows) - np.array(
            avg_mixing_physical(u).to_float()
        )
        values = np.linalg.eigvalsh((gap + gap.T) / 2)
        assert values.min() >= -1e-9


# ---------------------------------------------------------------------------
# Cesaro averages
# ---------------------------------------------------------------------------


def test_partial_average_of_identity_is_exact():
    ident = ExactMatrix.identity(3)
    assert np.allclose(cesaro_partial(ident, 5), np.eye(3))


def test_swap_partial_average_at_two_steps():
    # (I + T o T^-1) / 2 = (I + T o T) / 2 = J/2 for the swap T
    swap = ExactMatrix([[0, 1], [1, 0]])
    assert np.allclose(cesaro_partial(swap, 2), np.full((2, 2), 0.5))


def test_rotation_partial_average_within_bound_of_literal():
    u = rotation_345()
    exact = np.array(avg_mixing_literal(u).to_float())
    for steps in (100, 1000, 10_000):
        gap = np.max(np.abs(cesaro_partial(u, steps) - exact))
        assert gap <= cesaro_error_bound(u, steps)


def test_bound_scales_inversely_with_steps():
    u = orthogonal_third()
    b100 = cesaro_error_bound(u, 100)
    b1000 = cesaro_error_bound(u, 1000)
    assert abs(b100 - 10 * b1000) < 1e-12


def test_third_matrix_partial_average_converges():
    u = orthogonal_third()
    exact = np.array(avg_mixing_literal(u).to_float())
    gap = np.max(np.abs(cesaro_partial(u, 10_000) - exact))
    assert gap <= cesaro_error_bound(u, 10_000)
    assert gap < 1e-2


def test_signed_permutation_partial_average_within_bound():
    rng = random.Random(93)
    for _ in range(5):
        u = signed_permutation(rng, rng.randint(2, 5))
        exact = np.array(avg_mixing_literal(u).to_float())
        gap = np.max(np.abs(cesaro_partial(u, 4096) - exact))
        # signed permutations have finite order, so partial averages can
        # be exact; the bound must still dominate
        assert gap <= cesaro_error_bound(u, 4096) + 1e-12


def euclid_rotation_walk() -> ExactMatrix:
    # four rotations from the Euclid triples of (m, k m // 5 + 1),
    # m = 10**10 + k: the lcm of the denominators has 258 bits, so
    # c^deg psi would overflow a float without the rescaling
    n = 8
    rows = [[F(0)] * n for _ in range(n)]
    for k in range(1, 5):
        m = 10**10 + k
        p = k * m // 5 + 1
        a, b, c = m * m - p * p, 2 * m * p, m * m + p * p
        i = 2 * (k - 1)
        rows[i][i] = rows[i + 1][i + 1] = F(a, c)
        rows[i][i + 1], rows[i + 1][i] = F(-b, c), F(b, c)
    return ExactMatrix(rows)


def rational_route_bound(u: ExactMatrix, steps: int) -> float:
    """The bound from the rational squarefree part and resolvent of U."""
    rows = u.to_lists()
    psi = reference.squarefree(reference.char_poly(rows))
    mats = [np.array(b, dtype=complex) for b in reference.resolvent(rows, psi)]
    derivative = reference.derivative(psi)
    roots = np.roots([float(c) for c in reversed(psi)])
    projectors = [
        sum(mats[k] * theta**k for k in range(len(mats)))
        / sum(float(c) * theta**k for k, c in enumerate(derivative))
        for theta in roots
    ]
    return sum(
        2.0 * float(np.max(np.abs(projectors[r] * projectors[s])))
        / (steps * abs(1.0 - roots[r] / roots[s]))
        for r in range(len(roots))
        for s in range(len(roots))
        if r != s
    )


def test_bound_with_large_denominators_matches_rational_route():
    u = euclid_rotation_walk()
    bound = cesaro_error_bound(u, 200)
    expected = rational_route_bound(u, 200)
    assert np.isfinite(bound)
    assert abs(bound - expected) <= 1e-9 * expected


def test_bound_matches_rational_route_on_random_walks():
    rng = random.Random(97)
    cases = [rotation_345(), orthogonal_third()]
    cases += [signed_permutation(rng, rng.randint(1, 6)) for _ in range(6)]
    for u in cases:
        expected = rational_route_bound(u, 50)
        assert abs(cesaro_error_bound(u, 50) - expected) <= 1e-9 * max(expected, 1.0)


def test_identity_minus_literal_is_psd():
    # each partial average (1/N) sum U^t o U^-t has spectrum below 1,
    # and the property survives the limit
    rng = random.Random(95)
    cases = [rotation_345(), orthogonal_third()]
    cases.extend(signed_permutation(rng, rng.randint(2, 5)) for _ in range(3))
    for u in cases:
        literal = np.array(avg_mixing_literal(u).to_float())
        low = np.linalg.eigvalsh(np.eye(u.nrows) - literal)[0]
        assert low >= -1e-12


def test_identity_minus_partial_average_is_psd():
    rng = random.Random(94)
    cases = [rotation_345(), orthogonal_third()]
    cases.extend(signed_permutation(rng, rng.randint(2, 5)) for _ in range(3))
    for u in cases:
        partial = cesaro_partial(u, 500)
        low = np.linalg.eigvalsh(np.eye(u.nrows) - partial)[0]
        assert low >= -1e-8
