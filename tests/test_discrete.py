"""Discrete-walk average mixing: literal vs physical, Cesaro control."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from avgmix.discrete import (
    _block_forms,
    _require_orthogonal,
    _round_up_sqrt,
    _twelve_denom_s,
    avg_mixing_limits,
    avg_mixing_literal,
    avg_mixing_physical,
    cesaro_error_bound,
    cesaro_partial,
)
import reference
from avgmix.cli import main
from avgmix.exact import ExactMatrix
from avgmix.mixing import (
    _TraceTable,
    _largest_diagonal,
    _literal,
    _mixing_matrix,
    _trace_form,
)

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


def conjugated_block_sum(blocks: list[ExactMatrix], rng: random.Random) -> ExactMatrix:
    """P diag(blocks) P^T for a seeded signed permutation P."""
    n = sum(block.nrows for block in blocks)
    rows = [[F(0)] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block.to_lists()):
            rows[at + i][at : at + len(row)] = row
        at += block.nrows
    p = signed_permutation(rng, n).to_lists()
    pt = [list(col) for col in zip(*p)]
    return ExactMatrix(reference.matmul(reference.matmul(p, rows), pt))


def rotation_5_12_13() -> ExactMatrix:
    return ExactMatrix([[F(5, 13), F(12, 13)], [F(-12, 13), F(5, 13)]])


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
    # positive ints only: True would count as 1 step, 2.5 would scale the bound
    for steps in (0, -3, True, 2.5, 3.0, "4"):
        for average in (cesaro_partial, cesaro_error_bound):
            with pytest.raises(ValueError, match="steps"):
                average(rotation_345(), steps)


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


def signed_cycle(rng: random.Random, n: int) -> ExactMatrix:
    """A signed permutation that is one n-cycle: its eigenvalues are the
    n distinct roots of x^n = +-1, a simple spectrum."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[order[i]][order[(i + 1) % n]] = rng.choice([1, -1])
    return ExactMatrix(rows)


def entry_route(form, literal=False):
    # one whole product per pair, f_ab read straight off the B_j
    return ExactMatrix(
        reference.entry_numerators(
            reference.unpacked_resolvent(form.resolvent), form.tau, literal
        ),
        form.denom,
    )


def permutation(cycles: list[list[int]]) -> ExactMatrix:
    n = sum(map(len, cycles))
    rows = [[0] * n for _ in range(n)]
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rows[a][b] = 1
    return ExactMatrix(rows)


def test_grouped_limits_match_per_pair_reference_on_repeated_spectra():
    # non-symmetric walks with repeated eigenvalues: two 3-cycles and a
    # 4-cycle (the cube roots of unity twice, 1 three times), and two
    # copies of the 3-4-5 rotation next to a fixed point
    r = rotation_345().to_lists()
    rot = [[F(0)] * 5 for _ in range(5)]
    for k in (0, 2):
        for i in range(2):
            for j in range(2):
                rot[k + i][k + j] = r[i][j]
    rot[4][4] = F(1)
    walks = [
        permutation([[0, 3, 5], [1, 2, 4], [6, 8, 9, 7]]),
        ExactMatrix(rot),
    ]
    for u in walks:
        assert not u.is_symmetric()
        form = _trace_form(_require_orthogonal(u))
        assert form.disc_char == 0
        physical = entry_route(form)
        literal = entry_route(form, literal=True)
        assert _mixing_matrix(form)[0] == physical
        assert _literal(form) == literal
        assert avg_mixing_limits(u) == (literal, physical)


def test_literal_computes_one_entry_per_shift(trace_tables):
    # on the cyclic shift of Z_n, f_ab depends only on b - a mod n
    for n in range(2, 9):
        trace_tables.clear()
        avg_mixing_literal(permutation([list(range(n))]))
        [table] = trace_tables
        assert table.computed == n


class Skewed(_TraceTable):
    """A trace table whose second computed entry is off by one."""

    def __missing__(self, key):
        value = super().__missing__(key)
        if len(self) == 2:
            value = self[key] = value + 1
        return value


def test_literal_symmetry_is_a_hard_check(monkeypatch, tmp_path, capsys):
    # on the 3-4-5 rotation the second distinct key is (f_01, f_01) and
    # f_10 != f_01, so a wrong entry (0, 1) breaks the symmetry
    monkeypatch.setattr("avgmix.mixing._TraceTable", Skewed)
    message = "the literal average mixing matrix must be symmetric"
    with pytest.raises(AssertionError, match=message):
        avg_mixing_literal(rotation_345())
    # the CLI reports it as an internal fault
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"n": 2, "entries": [["3/5", "4/5"], ["-4/5", "3/5"]]}))
    code = main(["discrete", "--unitary-file", str(path), "--mode", "literal"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"internal invariant violated: {message}\n"


def test_physical_gram_route_on_simple_spectra():
    rng = random.Random(97)
    cases = [signed_cycle(rng, n) for n in range(1, 9) for _ in range(2)]
    # Q (rotation + fixed point) Q^T: eigenvalues 3/5 +- 4i/5 and 1
    r = rotation_345()
    block = [[r[0, 0], r[0, 1], 0], [r[1, 0], r[1, 1], 0], [0, 0, 1]]
    q = orthogonal_third().to_lists()
    qt = [list(col) for col in zip(*q)]
    cases.append(ExactMatrix(reference.matmul(reference.matmul(q, block), qt)))
    for u in cases:
        rows = _require_orthogonal(u)
        form = _trace_form(rows)
        assert form.disc_char != 0
        gram = _mixing_matrix(form)[0]
        assert gram == entry_route(form)
        physical = avg_mixing_physical(u)
        assert physical == gram
        assert physical == ExactMatrix(reference.simple_spectrum_mixing(rows))


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
    rng = random.Random(98)
    cases = [rotation_345(), orthogonal_third(), mixed_rotations()]
    cases += [signed_permutation(rng, n) for n in (4, 6)]
    cases += [conjugated_block_sum(blocks, rng) for blocks in block_sums().values()]
    for u in cases:
        physical = avg_mixing_physical(u)
        gap = np.eye(u.nrows) - np.array(physical.to_float())
        values = np.linalg.eigvalsh((gap + gap.T) / 2)
        assert values.min() >= -1e-9
        # exactly, on the numerators of d I - d P
        d = physical.denominator
        assert reference.is_psd(
            [[d * (i == j) - x for j, x in enumerate(row)]
             for i, row in enumerate(physical.numerators)]
        )


# ---------------------------------------------------------------------------
# reducible walks: one trace form per block
# ---------------------------------------------------------------------------


def transpose(u: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(list(zip(*u.numerators)), u.denominator)


def block_sums() -> dict[str, list[ExactMatrix]]:
    """Block sums whose blocks share eigenvalues, or are 1 x 1."""
    plus, minus = ExactMatrix([[1]]), ExactMatrix([[-1]])
    return {
        "equal rotations": [rotation_345(), rotation_345()],
        # (3 +- 4i) / 5 in both blocks, each block's E_r the other's conj(E_r)
        "rotation and transpose": [rotation_345(), transpose(rotation_345())],
        "fixed points": [rotation_345(), plus, rotation_5_12_13(), minus, plus],
        "lone 1x1": [orthogonal_third(), minus],
    }


@pytest.mark.parametrize("name", sorted(block_sums()))
def test_block_sums_match_the_whole_matrix_route(name):
    for seed in (11, 12, 13):
        u = conjugated_block_sum(block_sums()[name], random.Random(seed))
        form = _trace_form(_require_orthogonal(u))
        literal, physical = _literal(form), _mixing_matrix(form)[0]
        assert (literal, physical) == rational_reference(u)
        assert avg_mixing_literal(u) == literal
        assert avg_mixing_physical(u) == physical
        assert avg_mixing_limits(u) == (literal, physical)


def block_cases() -> list[tuple[ExactMatrix, list[int]]]:
    """Walks and the sizes of the blocks that their support splits into."""
    sums = block_sums()
    fixed = conjugated_block_sum(sums["fixed points"], random.Random(11))
    lone = conjugated_block_sum(sums["lone 1x1"], random.Random(12))
    return [
        (orthogonal_third(), [3]),
        (permutation([[0, 2, 1]]), [3]),
        (mixed_rotations(), [2, 2, 3]),
        (fixed, [1, 1, 1, 2, 2]),
        (lone, [1, 3]),
    ]


def test_each_limit_runs_one_trace_form_per_block(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return _trace_form(rows)

    def bound(u):
        return cesaro_error_bound(u, 100)

    monkeypatch.setattr("avgmix.discrete._trace_form", counted)
    for u, sizes in block_cases():
        for run in (avg_mixing_literal, avg_mixing_physical, avg_mixing_limits, bound):
            calls.clear()
            run(u)
            assert sorted(calls) == sizes


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


def mixed_rotations() -> ExactMatrix:
    """Rotations by 3-4-5 and 5-12-13 and `orthogonal_third` on the
    diagonal, conjugated by a signed permutation of the 7 vertices."""
    blocks = [rotation_345(), rotation_5_12_13(), orthogonal_third()]
    return conjugated_block_sum(blocks, random.Random(97))


@pytest.mark.parametrize("steps", [1, 2, 3, 199, 200, 10_000])
def test_blocked_partial_average_matches_the_sequential_loop(steps):
    # blocks of isqrt(N) powers, N below, at and off a square
    rng = random.Random(96)
    cases = [rotation_345(), orthogonal_third(), signed_permutation(rng, 5)]
    cases.append(mixed_rotations())
    for u in cases:
        want = reference.cesaro_partial(u.to_float(), steps)
        assert np.max(np.abs(cesaro_partial(u, steps) - want)) <= 1e-12


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


def gap_sum(u: ExactMatrix) -> float:
    """S = sum_(r != s) |theta_r - theta_s|^-2 from float roots of the
    rational squarefree part of the char poly of U."""
    psi = reference.squarefree(reference.char_poly(u.to_lists()))
    roots = np.roots([float(c) for c in reversed(psi)])
    return sum(
        abs(roots[r] - roots[s]) ** -2.0
        for r in range(len(roots))
        for s in range(len(roots))
        if r != s
    )


def rational_route_bound(u: ExactMatrix, steps: int) -> float:
    """(2/N) max_uv P_uv sqrt(S), with the physical limit P from the
    rational reference and S from float roots."""
    physical = reference.mixing(u.to_lists(), conjugate=True)
    return 2.0 * float(max(map(max, physical))) * gap_sum(u) ** 0.5 / steps


def support_blocks(u: ExactMatrix) -> list[list[int]]:
    """The blocks of U, grown from each least unplaced vertex through the
    nonzero entries of its row and its column."""
    rows = u.to_lists()
    n = len(rows)
    left, blocks = set(range(n)), []
    while left:
        block, todo = set(), [min(left)]
        while todo:
            a = todo.pop()
            if a not in block:
                block.add(a)
                todo += [b for b in range(n) if rows[a][b] or rows[b][a]]
        left -= block
        blocks.append(sorted(block))
    return blocks


def block_route_bound(u: ExactMatrix, steps: int) -> float:
    """The largest `rational_route_bound` of the blocks of U: the gap to
    the literal limit is zero across blocks and, inside one, that
    block's own."""
    rows = u.to_lists()
    return max(
        rational_route_bound(ExactMatrix([[rows[i][j] for j in b] for i in b]), steps)
        for b in support_blocks(u)
    )


def test_bound_with_large_denominators_matches_rational_route():
    u = euclid_rotation_walk()
    bound = cesaro_error_bound(u, 200)
    expected = block_route_bound(u, 200)
    assert np.isfinite(bound)
    assert abs(bound - expected) <= 1e-9 * expected
    assert bound <= rational_route_bound(u, 200)


def test_bound_runs_no_hessenberg_residue_on_a_multi_prime_walk(monkeypatch):
    # the Euclid walk needs several primes, so the bound reads its char
    # poly off the traced resolvent pass alone
    u = euclid_rotation_walk()
    expected = cesaro_error_bound(u, 200)

    def refuse(*args, **kwargs):
        raise AssertionError("a residue mod P0 was computed")

    monkeypatch.setattr("avgmix.exact._charpoly_mod", refuse)
    assert cesaro_error_bound(u, 200) == expected


def test_bound_matches_rational_route_on_random_walks():
    rng = random.Random(97)
    cases = [rotation_345(), orthogonal_third()]
    cases += [signed_permutation(rng, rng.randint(1, 6)) for _ in range(6)]
    for u in cases:
        bound = cesaro_error_bound(u, 50)
        expected = block_route_bound(u, 50)
        assert abs(bound - expected) <= 1e-9 * max(expected, 1.0)
        assert bound <= rational_route_bound(u, 50) + 1e-9 * max(expected, 1.0)


def reducible_walks() -> list[ExactMatrix]:
    walks = [mixed_rotations(), euclid_rotation_walk()]
    for seed in (11, 12, 13):
        walks += [conjugated_block_sum(b, random.Random(seed)) for b in block_sums().values()]
    return walks


def test_bound_on_reducible_walks_is_the_largest_block_bound():
    for u in reducible_walks():
        assert len(support_blocks(u)) > 1
        literal = np.array(avg_mixing_literal(u).to_float())
        # both references are their value at N = 1 over N
        block, whole = block_route_bound(u, 1), rational_route_bound(u, 1)
        for steps in (50, 200, 1000):
            bound = cesaro_error_bound(u, steps)
            assert abs(bound - block / steps) <= 1e-9 * block / steps
            # S_k sums over a subset of the pairs of S, max P_k <= max P
            assert bound <= whole / steps * (1 + 1e-9)
            assert np.max(np.abs(cesaro_partial(u, steps) - literal)) <= bound


def test_bound_is_zero_on_signed_diagonal_walks():
    # every block is 1 x 1 with deg psi = 1: no cross term anywhere, though
    # the whole psi of diag(1, -1) has two roots
    assert cesaro_error_bound(ExactMatrix([[1, 0], [0, -1]]), 10) == 0.0
    rng = random.Random(99)
    for n in range(1, 7):
        u = ExactMatrix([[rng.choice([1, -1]) * (i == j) for j in range(n)] for i in range(n)])
        for steps in (1, 10, 1000):
            assert cesaro_error_bound(u, steps) == 0.0


def smoke_reducible() -> ExactMatrix:
    """The 5 x 5 walk of the CI smoke test: a 3-4-5 rotation, its
    transpose and a fixed point, conjugated by a fixed signed permutation."""
    b = [[F(0)] * 5 for _ in range(5)]
    b[0][0] = b[1][1] = b[2][2] = b[3][3] = F(3, 5)
    b[0][1] = b[3][2] = F(4, 5)
    b[1][0] = b[2][3] = F(-4, 5)
    b[4][4] = F(1)
    perm, sign = [3, 0, 4, 1, 2], [1, -1, 1, 1, -1]
    return ExactMatrix(
        [[sign[i] * sign[j] * b[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
    )


def test_bound_of_the_smoke_walk_is_the_rotation_bound():
    # each rotation block has S = 25/32 and max P = 1/2, the fixed point S = 0
    u = smoke_reducible()
    assert sorted(map(len, support_blocks(u))) == [1, 2, 2]
    for steps in (1, 10, 1000):
        bound = cesaro_error_bound(u, steps)
        assert bound == cesaro_error_bound(rotation_345(), steps)
        square = F(25, 32) / steps**2
        assert F(bound) ** 2 >= square > F(math.nextafter(bound, 0)) ** 2


def test_gap_sum_hand_values_fix_the_bound():
    # the 3-4-5 rotation: theta = (3 +- 4i) / 5, |theta_1 - theta_2| = 8/5,
    # S = 2 (5/8)^2 = 25/32; the swap: theta = +-1, S = 2 / 4 = 1/2; both
    # have max P = 1/2, so bound^2 = 4 S / 4 / N^2 = S / N^2
    swap = ExactMatrix([[0, 1], [1, 0]])
    for u, s in ((rotation_345(), F(25, 32)), (swap, F(1, 2))):
        assert abs(gap_sum(u) - s) <= 1e-12
        for steps in (1, 50, 1000):
            bound = cesaro_error_bound(u, steps)
            square = s / steps**2
            assert F(bound) ** 2 >= square > F(math.nextafter(bound, 0)) ** 2


def test_bound_is_zero_exactly_for_one_eigenvalue(monkeypatch):
    # deg psi = 1 (U = +-I) leaves no cross term, so S = 0 and the bound is
    # exactly 0; for deg psi >= 2 a zero S is a hard failure
    for sign in (1, -1):
        u = ExactMatrix([[sign if i == j else 0 for j in range(3)] for i in range(3)])
        assert cesaro_error_bound(u, 7) == 0.0
    monkeypatch.setattr("avgmix.discrete._int_derivative", lambda p: [])
    with pytest.raises(AssertionError, match="S must be positive"):
        cesaro_error_bound(rotation_345(), 7)


def rotation(m: int, p: int) -> list[list[Fraction]]:
    # the rotation of the Euclid triple (m^2 - p^2, 2 m p, m^2 + p^2)
    a, b, c = m * m - p * p, 2 * m * p, m * m + p * p
    return [[F(a, c), F(-b, c)], [F(b, c), F(a, c)]]


def close_angle_walk(m: int, p: int) -> ExactMatrix:
    """H diag(R(m, p), R(m + 1, p)) H with the symmetric Hadamard H / 2:
    two rotations whose angles differ by about 2 p / m^2."""
    h = [[F(x, 2) for x in row] for row in
         [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]]
    blocks = [[F(0)] * 4 for _ in range(4)]
    for k, r in ((0, rotation(m, p)), (2, rotation(m + 1, p))):
        for i in range(2):
            for j in range(2):
                blocks[k + i][k + j] = r[i][j]
    return ExactMatrix(reference.matmul(reference.matmul(h, blocks), h))


def test_bound_dominates_the_gap_on_close_angles():
    # eigenvalues 5.5e-13 apart, where float roots of psi lose the gap:
    # a 200-digit evaluation of the closed form of the partial averages
    # puts the largest entry gap at 0.25000 for N = 10^8 and at 0.0045312
    # for N = 10^14, and a bound from float roots read 0.075 and 7.5e-8
    u = close_angle_walk(10**12, 3 * 10**11)
    assert cesaro_error_bound(u, 10**8) >= 0.25
    assert cesaro_error_bound(u, 10**14) >= 4.5e-3


def test_bound_at_huge_step_counts():
    # past the float range of N, and down to the smallest subnormal
    u = rotation_345()
    for steps in (10**309, 10**400):
        bound = cesaro_error_bound(u, steps)
        square = F(25, 32) / steps**2
        assert F(bound) ** 2 >= square > F(math.nextafter(bound, 0)) ** 2
    # sqrt(S) about 10^331 is past the largest float
    assert cesaro_error_bound(close_angle_walk(10**330, 3 * 10**329), 1000) == math.inf


def every_walk() -> list[ExactMatrix]:
    """The walks of the bound tests above, one list."""
    rng = random.Random(97)
    walks = [
        rotation_345(),
        orthogonal_third(),
        rotation_5_12_13(),
        ExactMatrix([[0, 1], [1, 0]]),
        ExactMatrix([[1, 0], [0, -1]]),
        smoke_reducible(),
        euclid_rotation_walk(),
        close_angle_walk(10**12, 3 * 10**11),
        close_angle_walk(10**330, 3 * 10**329),
    ]
    walks += [signed_permutation(rng, n) for n in range(1, 7)]
    walks += [symmetric_signed_permutation(rng, n) for n in range(1, 7)]
    walks += [u for u, _ in block_cases()]
    return walks + reducible_walks()


def physical_limit_bound(u: ExactMatrix, steps: int) -> float:
    """The bound with max P_k read off each block's whole physical limit,
    its largest numerator over its reduced denominator."""
    num, den = 0, 1
    for form in _block_forms(u)[1]:
        physical = _mixing_matrix(form)[0]
        p = max(map(max, physical.numerators))
        block_num = _twelve_denom_s(form) * p * p
        block_den = form.denom * physical.denominator**2
        if block_num * den > num * block_den:
            num, den = block_num, block_den
    return _round_up_sqrt(num, 3 * den * steps * steps)


def test_bound_reads_the_largest_physical_entry_off_the_diagonal():
    # P = sum_r E_r o conj(E_r) is PSD by the Schur product theorem, so its
    # largest entry is a diagonal one, and the bound is the same float
    for u in every_walk():
        for form in _block_forms(u)[1]:
            physical = _mixing_matrix(form)[0].to_lists()
            assert F(_largest_diagonal(form), form.denom) == max(map(max, physical))
        for steps in (1, 7, 200, 10**6):
            assert cesaro_error_bound(u, steps) == physical_limit_bound(u, steps)


def test_bound_builds_no_physical_limit(monkeypatch):
    def refuse(form):
        raise AssertionError("the bound built a physical limit")

    monkeypatch.setattr("avgmix.discrete._mixing_matrix", refuse)
    for u in every_walk():
        cesaro_error_bound(u, 200)


def test_largest_diagonal_in_the_unit_interval_is_a_hard_check():
    # P_uu = sum_r (E_r)_uu^2 with (E_r)_uu >= 0 summing to 1 over r
    form = _trace_form(_require_orthogonal(rotation_345()))
    assert F(_largest_diagonal(form), form.denom) == F(1, 2)
    for scale in (-1, 0, 3):
        broken = form._replace(tau=[scale * t for t in form.tau])
        with pytest.raises(AssertionError, match="largest P_uu"):
            _largest_diagonal(broken)


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
