"""Tests for the exact average mixing pipeline.

The weighted-path example (P6 with weight-2 loops on both ends) is the
main frozen golden value: its mixing matrix has every entry over the
denominator 1926 = 2 * 9 * 107 and its characteristic discriminant is
2^6 * 3^5 * 107, so the integrality certificates are exercised with
nontrivial numbers.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from avgmix import exact, mixing
from avgmix.exact import (
    ExactMatrix,
    ExactPolynomial,
    NotAnnihilatingError,
    _resolvent_int,
)
from avgmix.graphs import (
    WeightedGraph,
    add_loops,
    basis_rows,
    circulant_graph,
    complete_graph,
    cycle_graph,
    matrix_of,
    parse_graph6,
    path_graph,
)
from avgmix.mixing import (
    AvgMixReport,
    IntegralityCertificates,
    _TraceTable,
    _certify,
    _check_mixing_invariants,
    _mixing_matrix,
    _trace_form,
    average_mixing,
    strong_cospectral_kernel,
)
from avgmix.schemes import cyclotomic_scheme

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
    return rows


symmetric_integer_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.integers(-5, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(lambda xs: ExactMatrix(_symmetric_from_upper(n, xs)))
)


@settings(max_examples=40, deadline=None)
@given(symmetric_integer_matrices)
def test_integer_engine_matches_rational_reference(m):
    assert average_mixing(m).mixing == literal_trace_mixing(m)


# weighted graphs with loops: weights 0..6, zero meaning no edge
looped_weighted_rows = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.integers(0, 6), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(lambda xs: _symmetric_from_upper(n, xs))
)


def entry_route_matrix(form):
    # one whole product per pair, f_uv read straight off the B_j: the
    # plain reference for both routes of the trace table
    return ExactMatrix(
        reference.entry_numerators(reference.unpacked_resolvent(form.resolvent), form.tau),
        form.denom,
    )


coefficients = st.one_of(st.just(0), st.integers(-(2**200), 2**200))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda deg: st.tuples(
            st.tuples(*[coefficients] * deg),
            st.tuples(*[coefficients] * deg),
            st.lists(coefficients, min_size=2 * deg - 1, max_size=2 * deg - 1),
        )
    )
)
@example(((0, 0, 3), (5, 0, 0), [0, 1, 0, 2, 0]))
def test_trace_table_is_the_symmetric_hankel_form(case):
    # a T b with T[j][k] = tau[j+k] is sum_k (a b)_k tau_k, and T is
    # symmetric; each distinct key computes one row a T
    a, b, tau = case
    computed = []

    class Table(_TraceTable):
        def row(self, f):
            computed.append(f)
            return super().row(f)

    table = Table(tau)
    assert table[a, b] == reference.trace_numerator(a, b, tau) == table[b, a]
    assert table[a, a] == reference.trace_numerator(a, a, tau)
    assert table[b, b] == reference.trace_numerator(b, b, tau)
    assert sorted(computed) == sorted(key[0] for key in table)
    assert len(table) == len({(a, b), (b, a), (a, a), (b, b)})


def test_simple_spectrum_runs_one_remainder_sequence(monkeypatch):
    # psi = phi, so average_mixing pseudo-divides exactly as often as one
    # `_int_disc` of phi: the check t psi' = D mod psi reads the trace
    # weights, with no pseudo-division of its own
    m = matrix_of(looped_p6(), "adjacency")
    phi = exact._radical_resolvent([list(row) for row in m.numerators])[0]
    calls = []
    prem = exact._int_prem
    monkeypatch.setattr(exact, "_int_prem", lambda f, g: calls.append(1) or prem(f, g))
    exact._int_disc(phi)
    lone = len(calls)
    calls.clear()
    assert average_mixing(m).simple_spectrum and lone > 1
    assert len(calls) == lone


@pytest.mark.parametrize("corrupt", [
    # t off by one in its constant coefficient, t scaled, and t with
    # D = 0, the cofactor of a repeated root
    lambda d, t, g: (d, [t[0] + 1, *t[1:]], g),
    lambda d, t, g: (d, [2 * c for c in t], g),
    lambda d, t, g: (0, [], g),
])
def test_trace_form_refuses_a_wrong_cofactor(monkeypatch, corrupt):
    # the check t psi' = D mod psi runs in `_trace_form`, on the trace
    # weights it builds from t
    rows = [list(row) for row in matrix_of(looped_p6(), "adjacency").numerators]
    disc = exact._int_disc
    monkeypatch.setattr(exact, "_int_disc", lambda psi: corrupt(*disc(psi)))
    with pytest.raises(AssertionError, match="t psi' must be disc"):
        _trace_form(rows)


@settings(max_examples=60, deadline=None)
@given(looped_weighted_rows)
def test_gram_route_matches_entry_route_and_reference(rows):
    form = _trace_form(rows)
    assume(form.disc_char != 0)
    gram = _mixing_matrix(form)[0]
    assert gram == entry_route_matrix(form)
    mixing = average_mixing(ExactMatrix(rows)).mixing
    assert mixing == gram
    assert mixing == ExactMatrix(reference.simple_spectrum_mixing(rows))


def _laplacian(rows):
    # L = D - A of the off-diagonal weights; loops drop out
    return [[sum(row) - row[i] if i == j else -w for j, w in enumerate(row)]
            for i, row in enumerate(rows)]


def _signed_cycle(order, signs):
    # one signed n-cycle: the integer step matrix of a discrete walk, with
    # the n distinct roots of x^n = +-1 as eigenvalues, so D < 0 whenever
    # some of them are complex
    n = len(order)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[order[i]][order[(i + 1) % n]] = signs[i]
    return rows


wide_weighted_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.one_of(st.just(0), st.integers(-(2**30), 2**30)),
        min_size=n * (n + 1) // 2,
        max_size=n * (n + 1) // 2,
    ).map(lambda xs: _symmetric_from_upper(n, xs))
)
signed_cycles = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    )
).map(lambda args: _signed_cycle(*args))


def _gram_inputs(rows):
    """(distinct diagonals, tau) of the trace form of the integer rows."""
    form = _trace_form(rows)
    return list(dict.fromkeys(form.resolvent.diagonals())), form.tau


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    looped_weighted_rows,
    looped_weighted_rows.map(_laplacian),
    wide_weighted_rows,
    signed_cycles,
))
@example([[3, 4], [-4, 3]])
@example(_signed_cycle([0, 1, 2, 3, 4, 5, 6], [1, -1, 1, 1, -1, 1, 1]))
def test_gram_kernels_agree(rows):
    # both kernels on the same form, whatever the size limits pick
    diags, tau = _gram_inputs(rows)
    slot = mixing._gram_slot(diags, tau)
    assert mixing._gram_packed(diags, tau, slot) == mixing._gram_direct(diags, tau)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 15, 31])
@pytest.mark.parametrize("bits_f, bits_t", [(1, 1), (1, 40), (8, 3), (20, 200)])
def test_packed_gram_slot_holds_the_largest_entries(m, bits_f, bits_t):
    # every |coefficient| at 2^b - 1 and every sign aligned: the sums of
    # F T and F T F^T reach their bounds less one unit, the worst case of
    # the slot; mixed signs put negative entries next to positive ones
    f, t = (1 << bits_f) - 1, (1 << bits_t) - 1
    for signs in ([1, 1, 1], [1, -1, 1], [-1, -1, 1]):
        diags = [(sign * f,) * m for sign in signs]
        for tau in ([t] * (2 * m - 1), [-t] * (2 * m - 1)):
            slot = mixing._gram_slot(diags, tau)
            dots = mixing._gram_packed(diags, tau, slot)
            assert dots == mixing._gram_direct(diags, tau)
            assert abs(dots[0][0]) == m * m * f * f * t


def test_gram_kernel_selection(gram_kernels):
    # the packed kernel on narrow forms of degree >= 6, the direct one on
    # wide or short forms
    rng = random.Random(3)
    g12 = [list(row) for row in matrix_of(random_weighted_graph(rng, 12, 1)).numerators]
    pairs = list(itertools.combinations(range(20), 2))
    g20 = [[0] * 20 for _ in range(20)]
    for i, j in rng.sample(pairs, 57):
        g20[i][j] = g20[j][i] = rng.randint(1, 30)
    for rows, kernel in [
        ([list(row) for row in matrix_of(path_graph(36)).numerators], "_gram_packed"),
        (g12, "_gram_packed"),
        (g20, "_gram_direct"),
    ]:
        gram_kernels.clear()
        form = _trace_form(rows)
        assert form.disc_char
        diags, tau = _gram_inputs(rows)
        slot, deg = mixing._gram_slot(diags, tau), len(diags[0])
        narrow = slot <= mixing._PACKED_MAX_SLOT and deg >= mixing._PACKED_MIN_DEG
        assert narrow == (kernel == "_gram_packed")
        _mixing_matrix(form)
        assert gram_kernels == [(kernel, len(diags))]
    # the 3-4-5 rotation block of a discrete walk: D < 0, deg psi = 2
    gram_kernels.clear()
    form = _trace_form([[3, 4], [-4, 3]])
    assert form.disc_min < 0 < len(form.min_poly) - 1 < mixing._PACKED_MIN_DEG
    _mixing_matrix(form)
    assert gram_kernels == [("_gram_direct", 1)]


def _circulant_rows(n, weights, loop):
    # weights[k - 1] joins vertices at circular distance k
    return [
        [loop if i == j else weights[min((j - i) % n, (i - j) % n) - 1]
         for j in range(n)]
        for i in range(n)
    ]


def _multipartite_rows(sizes, weight, loops):
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    return [
        [loops[a] if i == j else 0 if a == b else weight
         for j, b in enumerate(part)]
        for i, a in enumerate(part)
    ]


def _twin_tree_rows(parents, weights, loops, hub, twin_weight, twin_loop):
    # a weighted tree with loops, plus three twin leaves on one vertex:
    # e_a - e_b for twins a, b is an eigenvector, twice over
    k = len(parents) + 1
    n = k + 3
    rows = [[0] * n for _ in range(n)]
    for child, (parent, w) in enumerate(zip(parents, weights), start=1):
        rows[child][parent % child] = rows[parent % child][child] = w
    for i in range(k):
        rows[i][i] = loops[i]
    for leaf in range(k, n):
        rows[leaf][hub % k] = rows[hub % k][leaf] = twin_weight
        rows[leaf][leaf] = twin_loop
    return rows


def _complement_rows(rows, loop):
    n = len(rows)
    return [
        [loop if i == j else int(not rows[i][j]) for j in range(n)]
        for i in range(n)
    ]


repeated_spectrum_rows = st.one_of(
    st.integers(3, 9).flatmap(
        lambda n: st.builds(
            _circulant_rows,
            st.just(n),
            st.lists(st.integers(0, 4), min_size=n // 2, max_size=n // 2),
            st.integers(0, 3),
        )
    ),
    st.lists(st.integers(1, 3), min_size=1, max_size=2).flatmap(
        lambda sizes: st.builds(
            _multipartite_rows,
            st.just([3] + sizes),
            st.integers(1, 4),
            st.lists(st.integers(0, 3), min_size=3, max_size=3),
        )
    ),
    st.integers(0, 5).flatmap(
        lambda k: st.builds(
            _twin_tree_rows,
            st.lists(st.integers(0, 10), min_size=k, max_size=k),
            st.lists(st.integers(1, 4), min_size=k, max_size=k),
            st.lists(st.integers(0, 3), min_size=k + 1, max_size=k + 1),
            st.integers(0, 5),
            st.integers(1, 4),
            st.integers(0, 3),
        )
    ),
)
repeated_spectrum_rows = st.one_of(
    repeated_spectrum_rows,
    st.builds(_complement_rows, repeated_spectrum_rows, st.integers(0, 3)),
)


@settings(max_examples=60, deadline=None)
@given(repeated_spectrum_rows)
def test_repeated_spectra_match_the_hankel_reference(rows):
    r = average_mixing(ExactMatrix(rows))
    assert not r.simple_spectrum
    assert r.mixing == ExactMatrix(reference.hankel_mixing(rows))
    # disc(psi) = det H clears every denominator of y^T H^-1 y
    disc = reference.determinant(reference.power_hankel(r.min_poly.coeffs))
    assert r.disc_min == disc
    assert all((disc * x).denominator == 1 for x in r.mixing.entries())
    assert r.certificates.d_integral_minpoly


def reference_trace_weights(psi):
    """Tr(y^k w^2) on Q[y]/(psi), k < 2 deg - 1, with w = 1/psi' by Euclid."""
    deg = len(psi) - 1
    w = reference.inverse_mod(reference.derivative(psi), psi)
    h = reference.poly_divmod(reference.mul(w, w), psi)[1]
    traces = reference.power_traces(psi, deg)
    weights = []
    for _ in range(2 * deg - 1):
        weights.append(reference.trace(h, traces))
        h = reference.poly_divmod([0] + h, psi)[1]
    return weights


def test_trace_weights_match_the_reference():
    rng = random.Random(67)
    # random symmetric integer matrices with loops and negative weights
    cases = []
    for _ in range(25):
        n = rng.randint(1, 6)
        upper = [rng.randint(-4, 4) for _ in range(n * (n + 1) // 2)]
        cases.append(_symmetric_from_upper(n, upper))
    # orthogonal walks scaled to integers: complex pairs make D < 0
    cases += [
        [[3, -4], [4, 3]],
        [[3, -4, 0], [4, 3, 0], [0, 0, 5]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    ]
    # deg psi = 1: zero and scalar matrices
    cases += [[[0] * 4 for _ in range(4)], [[3]], [[-2, 0], [0, -2]]]
    signs = set()
    for rows in cases:
        form = _trace_form(rows)
        expected = reference_trace_weights(form.min_poly)
        assert [F(c, form.denom) for c in form.tau] == expected
        assert form.denom > 0 and abs(form.disc_min) % form.denom == 0
        signs.add(form.disc_min > 0)
    assert signs == {True, False}


def test_repeated_spectrum_takes_the_entry_route(trace_tables):
    # the Gram form is wrong off a simple spectrum: for K3 the keys
    # (f_uu, f_vv) give rank-one products of the diagonal, so the switch
    # must read (f_uv, f_vu) instead
    form = _trace_form([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert form.disc_char == 0
    res = reference.unpacked_resolvent(form.resolvent)
    diags = form.resolvent.diagonals()
    assert diags == [tuple(b[u][u] for b in res) for u in range(3)]
    polys = [[tuple(b[u][v] for b in res) for v in range(3)] for u in range(3)]
    table = _TraceTable(form.tau)
    gram = [[table[f, g] for g in diags] for f in diags]
    assert ExactMatrix(gram, form.denom) != entry_route_matrix(form)
    assert average_mixing(matrix_of(complete_graph(3))).mixing.is_symmetric()
    [recorded] = trace_tables
    pairs = {(polys[u][v], polys[v][u]) for u in range(3) for v in range(3)}
    assert set(recorded) == pairs


def _direct_sum(rows, other):
    n, k = len(rows), len(other)
    return [row + [0] * k for row in rows] + [[0] * n + row for row in other]


def _permuted(rows, perm):
    # P X P^T, with vertex i of X moved to perm[i]
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def _repeated_key_rows(basis):
    """Inputs whose entry polynomials repeat: vertex- or distance-transitive
    graphs, scheme class graphs, two copies of one graph, and paths (simple
    spectra, mirror-equal diagonals)."""
    graphs = [cycle_graph(9), cycle_graph(12), circulant_graph(12, [1, 4])]
    graphs += [complete_graph(7), path_graph(7), path_graph(10)]
    for q, d in [(13, 2), (13, 3)]:
        graphs += [
            WeightedGraph.from_weights(a.numerators) for a in cyclotomic_scheme(q, d)[1:]
        ]
    cases = [basis_rows(g, basis) for g in graphs]
    rng = random.Random(12)
    x = _symmetric_from_upper(7, [int(rng.random() < 0.5) for _ in range(28)])
    for i in range(7):
        x[i][i] = 0
    if basis == "laplacian":
        x = [[sum(row) if i == j else -w for j, w in enumerate(row)]
             for i, row in enumerate(x)]
    perm = list(range(7))
    rng.shuffle(perm)
    cases += [_direct_sum(x, x), _direct_sum(x, _permuted(x, perm))]
    return cases


@pytest.mark.parametrize("basis", ["adjacency", "laplacian"])
def test_grouped_numerators_match_per_pair_reference(basis):
    routes = set()
    for rows in _repeated_key_rows(basis):
        form = _trace_form(rows)
        routes.add(bool(form.disc_char))
        # the per-pair entry route is valid for every spectrum
        expected = entry_route_matrix(form)
        assert _mixing_matrix(form)[0] == expected
        assert average_mixing(ExactMatrix(rows)).mixing == expected
    assert routes == {True, False}


@pytest.mark.parametrize("q, d", [(13, 2), (13, 3), (17, 2)])
def test_class_graphs_compute_at_most_d_plus_one_entries(trace_tables, q, d):
    # Bose-Mesner: every B_j is a polynomial in the class graph A, so it
    # lies in span{A_0, ..., A_d} and f_uv is constant on each class
    for a in cyclotomic_scheme(q, d)[1:]:
        trace_tables.clear()
        assert not average_mixing(a).simple_spectrum
        [table] = trace_tables
        assert 1 <= table.computed <= d + 1


@pytest.mark.parametrize("basis", ["adjacency", "laplacian"])
@pytest.mark.parametrize("n", range(3, 14))
def test_cycle_computes_one_entry_per_distance(trace_tables, n, basis):
    average_mixing(matrix_of(cycle_graph(n), basis))
    [table] = trace_tables
    assert table.computed == n // 2 + 1


@pytest.fixture
def gram_kernels(monkeypatch):
    """(kernel name, number of diagonals) of every Gram product that
    mixing computes while the test runs, in order."""
    runs = []
    for name in ("_gram_direct", "_gram_packed"):
        def spy(diags, *args, kernel=getattr(mixing, name), name=name):
            runs.append((name, len(diags)))
            return kernel(diags, *args)
        monkeypatch.setattr(mixing, name, spy)
    return runs


def test_path_computes_one_gram_row_per_mirror_pair(trace_tables, gram_kernels):
    # a simple spectrum: one Gram product over the distinct diagonals, one
    # per mirror pair f_uu = f_(n-1-u)u, and no vertex pair looked up in
    # a table.  From deg psi = 6 on the packed kernel takes it, with no
    # table at all; below it the direct one computes one row f T per
    # diagonal and its dots inline
    for n in [1, *range(3, 14)]:
        trace_tables.clear()
        gram_kernels.clear()
        assert average_mixing(matrix_of(path_graph(n))).simple_spectrum
        if n >= mixing._PACKED_MIN_DEG:
            assert gram_kernels == [("_gram_packed", (n + 1) // 2)]
            assert trace_tables == []
        else:
            assert gram_kernels == [("_gram_direct", (n + 1) // 2)]
            [table] = trace_tables
            assert table.rows_computed == (n + 1) // 2
            assert table.computed == 0
    # path:2 is K_2, distance-regular of diameter 1: its 2 x 2 quotient
    # reads one key (f_k, f_k) per distance k, one row and one dot each
    trace_tables.clear()
    assert average_mixing(matrix_of(path_graph(2))).simple_spectrum
    [table] = trace_tables
    assert table.computed == 2
    assert table.rows_computed == 2


# ---------------------------------------------------------------------------
# distance-regular graphs: the (d + 1) x (d + 1) quotient route
# ---------------------------------------------------------------------------


def _rows_where(n, adjacent):
    return [[int(u != v and adjacent(u, v)) for v in range(n)] for u in range(n)]


def _diameter(rows):
    """The largest distance between two vertices, by a BFS from each."""
    n, deepest = len(rows), 0
    for start in range(n):
        depth, frontier = {start: 0}, [start]
        while frontier:
            reached = []
            for u in frontier:
                for v in range(n):
                    if rows[u][v] and v not in depth:
                        depth[v] = depth[u] + 1
                        reached.append(v)
            frontier = reached
        deepest = max(deepest, *depth.values())
    return deepest


# the pair differences of the Shrikhande graph on Z4 x Z4
SHRIKHANDE = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
KNESER_PAIRS = list(itertools.combinations(range(5), 2))

# adjacency rows of distance-regular graphs besides cycles and K_n
DISTANCE_REGULAR = {
    "petersen": _rows_where(10, lambda u, v: not set(KNESER_PAIRS[u]) & set(KNESER_PAIRS[v])),
    "Q3": _rows_where(8, lambda u, v: bin(u ^ v).count("1") == 1),
    "Q4": _rows_where(16, lambda u, v: bin(u ^ v).count("1") == 1),
    "K33": _rows_where(6, lambda u, v: (u < 3) != (v < 3)),
    "octahedron": _rows_where(6, lambda u, v: u % 3 != v % 3),
    "paley13": basis_rows(circulant_graph(13, [1, 3, 4])),
    "paley17": basis_rows(circulant_graph(17, [1, 2, 4, 8])),
    "rook3x3": _rows_where(9, lambda u, v: u // 3 == v // 3 or u % 3 == v % 3),
    "shrikhande": _rows_where(
        16, lambda u, v: ((u // 4 - v // 4) % 4, (u - v) % 4) in SHRIKHANDE
    ),
}


def _laplacian(rows):
    return [[sum(row) if i == j else -x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def _quotient_cases():
    """(name, rows) of every M = cI + wA with A connected and
    distance-regular that the tests run through the quotient route."""
    cases = []
    for n in range(3, 41):
        cases += [(f"cycle:{n}", basis_rows(cycle_graph(n)))]
    for n in range(2, 13):
        cases += [(f"complete:{n}", basis_rows(complete_graph(n)))]
    cases += list(DISTANCE_REGULAR.items())
    cases += [(name + "-laplacian", _laplacian(rows)) for name, rows in list(cases)]
    for w in (3, -7):
        for c in (0, 5, -2):
            for name in ("petersen", "Q3"):
                rows = DISTANCE_REGULAR[name]
                scaled = [[c if i == j else w * x for j, x in enumerate(row)]
                          for i, row in enumerate(rows)]
                cases += [(f"{c}I+{w}A({name})", scaled)]
    return cases


QUOTIENT_CASES = _quotient_cases()


def engine_report(rows):
    """The report of the n x n engine: `_trace_form` and `_mixing_matrix`
    on the whole rows."""
    form = _trace_form(rows)
    mixing, cls = _mixing_matrix(form)
    return AvgMixReport(
        mixing=mixing,
        min_poly=ExactPolynomial(form.min_poly),
        char_poly=ExactPolynomial(form.char_poly),
        disc_min=F(form.disc_min),
        disc_char=F(form.disc_char),
        simple_spectrum=form.disc_char != 0,
        common_denominator=mixing.denominator,
        certificates=_certify(mixing.denominator, form.disc_min, form.disc_char),
        vertex_classes=tuple(cls),
    )


def assert_same_report(report, expected):
    assert report == expected
    assert report.char_poly == expected.char_poly
    assert report.min_poly == expected.min_poly
    assert report.vertex_classes == expected.vertex_classes


@pytest.fixture
def routes(monkeypatch):
    """What `average_mixing` runs while the test does: the order of the
    quotient of each `_distance_quotient` call (None for a rejected M),
    and the order of each trace form."""
    seen = {"quotients": [], "forms": []}
    test, form = mixing._distance_quotient, mixing._trace_form

    def spied_test(rows):
        out = test(rows)
        seen["quotients"].append(None if out is None else len(out[1]))
        return out

    def spied_form(rows):
        seen["forms"].append(len(rows))
        return form(rows)

    monkeypatch.setattr(mixing, "_distance_quotient", spied_test)
    monkeypatch.setattr(mixing, "_trace_form", spied_form)
    return seen


@pytest.mark.parametrize(
    "name, rows", QUOTIENT_CASES, ids=[c[0] for c in QUOTIENT_CASES]
)
def test_a_distance_regular_graph_takes_its_quotient(routes, name, rows):
    size = _diameter(rows) + 1
    report = average_mixing(ExactMatrix(rows))
    assert routes == {"quotients": [size], "forms": [size]}
    assert_same_report(report, engine_report(rows))
    assert report.simple_spectrum is (size == len(rows))
    # the reference inverts a Hankel matrix over Fractions: a few tenths of
    # a second at 16 vertices, 13 s at cycle:40
    if len(rows) <= 13 or not name.startswith("cycle"):
        assert report.mixing == ExactMatrix(reference.hankel_mixing(rows))


@pytest.mark.parametrize("n", [90, 120])
def test_a_multi_prime_cycle_takes_its_quotient(routes, n):
    # the n x n pass over cycle:n, deg psi = n/2 + 1, would run all n steps
    rows = basis_rows(cycle_graph(n))
    assert multi_prime(rows)
    report = average_mixing(ExactMatrix(rows))
    assert routes == {"quotients": [n // 2 + 1], "forms": [n // 2 + 1]}
    assert_same_report(report, engine_report(rows))


def test_k1_stays_on_the_engine(routes):
    report = average_mixing(ExactMatrix([[4]]))
    assert routes == {"quotients": [None], "forms": [1]}
    assert_same_report(report, engine_report([[4]]))


def _near_misses():
    """(name, rows, regular): inputs that must reach the n x n engine."""
    six = basis_rows(cycle_graph(6))
    weighted = [row[:] for row in six]
    weighted[0][1] = weighted[1][0] = 2
    looped = [row[:] for row in six]
    looped[0][0] = 1
    k3 = basis_rows(complete_graph(3))
    return [
        ("circulant:24:1,4", basis_rows(circulant_graph(24, [1, 4])), True),
        ("cyclotomic-13-3", [list(r) for r in cyclotomic_scheme(13, 3)[1].numerators], True),
        ("2K3", _direct_sum(k3, k3), True),
        ("C6-one-weight-2", weighted, False),
        ("C6-one-loop", looped, False),
    ]


NEAR_MISSES = _near_misses()


@pytest.mark.parametrize(
    "name, rows, regular", NEAR_MISSES, ids=[c[0] for c in NEAR_MISSES]
)
def test_a_near_miss_reaches_the_n_by_n_engine(routes, name, rows, regular):
    report = average_mixing(ExactMatrix(rows))
    # an irregular M never reaches the test
    assert routes == {"quotients": [None] if regular else [], "forms": [len(rows)]}
    assert_same_report(report, engine_report(rows))
    assert report.mixing == ExactMatrix(reference.hankel_mixing(rows))


def test_an_irregular_input_builds_no_adjacency_lists(monkeypatch):
    def refuse(rows):
        raise AssertionError("the distance-regularity test ran on an irregular M")

    monkeypatch.setattr(mixing, "_distance_quotient", refuse)
    rng = random.Random(27)
    inputs = [basis_rows(path_graph(n), basis) for n in (3, 8) for basis in ("adjacency", "laplacian")]
    inputs += [basis_rows(looped_p6()), basis_rows(random_weighted_graph(rng, 9, 5))]
    inputs += [basis_rows(parse_graph6(text)) for text in ("ICmyoOeoG", "IhEgBOlKW")]
    for rows in inputs:
        average_mixing(ExactMatrix(rows))


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
        # the certificates are checked on the lcm of the entry denominators
        assert r.common_denominator == math.lcm(
            *(x.denominator for x in r.mixing.entries())
        )
        certs = r.certificates
        assert certs.d2_integral
        assert certs.d_integral_simple
        # disc/denominator = 864 exactly, so D * Mhat is integral
        assert certs.d_integral_minpoly

    def test_k3_certificates(self):
        r = average_mixing(matrix_of(complete_graph(3)))
        certs = r.certificates
        assert certs.d2_integral  # 81 clears denominator 9
        assert certs.d_integral_simple  # vacuous: repeated spectrum
        assert certs.d_integral_minpoly  # 9 clears 9

    def test_search_harness_runs(self):
        # repeated spectra, where D_min * Mhat is integral by the Hankel proof
        for n in (2, 3, 4, 5):
            m = matrix_of(complete_graph(n))
            assert average_mixing(m).certificates.d_integral_minpoly


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
        assert _certify(4, 4, 0) == IntegralityCertificates(True, True, True)
        with pytest.raises(AssertionError):
            _certify(8, 2, 2)  # D^2 = 4 does not clear 8
        with pytest.raises(AssertionError):
            _certify(4, 2, 6)  # D_char = 6 does not clear 4
        with pytest.raises(AssertionError):
            _certify(4, 2, 0)  # D_min = 2 does not clear 4

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

    def test_exact_psd_reference_follows_the_inertia(self):
        # B diag(s) B^T with B invertible has the inertia of diag(s)
        # (Sylvester), so it is PSD exactly when no s_i is negative
        rng = random.Random(72)
        seen = set()
        for _ in range(60):
            n = rng.randint(1, 7)
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if reference.determinant(b) == 0:
                continue
            s = [rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)]
            rows = [[sum(b[i][k] * s[k] * b[j][k] for k in range(n))
                     for j in range(n)] for i in range(n)]
            expected = min(s) >= 0
            assert reference.is_psd(rows) == expected
            seen.add((expected, 0 in s))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
        # a zero diagonal entry next to a nonzero off-diagonal one
        assert not reference.is_psd([[0, 1], [1, 0]])
        assert not reference.is_psd([[2, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_average_mixing_and_its_gap_to_identity_are_psd_exactly(self):
        # M-hat = sum_r E_r o E_r is PSD (Schur), and I - M-hat is PSD as
        # M-hat is doubly stochastic
        rng = random.Random(73)
        cases = []
        for n in range(2, 13):
            g = random_weighted_graph(rng, n, 1)
            cases += [matrix_of(g), matrix_of(g, "laplacian")]
            w = random_weighted_graph(rng, n, 9)
            looped = add_loops(w, {0: rng.randint(1, 5), n - 1: rng.randint(-5, -1)})
            cases += [matrix_of(w), matrix_of(looped)]
        for m in cases:
            mixing = average_mixing(m).mixing
            nums, d = mixing.numerators, mixing.denominator
            assert reference.is_psd(nums)
            gap = [[d * (i == j) - x for j, x in enumerate(row)]
                   for i, row in enumerate(nums)]
            assert reference.is_psd(gap)

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


# ---------------------------------------------------------------------------
# char poly routes: one prime, or the Faddeev-LeVerrier pass and its watch
# ---------------------------------------------------------------------------

P0 = exact._P0
# a simple spectrum whose char poly needs several primes, and 2^40 A(K_3),
# a repeated spectrum that needs several
RESOLVENT_ROWS = [[2**40, 3, 0], [3, -7, 2**35], [0, 2**35, 1]]
REPEATED_ROWS = [[0 if i == j else 2**40 for j in range(3)] for i in range(3)]


def record_passes(monkeypatch):
    """Counts `_charpoly_mod` calls and the coefficients the
    Faddeev-LeVerrier pass traces, and keeps the psi of each pass."""
    calls = {"charpoly_mod": 0, "traced": 0, "psi": []}
    charpoly_mod, diagonal = exact._charpoly_mod, exact._Resolvent.diagonal
    resolvent = _resolvent_int

    def counted(rows, p):
        calls["charpoly_mod"] += 1
        return charpoly_mod(rows, p)

    def recorded(rows, psi=None, bound=None):
        calls["psi"].append(psi)
        return resolvent(rows, psi, bound)

    def traced(res, rows):
        # only the pass with psi None reads diagonals inside the engine
        calls["traced"] += 1
        return diagonal(res, rows)

    monkeypatch.setattr("avgmix.exact._charpoly_mod", counted)
    monkeypatch.setattr("avgmix.exact._resolvent_int", recorded)
    monkeypatch.setattr(exact._Resolvent, "diagonal", traced)
    return calls


def dense_weighted_rows(seed, n, wmax, loops):
    """G(n, m) sized as G(n, 0.3), weights 1..wmax and a few loops."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, round(0.3 * n * (n - 1) / 2)):
        rows[i][j] = rows[j][i] = rng.randint(1, wmax)
    for i in rng.sample(range(n), loops):
        rows[i][i] = rng.randint(1, wmax)
    return rows


def multi_prime(rows):
    return 2 * exact._charpoly_bound(rows) >= P0


def from_roots(roots):
    """prod (y - r) over the roots, ascending integer coefficients."""
    out = [1]
    for r in roots:
        out = [int(c) for c in reference.mul(out, [-r, 1])]
    return out


def test_multi_prime_simple_spectrum_reads_phi_off_the_resolvent(monkeypatch):
    # n = 14 with weights up to 100 needs two primes, as the n = 20-22
    # graphs of the benchmark with weights up to 30 need two to four,
    # and keeps the rational Hankel reference to about a second
    rows = dense_weighted_rows(3, 14, 100, 3)
    assert multi_prime(rows)
    calls = record_passes(monkeypatch)
    r = average_mixing(ExactMatrix(rows))
    # no Hessenberg residue: the one pass runs to the end
    assert calls["charpoly_mod"] == 0 and calls["psi"] == [None]
    assert r.simple_spectrum and list(r.char_poly.coeffs) == reference.char_poly(rows)
    assert r.mixing == ExactMatrix(reference.hankel_mixing(rows))


def weighted_complete(n, w):
    return [[0 if i == j else w for j in range(n)] for i in range(n)]


def hypercube(d):
    return [[int(bin(u ^ v).count("1") == 1) for v in range(2**d)] for u in range(2**d)]


# rows and their spectrum, eigenvalue: multiplicity
STOPS = {
    "2^40 K3": (REPEATED_ROWS, {2**41: 1, -(2**40): 2}),
    "2^40 K4": (weighted_complete(4, 2**40), {3 * 2**40: 1, -(2**40): 3}),
    "K30": (basis_rows(complete_graph(30)), {29: 1, -1: 29}),
    "weighted K12": (
        weighted_complete(12, 2**40 + 1), {11 * (2**40 + 1): 1, -(2**40 + 1): 11}
    ),
    "6-cube": (hypercube(6), {6 - 2 * i: math.comb(6, i) for i in range(7)}),
}


@pytest.mark.parametrize("name", list(STOPS))
def test_multi_prime_repeated_spectrum_stops_at_the_minimal_polynomial(
    monkeypatch, name
):
    rows, spectrum = STOPS[name]
    assert multi_prime(rows)
    calls = record_passes(monkeypatch)
    phi, psi, _, _, res = exact._radical_resolvent(rows)
    assert phi == from_roots(r for r, k in spectrum.items() for _ in range(k))
    assert psi == from_roots(spectrum) == res.psi
    # one traced pass, stopped by the watch at k = 2 deg psi (or run to
    # n = 3 and 4), then one Horner pass over psi; no residue mod P0
    assert calls["charpoly_mod"] == 0 and calls["psi"] == [None, psi]
    assert calls["traced"] == min(2 * (len(psi) - 1), len(rows))
    if name != "6-cube":
        # c K_n has the idempotents J/n and I - J/n of K_n
        n = len(rows)
        assert reference.unpacked_resolvent(res) == reference.resolvent(rows, psi)
        expected = [[F((n - 1) ** 2 + 1 if u == v else 2, n * n) for v in range(n)]
                    for u in range(n)]
        assert average_mixing(ExactMatrix(rows)).mixing == ExactMatrix(expected)


def test_power_sums_that_collide_mod_p0_do_not_stop_the_pass(monkeypatch):
    # 0, P0 and 2 P0 meet mod P0, so the power sums mod P0 keep the
    # recurrence of y; the candidate y - P0 fails psi(M) = 0, and no
    # other length comes up, so the pass runs to the end
    for diagonal, psi in (
        ([0, P0, 2 * P0], from_roots([0, P0, 2 * P0])),
        ([0, 0, 2 * P0, 2 * P0], [0, -2 * P0, 1]),
    ):
        n = len(diagonal)
        rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
        r = average_mixing(ExactMatrix(rows))
        assert r.mixing == ExactMatrix.identity(n)
        assert list(r.char_poly.coeffs) == from_roots(diagonal)
        assert list(r.min_poly.coeffs) == psi
        calls = record_passes(monkeypatch)
        exact._radical_resolvent(rows)
        after = [psi] if psi != from_roots(diagonal) else []
        assert calls["psi"] == [None, [-P0, 1]] + after
        assert calls["traced"] == n
        monkeypatch.undo()


def unpacked_result(rows):
    phi, psi, d, t, res = exact._radical_resolvent(rows)
    return phi, psi, d, t, reference.unpacked_resolvent(res)


def test_a_forged_watch_candidate_does_not_stop_the_pass(monkeypatch):
    # a candidate off by one in its constant term fails psi(M) = 0: the
    # pass goes on to the end and the result does not change
    rows = STOPS["weighted K12"][0]
    expected = unpacked_result(rows)
    solve = exact._hankel_solve

    def forged(sums, m):
        psi = solve(sums, m)
        return [psi[0] + 1] + psi[1:]

    monkeypatch.setattr("avgmix.exact._hankel_solve", forged)
    calls = record_passes(monkeypatch)
    assert unpacked_result(rows) == expected
    assert calls["traced"] == len(rows)
    assert calls["psi"][0] is None and len(calls["psi"]) == 3


def test_newton_phi_must_agree_with_the_traced_pass(monkeypatch):
    # Newton's phi off by one in a coefficient the pass read (c_1), or
    # in one it did not (the constant term, which psi then no longer
    # divides): both raise
    newton = exact._newton
    for index, message in ((1, "Newton"), (-1, "exact")):

        def forged(sums, index=index):
            c = newton(sums)
            c[index] += 1
            return c

        monkeypatch.setattr("avgmix.exact._newton", forged)
        with pytest.raises(ArithmeticError, match=message):
            _trace_form(STOPS["K30"][0])


large_symmetric_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)),
        min_size=n * (n + 1) // 2,
        max_size=n * (n + 1) // 2,
    ).map(lambda xs: _symmetric_from_upper(n, xs))
)


def _orthogonal_walk_rows(triples, fixed, perm, signs):
    """Numerators V = cU of U = P R P^T: R block diagonal with the
    rotations of the triples (m^2 - k^2, 2 m k, m^2 + k^2) and `fixed`
    fixed points, P a signed permutation."""
    n = 2 * len(triples) + fixed
    r = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for b, (k, d) in enumerate(triples):
        m = k + d
        a, s, c = m * m - k * k, 2 * m * k, m * m + k * k
        i = 2 * b
        r[i][i] = r[i + 1][i + 1] = F(a, c)
        r[i][i + 1], r[i + 1][i] = F(-s, c), F(s, c)
    p = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    pt = [list(col) for col in zip(*p)]
    u = reference.matmul(reference.matmul(p, r), pt)
    return [list(row) for row in ExactMatrix(u).numerators]


orthogonal_walk_rows = st.tuples(
    st.lists(
        st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)), min_size=1, max_size=3
    ),
    st.integers(0, 1),
).flatmap(
    lambda tf: st.builds(
        _orthogonal_walk_rows,
        st.just(tf[0]),
        st.just(tf[1]),
        st.permutations(range(2 * len(tf[0]) + tf[1])),
        st.lists(
            st.sampled_from([1, -1]),
            min_size=2 * len(tf[0]) + tf[1],
            max_size=2 * len(tf[0]) + tf[1],
        ),
    )
)


def _scaled_direct_sum(w, block):
    return [[w * x for x in row] for row in _direct_sum(block, block)]


def _kronecker(w, a, b):
    m = len(b)
    return [
        [w * a[i // m][j // m] * b[i % m][j % m] for j in range(len(a) * m)]
        for i in range(len(a) * m)
    ]


small_symmetric = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.integers(-3, 3), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(lambda xs: _symmetric_from_upper(n, xs))
).filter(lambda rows: any(map(any, rows)))
# weights past 2^31 make even n = 2 need more than one prime
big_weight = st.integers(2**31, 10**12)

repeated_spectrum_rows = st.one_of(
    st.builds(_scaled_direct_sum, st.integers(2**31, 3 * 10**11), small_symmetric),
    st.builds(
        _kronecker,
        st.integers(2**31, 10**11),
        small_symmetric,
        st.sampled_from([[[1, 0], [0, 1]], [[1, 1], [1, 1]], [[0, 1], [1, 0]]]),
    ),
    st.builds(lambda n, w: weighted_complete(n, w), st.integers(2, 8), big_weight),
    # one Pythagorean rotation repeated in two or three blocks
    st.tuples(
        st.tuples(st.integers(100, 10**4), st.integers(100, 10**4)),
        st.integers(2, 3),
        st.integers(0, 1),
    ).flatmap(
        lambda tcf: st.builds(
            _orthogonal_walk_rows,
            st.just([tcf[0]] * tcf[1]),
            st.just(tcf[2]),
            st.permutations(range(2 * tcf[1] + tcf[2])),
            st.lists(
                st.sampled_from([1, -1]),
                min_size=2 * tcf[1] + tcf[2],
                max_size=2 * tcf[1] + tcf[2],
            ),
        )
    ),
)


@settings(max_examples=60, deadline=None)
@given(repeated_spectrum_rows)
@example(REPEATED_ROWS)
def test_radical_resolvent_matches_the_reference_past_one_prime(rows):
    assume(multi_prime(rows))
    phi, psi, d, t, res = exact._radical_resolvent(rows)
    assert phi == reference.char_poly(rows)
    assert psi == reference.squarefree(phi) == res.psi
    # det of the power-sum Hankel matrix of psi is disc(psi)
    assert d == reference.determinant(reference.power_hankel(psi)) != 0
    scaled = reference.poly_divmod(reference.mul(t, reference.derivative(psi)), psi)[1]
    assert scaled == [d]
    assert reference.unpacked_resolvent(res) == reference.resolvent(rows, psi)


def _conjugated_jordan(lam, n, ops):
    """U (lam I + E_01) U^-1 for the unimodular U of the row operations
    ops, (i, j, c): row i += c row j; lam I + E_01 is not diagonalizable."""
    m = [[lam * (i == j) + ((i, j) == (0, 1)) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i != j:
            # U E U^-1 with E = I + c e_i e_j^T, E^-1 = I - c e_i e_j^T
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
    return m


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.builds(
            _conjugated_jordan,
            st.one_of(big_weight, st.integers(-(10**12), -(2**31))),
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                               st.integers(-3, 3)), max_size=6),
        )
    )
)
def test_a_defective_multi_prime_matrix_is_refused(rows):
    assert multi_prime(rows)
    with pytest.raises(NotAnnihilatingError):
        exact._radical_resolvent(rows)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(large_symmetric_rows, orthogonal_walk_rows),
    st.lists(st.integers(-20, 20), min_size=1, max_size=3),
)
@example(RESOLVENT_ROWS, [0, 1])
@example(REPEATED_ROWS, [2])
def test_resolvent_pass_char_poly_matches_horner_and_determinant(rows, points):
    # Faddeev-LeVerrier on the resolvent pass, on any integer matrix; the
    # watch may stop it at the minimal polynomial, whose B_j it returns
    phi, res = _resolvent_int(rows, bound=exact._charpoly_bound(rows))
    mats = reference.unpacked_resolvent(res)
    given = _resolvent_int(rows, res.psi)
    assert mats == reference.unpacked_resolvent(given[1])
    assert phi == reference.char_poly(rows)
    # independent of Faddeev-LeVerrier (as is `reference.char_poly`):
    # det(xI - M) by rational elimination at a few points
    n = len(rows)
    for x in points:
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
        ]
        assert sum(c * x**k for k, c in enumerate(phi)) == reference.determinant(shifted)
    # symmetric rows and the walks alike must give the term-by-term sums
    # of powers of M
    assert mats == reference.resolvent(rows, res.psi)


# ---------------------------------------------------------------------------
# the one-prime route: the residue mod P0 only for a regular or upper
# Hessenberg M, the traced pass for every other
# ---------------------------------------------------------------------------


def hessenberg_route(rows):
    """(phi, psi, D, t, unpacked B_j) by the residue mod P0 of phi."""
    phi = [c - P0 if 2 * c > P0 else c for c in exact._charpoly_mod(rows, P0)]
    psi, d, t = exact._int_radical(phi)
    return phi, psi, d, t, reference.unpacked_resolvent(_resolvent_int(rows, psi)[1])


def traced_route(rows):
    """The same by the Faddeev-LeVerrier pass and its watch."""
    phi, res = _resolvent_int(rows, bound=exact._charpoly_bound(rows))
    psi, d, t = exact._int_radical(res.psi)
    if psi != res.psi:
        res = _resolvent_int(rows, psi)[1]
    return phi, psi, d, t, reference.unpacked_resolvent(res)


def petersen_laplacian():
    pairs = list(itertools.combinations(range(5), 2))
    adjacency = [[int(not set(u) & set(v)) for v in pairs] for u in pairs]
    return basis_rows(WeightedGraph.from_weights(adjacency), "laplacian")


@pytest.mark.parametrize("text, degree", [("ICmyoOeoG", 10), ("IhEgBOlKW", 9)])
def test_an_irregular_one_prime_graph_takes_one_traced_pass(monkeypatch, text, degree):
    rows = basis_rows(parse_graph6(text))
    assert not multi_prime(rows)
    calls = record_passes(monkeypatch)
    phi, psi, _, _, res = exact._radical_resolvent(rows)
    assert len(psi) - 1 == degree and phi == reference.char_poly(rows)
    # no residue mod P0; deg psi > n/3, so the pass runs to the end, and
    # a repeated spectrum then takes a Horner pass over psi
    assert calls["charpoly_mod"] == 0 and calls["traced"] == len(rows)
    assert calls["psi"] == [None] + ([psi] if psi != phi else [])
    assert reference.unpacked_resolvent(res) == reference.resolvent(rows, psi)


ONE_PRIME_RESIDUES = {
    "cycle:13": basis_rows(cycle_graph(13)),
    "K8": basis_rows(complete_graph(8)),
    "Petersen Laplacian": petersen_laplacian(),
    "path:12": basis_rows(path_graph(12)),
}


@pytest.mark.parametrize("name", list(ONE_PRIME_RESIDUES))
def test_a_regular_or_tridiagonal_one_prime_matrix_takes_the_residue(
    monkeypatch, name
):
    rows = ONE_PRIME_RESIDUES[name]
    assert not multi_prime(rows)
    calls = record_passes(monkeypatch)
    phi, psi, _, _, res = exact._radical_resolvent(rows)
    assert calls["charpoly_mod"] == 1 and calls["traced"] == 0
    assert calls["psi"] == [psi] and phi == reference.char_poly(rows)
    assert reference.unpacked_resolvent(res) == reference.resolvent(rows, psi)


def one_prime_route_cases():
    """About 100 seeded one-prime inputs of every kind the engine takes."""
    rng = random.Random(22)
    cases = []
    for _ in range(24):
        n = rng.randint(2, 14)
        graph = random_weighted_graph(rng, n, 1)
        cases += [basis_rows(graph), basis_rows(graph, "laplacian")]
        looped = basis_rows(random_weighted_graph(rng, n, 5))
        for i in rng.sample(range(n), rng.randint(1, n)):
            looped[i][i] = rng.randint(-5, 5)
        cases.append(looped)
        block = basis_rows(random_weighted_graph(rng, rng.randint(1, 6), 3))
        cases.append(_direct_sum(block, block))
    for _ in range(8):
        triples = [(rng.randint(1, 3), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 3))]
        fixed = rng.randint(0, 1)
        n = 2 * len(triples) + fixed
        perm = rng.sample(range(n), n)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        cases.append(_orthogonal_walk_rows(triples, fixed, perm, signs))
    return [rows for rows in cases if not multi_prime(rows)]


def test_both_one_prime_routes_give_the_same_spectral_integers():
    cases = one_prime_route_cases()
    assert len(cases) >= 100
    repeated = 0
    for rows in cases:
        expected = hessenberg_route(rows)
        assert traced_route(rows) == expected == unpacked_result(rows)
        repeated += expected[0] != expected[1]
    assert repeated >= 30


@pytest.mark.parametrize("a, b", [(1, 11), (4, 8), (1, 29), (10, 20)])
def test_a_complete_bipartite_graph_stops_at_twice_deg_psi(monkeypatch, a, b):
    # spectrum +-sqrt(ab) and 0, so deg psi = 3: K_{1,11} and K_{4,8}
    # need one prime, K_{1,29} and K_{10,20} more than one, and all four
    # take the traced pass, stopped at k = 6
    rows = _multipartite_rows([a, b], 1, [0, 0])
    assert multi_prime(rows) is (a + b == 30)
    calls = record_passes(monkeypatch)
    phi, psi, _, _, res = exact._radical_resolvent(rows)
    assert psi == [0, -a * b, 0, 1] == res.psi
    assert phi == [0] * (a + b - 2) + [-a * b, 0, 1]
    assert calls["charpoly_mod"] == 0 and calls["psi"] == [None, psi]
    assert calls["traced"] == 6


def test_a_simple_spectrum_pass_tries_no_candidate_past_two_thirds(monkeypatch):
    # 0, P0, 2 P0, .. meet mod P0, so with 1 and 2 the power sums mod P0
    # keep a recurrence of length 3 from k = 6 on; past k = 2n/3 no stop
    # can pay for its Horner pass, so the watch tries that candidate for
    # n = 9 and has quit before it for n = 7 and 8
    tried = []
    certified_stop = exact._certified_stop

    def recorded(rows, phi, sums, m, k, bound):
        tried.append((len(phi) - 1, k))
        return certified_stop(rows, phi, sums, m, k, bound)

    monkeypatch.setattr("avgmix.exact._certified_stop", recorded)
    diagonals = [[c * P0 for c in range(m)] + [1, 2] for m in (5, 6, 7)]
    cases = [[[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
             for d in diagonals]
    cases += [RESOLVENT_ROWS, dense_weighted_rows(3, 14, 100, 3)]
    cases.append(basis_rows(parse_graph6("ICmyoOeoG")))
    for rows in cases:
        phi, psi, *_ = exact._radical_resolvent(rows)
        assert psi == phi == reference.char_poly(rows)
    assert (9, 6) in tried and all(3 * k <= 2 * n for n, k in tried)


# ---------------------------------------------------------------------------
# relabelling and disjoint unions
# ---------------------------------------------------------------------------


def _relabel(rows, perm):
    # P A P^T for the permutation matrix with P[i][perm[i]] = 1
    return [[rows[a][b] for b in perm] for a in perm]


def _direct_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


relabelled_rows = large_symmetric_rows.flatmap(
    lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))
)


@settings(max_examples=40, deadline=None)
@given(relabelled_rows)
@example((RESOLVENT_ROWS, [2, 0, 1]))
@example((REPEATED_ROWS, [1, 2, 0]))
def test_relabelling_permutes_the_mixing_matrix(case):
    rows, perm = case
    mixing = average_mixing(ExactMatrix(rows)).mixing
    relabelled = average_mixing(ExactMatrix(_relabel(rows, perm))).mixing
    assert relabelled == ExactMatrix(
        _relabel(mixing.numerators, perm), mixing.denominator
    )


@settings(max_examples=30, deadline=None)
@given(large_symmetric_rows, large_symmetric_rows)
@example(RESOLVENT_ROWS, [[1, 2], [2, 3]])
@example(RESOLVENT_ROWS, RESOLVENT_ROWS)
@example(REPEATED_ROWS, [[2**40, 0], [0, -(2**40)]])
def test_disjoint_union_gives_the_direct_sum(x, y):
    mx = average_mixing(ExactMatrix(x)).mixing.to_lists()
    my = average_mixing(ExactMatrix(y)).mixing.to_lists()
    reverse = list(range(len(x)))[::-1]
    # Y, then X itself and X relabelled, which share every eigenvalue with X
    for b, mb in ((y, my), (x, mx), (_relabel(x, reverse), _relabel(mx, reverse))):
        union = average_mixing(ExactMatrix(_direct_sum(x, b))).mixing
        assert union == ExactMatrix(_direct_sum(mx, mb))
