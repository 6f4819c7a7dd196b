"""Acceptance gate: thirteen numbered end-to-end criteria.

Each criterion prints exactly one verdict line, [criterion NN] PASS or
FAIL, followed by a short label; run pytest with -s to see the lines as
they happen.  The criteria pin golden matrices, closed-form families,
randomized exact-vs-numeric comparisons, convergence rates, the
cospectrality machinery, discrete walks, and scheme verification, with
all random corpora drawn from fixed seeds.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np

from avgmix.analysis import (
    ClosedForm,
    all_strongly_cospectral_check,
    are_cospectral,
    are_strongly_cospectral,
    closed_form_matrix,
)
from avgmix.discrete import (
    avg_mixing_literal,
    avg_mixing_physical,
    cesaro_error_bound,
    cesaro_partial,
)
from avgmix.exact import ExactMatrix
from avgmix.graphs import (
    WeightedGraph,
    add_loops,
    circulant_graph,
    complement,
    complete_graph,
    cycle_graph,
    matrix_of,
    path_graph,
)
from avgmix.mixing import average_mixing
from avgmix.numeric import (
    average_upto,
    eigenvalue_range,
    numeric_avg_mixing,
    spectral_decomposition,
)
from avgmix.schemes import cyclotomic_scheme, koppinen_schur_check, verify_scheme

F = Fraction


def _criterion(number: int, label: str):
    """Print one PASS/FAIL verdict line around the wrapped test body."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:02d}] FAIL {label}", flush=True)
                raise
            print(f"[criterion {number:02d}] PASS {label}", flush=True)

        return run

    return wrap


# ---------------------------------------------------------------------------
# shared corpora (fixed seeds; computed once)
# ---------------------------------------------------------------------------


def _random_simple_graph(rng: random.Random, n: int, p: float) -> WeightedGraph:
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u][v] = rows[v][u] = 1
    return WeightedGraph.from_weights(rows)


def _random_symmetric_matrix(rng: random.Random, n: int) -> WeightedGraph:
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        rows[u][u] = rng.randint(-3, 3)
        for v in range(u + 1, n):
            rows[u][v] = rows[v][u] = rng.randint(-3, 3)
    return WeightedGraph.from_weights(rows)


@functools.lru_cache(maxsize=None)
def _oracle_corpus():
    """50 p=1/2 random graphs on up to 12 vertices plus 20 random
    symmetric integer matrices with entries in [-3, 3], with their
    exact reports."""
    rng = random.Random(20260822)
    members = []
    for _ in range(50):
        members.append(_random_simple_graph(rng, rng.randint(2, 12), 0.5))
    for _ in range(20):
        members.append(_random_symmetric_matrix(rng, rng.randint(2, 10)))
    return tuple((g, average_mixing(matrix_of(g))) for g in members)


def _symmetric_signed_permutation(rng: random.Random, n: int) -> ExactMatrix:
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.7:
            u, v = order[i], order[i + 1]
            rows[u][v] = rows[v][u] = rng.choice((1, -1))
            i += 2
        else:
            u = order[i]
            rows[u][u] = rng.choice((1, -1))
            i += 1
    return ExactMatrix(rows)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@_criterion(1, "golden loop-ended path matrix, exact, under one second")
def test_criterion_01_golden_matrix():
    g = add_loops(path_graph(6), {0: 2, 5: 2})
    start = time.perf_counter()
    report = average_mixing(matrix_of(g))
    elapsed = time.perf_counter() - start
    assert report.common_denominator == 1926
    first = tuple(F(k, 1926) for k in (599, 218, 146, 146, 218, 599))
    assert report.mixing.row(0) == first
    assert report.mixing.is_symmetric()
    # end-to-end reversal symmetry of the weighting must survive
    n = report.n
    assert all(
        report.mixing[i, j] == report.mixing[n - 1 - i, n - 1 - j]
        for i in range(n)
        for j in range(n)
    )
    assert elapsed < 1.0


@_criterion(2, "discriminant 2^6 3^5 107 with integral D * matrix")
def test_criterion_02_discriminant():
    g = add_loops(path_graph(6), {0: 2, 5: 2})
    report = average_mixing(matrix_of(g))
    assert report.disc_char == 2**6 * 3**5 * 107 == 1664064
    assert report.simple_spectrum
    d = report.disc_char
    assert all((x * d).denominator == 1 for x in report.mixing.entries())
    assert report.disc_char / report.common_denominator == 864


@_criterion(3, "path closed form (2J + I + T)/(2n + 2) up to n = 40")
def test_criterion_03_path_formula():
    start = time.perf_counter()
    for n in range(1, 41):
        report = average_mixing(matrix_of(path_graph(n)))
        assert report.mixing == closed_form_matrix(ClosedForm("path_adjacency", n))
    assert time.perf_counter() - start < 30.0


@_criterion(4, "path Laplacian closed form up to n = 40")
def test_criterion_04_path_laplacian_formula():
    for n in range(2, 41):
        report = average_mixing(matrix_of(path_graph(n), "laplacian"))
        assert report.mixing == closed_form_matrix(ClosedForm("path_laplacian", n))


@_criterion(5, "odd and even cycle closed forms up to n = 40")
def test_criterion_05_cycle_formulas():
    for n in range(3, 40, 2):
        report = average_mixing(matrix_of(cycle_graph(n)))
        assert report.mixing == closed_form_matrix(ClosedForm("cycle_odd", n))
    for n in range(4, 41, 2):
        report = average_mixing(matrix_of(cycle_graph(n)))
        assert report.mixing == closed_form_matrix(ClosedForm("cycle_even", n))


@_criterion(6, "pseudocyclic closed form on four cyclotomic class graphs")
def test_criterion_06_pseudocyclic_formula():
    for q in (5, 13, 17, 29):
        scheme = verify_scheme(cyclotomic_scheme(q, 2)).scheme
        class_graph = scheme.matrices[1]
        m = (q - 1) // 2
        report = average_mixing(class_graph)
        assert report.mixing == closed_form_matrix(ClosedForm("pseudocyclic", q, m))
    paley = verify_scheme(cyclotomic_scheme(13, 2)).scheme.matrices[1]
    mixing = average_mixing(paley).mixing
    assert mixing[0, 0] == F(73, 169)
    assert mixing[0, 1] == F(8, 169)


@_criterion(7, "exact matrix matches the numeric projector sum on 70 inputs")
def test_criterion_07_oracle_equivalence():
    for g, report in _oracle_corpus():
        approx = numeric_avg_mixing(spectral_decomposition(matrix_of(g)))
        exact = np.array(report.mixing.to_float())
        assert np.max(np.abs(approx - exact)) < 1e-8


@_criterion(8, "invariant suite over the randomized corpus")
def test_criterion_08_invariant_suite():
    for g, report in _oracle_corpus():
        mixing = report.mixing
        n = report.n
        assert mixing.is_symmetric()
        assert all(s == 1 for s in mixing.row_sums())
        assert all(x >= 0 for x in mixing.entries())
        strictly_positive = all(x > 0 for x in mixing.entries())
        assert strictly_positive == g.is_connected()
        low, high = eigenvalue_range(mixing)
        assert low >= -1e-9 and high <= 1 + 1e-9
        d = report.disc_min
        assert all((x * d * d).denominator == 1 for x in mixing.entries())
        if n >= 3:
            assert mixing != ExactMatrix([[F(1, n)] * n] * n)


@_criterion(9, "complement matches on circulants and Laplacian graphs")
def test_criterion_09_complement_lemmas():
    # the complement identity needs both sides connected; disconnected
    # complements merge eigenspaces (see the paired counterexample test)
    rng = random.Random(9090)
    pairs = []
    while len(pairs) < 10:
        n = rng.randint(5, 13)
        ks = tuple(k for k in range(1, n // 2 + 1) if rng.random() < 0.5)
        if not ks:
            continue
        g = circulant_graph(n, ks)
        h = complement(g)
        if g.is_connected() and h.is_connected():
            pairs.append((g, h))
    for g, h in pairs:
        assert average_mixing(matrix_of(g)).mixing == average_mixing(matrix_of(h)).mixing
    count = 0
    while count < 10:
        g = _random_simple_graph(rng, rng.randint(4, 10), 0.5)
        h = complement(g)
        if not (g.is_connected() and h.is_connected()):
            continue
        lhs = average_mixing(matrix_of(g, "laplacian")).mixing
        rhs = average_mixing(matrix_of(h, "laplacian")).mixing
        assert lhs == rhs
        count += 1


def test_disconnected_complement_breaks_the_identity():
    # the filter in the previous criterion is necessary: the 4-cycle is
    # connected but its complement is a perfect matching, and the two
    # average mixing matrices differ
    g = cycle_graph(4)
    h = complement(g)
    assert not h.is_connected()
    lhs = average_mixing(matrix_of(g)).mixing
    rhs = average_mixing(matrix_of(h)).mixing
    assert lhs[0, 0] == F(3, 8)
    assert rhs[0, 0] == F(1, 2)


@_criterion(10, "pentagon time averages converge at the expected rate")
def test_criterion_10_convergence():
    m = matrix_of(cycle_graph(5))
    exact = np.array(average_mixing(m).mixing.to_float())
    decomposition = spectral_decomposition(m)
    err_short = np.max(np.abs(average_upto(decomposition, 1e3) - exact))
    err_long = np.max(np.abs(average_upto(decomposition, 1e4) - exact))
    assert err_short <= 2e-3
    assert err_long <= err_short / 8


@_criterion(11, "strong cospectrality decisions across the small corpus")
def test_criterion_11_strong_cospectrality():
    for n in range(2, 11):
        assert are_strongly_cospectral(path_graph(n), 0, n - 1)
    for g in (cycle_graph(5), complete_graph(3)):
        for u, v in itertools.combinations(range(g.n), 2):
            assert not are_strongly_cospectral(g, u, v)
    corpus = [
        path_graph(1),
        path_graph(2),
        path_graph(3),
        path_graph(4),
        cycle_graph(4),
        cycle_graph(5),
        complete_graph(3),
        complete_graph(4),
        circulant_graph(6, (1, 2)),
    ]
    for g in corpus:
        assert all_strongly_cospectral_check(g) == (g.n <= 2)
    # with a simple spectrum the two notions coincide on every pair
    for n in range(2, 11):
        g = path_graph(n)
        assert average_mixing(matrix_of(g)).simple_spectrum
        for u, v in itertools.combinations(range(n), 2):
            assert are_cospectral(g, u, v) == are_strongly_cospectral(g, u, v)


@_criterion(12, "discrete walk limits, partial averages, and symmetry")
def test_criterion_12_discrete_walks():
    u = ExactMatrix([[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]])
    literal = avg_mixing_literal(u)
    assert literal == ExactMatrix([[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]])
    assert avg_mixing_physical(u) == ExactMatrix([[F(1, 2)] * 2] * 2)
    gap = np.max(np.abs(cesaro_partial(u, 10_000) - np.array(literal.to_float())))
    assert gap <= cesaro_error_bound(u, 10_000)
    rng = random.Random(1234)
    for _ in range(10):
        s = _symmetric_signed_permutation(rng, rng.randint(2, 6))
        assert avg_mixing_literal(s) == avg_mixing_physical(s)


@_criterion(13, "scheme verification accepts and rejects correctly")
def test_criterion_13_scheme_machinery():
    for q in (5, 13, 17, 29):
        report = verify_scheme(cyclotomic_scheme(q, 2))
        assert report.ok
        assert koppinen_schur_check(report.scheme, tol=1e-8)
    a = matrix_of(path_graph(3))
    eye = ExactMatrix.identity(3)
    rest = ExactMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    rejected = verify_scheme([eye, a, rest])
    assert not rejected.ok
    assert any(v.axiom == "d" for v in rejected.violations)
