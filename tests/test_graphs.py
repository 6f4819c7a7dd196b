"""Tests for graph construction, families, and graph6 round-trips."""

import enum
import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgmix.exact import ExactMatrix
from avgmix.graphs import (
    Graph6Error,
    WeightedGraph,
    add_loops,
    circulant_graph,
    complement,
    complete_graph,
    cycle_graph,
    emit_graph6,
    family,
    matrix_of,
    parse_graph6,
    path_graph,
)


class TestConstruction:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_weights([[0, 1], [2, 0]])

    def test_integer_weights_enforced(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, ((0, 1.5), (1.5, 0)))

    def test_loops_allowed(self):
        g = WeightedGraph.from_weights([[2, 1], [1, 0]])
        assert not g.is_loop_free()
        assert g.weight(0, 0) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(0, ())


# The per-cell validation that `from_weights` and `WeightedGraph` ran
# before their one-pass checks, kept as the reference they must match.


def _reference_integer_weight(w, i, j):
    if not isinstance(w, bool):
        try:
            value = int(w)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if value == w:
                return value
    raise ValueError(f"weight at ({i}, {j}) is not an integer: {w!r}")


def _reference_graph(n, weights):
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if len(weights) != n or any(len(row) != n for row in weights):
        raise ValueError("weight matrix shape does not match n")
    for row in weights:
        for w in row:
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError("weights must be integers")
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i][j] != weights[j][i]:
                raise ValueError("weight matrix must be symmetric")
    return weights


def _reference_from_weights(rows):
    data = tuple(
        tuple(_reference_integer_weight(w, i, j) for j, w in enumerate(row))
        for i, row in enumerate(rows)
    )
    return _reference_graph(len(data), data)


def _outcome(build, *args):
    """(exception type, message) on failure; each cell with its type on success."""
    try:
        weights = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(tuple((type(w), w) for w in row) for row in weights)


class _Weight(enum.IntEnum):
    TWO = 2


_INTS = st.integers(-3, 3)
_CELLS = st.one_of(
    _INTS,
    st.booleans(),
    st.sampled_from(
        [2.0, -1.0, 0.0, 0.5, 1.7, float("nan"), float("inf"), "2",
         _Weight.TWO, numpy.int64(1)]
    ),
)


@st.composite
def _weight_rows(draw):
    """Mostly symmetric square rows, of plain ints or of mixed cells, some
    with one cell changed or one row cut or grown, as lists of lists or
    tuples of tuples."""
    n = draw(st.integers(0, 4))
    cells = draw(st.sampled_from([_INTS, _CELLS]))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(cells)
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(cells)
    if n and draw(st.integers(0, 4)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(cells))
    if draw(st.booleans()):
        return tuple(map(tuple, rows))
    return rows


class TestValidationMatchesPerCellReference:
    @settings(max_examples=400)
    @given(_weight_rows())
    def test_from_weights(self, rows):
        # the same weights or the same error, naming the same first bad cell
        got = _outcome(lambda r: WeightedGraph.from_weights(r).weights, rows)
        assert got == _outcome(_reference_from_weights, rows)

    @settings(max_examples=400)
    @given(_weight_rows(), st.integers(-1, 1))
    def test_direct_construction(self, rows, n_shift):
        n = len(rows) + n_shift
        got = _outcome(lambda w: WeightedGraph(n, w).weights, rows)
        assert got == _outcome(_reference_graph, n, rows)


class TestFamilies:
    def test_path(self):
        g = path_graph(2)
        assert g.weights == ((0, 1), (1, 0))
        assert path_graph(1).weights == ((0,),)
        assert path_graph(4).edges() == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]

    def test_cycle(self):
        g = cycle_graph(3)
        assert g == complete_graph(3)
        assert cycle_graph(5).degrees() == (2, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_circulant(self):
        assert circulant_graph(5, [1, 2]) == complete_graph(5)
        assert circulant_graph(6, [1]) == cycle_graph(6)
        # connection n/2 must not double up
        g = circulant_graph(4, [2])
        assert g.weight(0, 2) == 1 and g.weight(1, 3) == 1
        with pytest.raises(ValueError):
            circulant_graph(5, [3])

    def test_descriptor_parsing(self):
        assert family("path:6") == path_graph(6)
        assert family("cycle:5") == cycle_graph(5)
        assert family("circulant:5:{1,2}") == complete_graph(5)
        assert family("circulant:7:1,2") == circulant_graph(7, [1, 2])
        for bad in ("path", "path:x", "ladder:3", "cycle:2", ""):
            with pytest.raises(ValueError):
                family(bad)


class TestModification:
    def test_add_loops(self):
        g = add_loops(path_graph(2), {0: -1})
        assert g.weights == ((-1, 1), (1, 0))
        assert add_loops(path_graph(3), {}) == path_graph(3)
        with pytest.raises(IndexError):
            add_loops(path_graph(2), {2: 1})

    @pytest.mark.parametrize("weight", [1.7, True, "2"])
    def test_add_loops_rejects_non_integer_weight(self, weight):
        with pytest.raises(ValueError, match=r"weight at \(0, 0\) is not an integer"):
            add_loops(path_graph(3), {0: weight})

    def test_add_loops_accepts_integer_valued_float(self):
        g = add_loops(path_graph(3), {1: 2.0})
        assert g.weights[1][1] == 2 and type(g.weights[1][1]) is int

    def test_complement(self):
        assert complement(complete_graph(3)).edges() == []
        assert complement(path_graph(2)).edges() == []
        c5 = cycle_graph(5)
        cc = complement(c5)
        assert sorted(len(g.edges()) for g in (c5, cc)) == [5, 5]
        # C5 is self-complementary up to relabeling: degrees all 2
        assert cc.degrees() == (2, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            complement(add_loops(path_graph(2), {0: 1}))
        with pytest.raises(ValueError):
            complement(WeightedGraph.from_weights([[0, 2], [2, 0]]))


class TestMatrices:
    def test_adjacency(self):
        assert matrix_of(path_graph(2)) == ExactMatrix([[0, 1], [1, 0]])
        g = add_loops(path_graph(2), {0: 2})
        assert matrix_of(g)[0, 0] == 2

    def test_laplacian(self):
        lap = matrix_of(path_graph(3), "laplacian")
        assert lap == ExactMatrix([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        lap4 = matrix_of(cycle_graph(4), "laplacian")
        adj4 = matrix_of(cycle_graph(4))
        assert lap4 == ExactMatrix(
            [[2 * (i == j) - adj4[i, j] for j in range(4)] for i in range(4)]
        )

    def test_laplacian_row_sums_vanish(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(2, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            g = WeightedGraph.from_weights(rows)
            lap = matrix_of(g, "laplacian")
            # nonnegative weights would be an ordinary Laplacian; with signs
            # the diagonal uses |w|, so row sums vanish only when w >= 0
            if all(w >= 0 for row in rows for w in row):
                assert all(s == 0 for s in lap.row_sums())

    def test_laplacian_rejects_loops(self):
        with pytest.raises(ValueError):
            matrix_of(add_loops(path_graph(2), {0: 1}), "laplacian")

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            matrix_of(path_graph(2), "spectral")


class TestConnectivity:
    def test_connected(self):
        assert path_graph(5).is_connected()
        assert not WeightedGraph.from_weights(
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        ).is_connected()

    def test_components(self):
        g = WeightedGraph.from_weights(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        assert g.components() == [[0, 1], [2, 3]]

    def test_negative_weight_counts_as_edge(self):
        g = WeightedGraph.from_weights([[0, -2], [-2, 0]])
        assert g.is_connected()


class TestGraph6:
    def test_parse_known(self):
        assert parse_graph6("A_") == path_graph(2)
        star = parse_graph6("D?{")
        assert star.n == 5
        assert sorted(star.degrees()) == [1, 1, 1, 1, 4]

    def test_header_prefix(self):
        assert parse_graph6(">>graph6<<A_") == path_graph(2)

    def test_emit_known(self):
        assert emit_graph6(path_graph(2)) == "A_"
        assert parse_graph6(emit_graph6(cycle_graph(5))) == cycle_graph(5)

    def test_round_trip_random(self):
        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(1, 20)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        rows[i][j] = rows[j][i] = 1
            g = WeightedGraph.from_weights(rows)
            assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_large_order(self):
        g = path_graph(70)  # needs the 4-byte order field
        encoded = emit_graph6(g)
        assert encoded.startswith("~")
        assert parse_graph6(encoded) == g

    def test_malformed(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error) as info:
            parse_graph6("D?")  # truncated body
        assert "offset" in str(info.value)
        with pytest.raises(Graph6Error):
            parse_graph6("A_~")  # trailing junk
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(5))  # byte out of range

    def test_non_ascii_rejected(self):
        # "?" would decode as an all-zero group, so no character may be
        # replaced by it; the offset is counted past the prefix
        for text, offset in (("Bé", 1), ("é", 0), ("D?{€", 3)):
            for prefix in ("", ">>graph6<<"):
                with pytest.raises(Graph6Error, match="non-ASCII") as info:
                    parse_graph6(prefix + text)
                assert info.value.offset == offset

    def test_overlong_order_rejected(self):
        # n = 2 fits the one-byte field; the 4- and 8-byte forms are overlong
        with pytest.raises(Graph6Error, match="overlong") as info:
            parse_graph6("~??A" + chr(95))
        assert info.value.offset == 1
        with pytest.raises(Graph6Error, match="overlong") as info:
            parse_graph6("~~?????A" + chr(95))
        assert info.value.offset == 2

    def test_weighted_rejected(self):
        with pytest.raises(ValueError):
            emit_graph6(WeightedGraph.from_weights([[0, 2], [2, 0]]))
