"""Weighted graphs, standard families, and graph6 input/output.

A graph is a symmetric integer weight matrix; diagonal entries are loop
weights.  Vertices are 0-based everywhere.  The Laplacian uses absolute
weights on the diagonal (for an unweighted graph that is the ordinary
degree) and is only defined for loop-free graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping

from .exact import ExactMatrix, _check_vertices, _support_components


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _integer_weight(w: object, i: int, j: int) -> int:
    if not isinstance(w, bool):
        try:
            value = int(w)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if value == w:
                return value
    raise ValueError(f"weight at ({i}, {j}) is not an integer: {w!r}")


@dataclass(frozen=True)
class WeightedGraph:
    """Finite graph with symmetric integer edge weights and integer loops."""

    n: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.weights) != self.n or any(
            len(row) != self.n for row in self.weights
        ):
            raise ValueError("weight matrix shape does not match n")
        cells = list(chain.from_iterable(self.weights))
        integers = all(map(isinstance, cells, repeat(int)))
        if not integers or bool in set(map(type, cells)):
            raise ValueError("weights must be integers")
        if list(map(tuple, self.weights)) != list(zip(*self.weights)):
            raise ValueError("weight matrix must be symmetric")

    @classmethod
    def from_weights(cls, rows: Iterable[Iterable[int]]) -> "WeightedGraph":
        """Graph from integer-valued weights; a bool, or a value that
        int() would change (1.7, "2"), is rejected naming its cell."""
        data = tuple(map(tuple, rows))
        if not set(map(type, chain.from_iterable(data))) <= {int}:
            data = tuple(
                tuple(_integer_weight(w, i, j) for j, w in enumerate(row))
                for i, row in enumerate(data)
            )
        return cls(len(data), data)

    # -- basic structure ---------------------------------------------------

    def weight(self, u: int, v: int) -> int:
        _check_vertices(self.n, u, v)
        return self.weights[u][v]

    def edges(self) -> list[tuple[int, int, int]]:
        """(u, v, weight) for u <= v with nonzero weight; u == v are loops."""
        return [
            (u, v, self.weights[u][v])
            for u in range(self.n)
            for v in range(u, self.n)
            if self.weights[u][v] != 0
        ]

    def is_simple(self) -> bool:
        """0/1 off-diagonal weights and no loops."""
        return all(
            self.weights[u][v] in (0, 1)
            for u in range(self.n)
            for v in range(self.n)
            if u != v
        ) and all(self.weights[u][u] == 0 for u in range(self.n))

    def is_loop_free(self) -> bool:
        return all(self.weights[u][u] == 0 for u in range(self.n))

    def degrees(self) -> tuple[int, ...]:
        """Sum of absolute off-diagonal weights at each vertex."""
        return tuple(
            sum(abs(w) for v, w in enumerate(row) if v != u)
            for u, row in enumerate(self.weights)
        )

    def components(self) -> list[list[int]]:
        """Connected components of the nonzero off-diagonal support, each
        sorted, in the order of their least vertex."""
        return _support_components(self.weights)

    def is_connected(self) -> bool:
        return len(self.components()) == 1


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def path_graph(n: int) -> WeightedGraph:
    """Path on n vertices in line order, P_1 being a single vertex."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = 1
    return WeightedGraph.from_weights(rows)


def cycle_graph(n: int) -> WeightedGraph:
    """Cycle on n >= 3 vertices in cyclic order."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        rows[i][j] = rows[j][i] = 1
    return WeightedGraph.from_weights(rows)


def complete_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return WeightedGraph.from_weights(rows)


def circulant_graph(n: int, connections: Iterable[int]) -> WeightedGraph:
    """Circulant with vertex i adjacent to i +- s for each connection s,
    an int (not a bool) in 1..n//2, each named once."""
    if n < 1:
        raise ValueError("circulant needs n >= 1")
    conns = list(connections)
    for s in conns:
        if type(s) is not int:
            raise TypeError(f"connection {s!r} is not an int")
    if len(set(conns)) < len(conns):
        raise ValueError("each connection must be named once")
    if any(s < 1 or s > n // 2 for s in conns):
        raise ValueError("connections must lie in 1..n//2")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for s in conns:
            rows[i][(i + s) % n] = 1
            rows[i][(i - s) % n] = 1
    return WeightedGraph.from_weights(rows)


def _family_parts(descriptor: str) -> list[str]:
    """' PATH:6' -> ['path', '6']: the fields of a family descriptor, the
    name lowercased, with the blanks around the descriptor dropped."""
    parts = descriptor.strip().split(":")
    parts[0] = parts[0].lower()
    return parts


def _decimal(text: str) -> int:
    """A number field of a family descriptor: plain ASCII digits with no
    leading zero.  int() would also take a sign, blanks, underscores and
    non-ASCII digits."""
    if not (text.isascii() and text.isdigit()) or (len(text) > 1 and text[0] == "0"):
        raise ValueError(f"{text!r} is not a plain decimal")
    return int(text)


def family(descriptor: str) -> WeightedGraph:
    """Build a graph from a descriptor such as 'path:6', 'circulant:5:1,2'
    or 'circulant:5:{1,2}'; 'circulant:3:' has no connections."""
    parts = _family_parts(descriptor)
    name = parts[0]
    try:
        if name == "path" and len(parts) == 2:
            return path_graph(_decimal(parts[1]))
        if name == "cycle" and len(parts) == 2:
            return cycle_graph(_decimal(parts[1]))
        if name == "complete" and len(parts) == 2:
            return complete_graph(_decimal(parts[1]))
        if name == "circulant" and len(parts) == 3:
            conn = parts[2]
            if conn[:1] == "{" and conn[-1:] == "}":
                conn = conn[1:-1]
            steps = [_decimal(s) for s in conn.split(",")] if conn else []
            return circulant_graph(_decimal(parts[1]), steps)
    except ValueError as exc:
        raise ValueError(f"bad family descriptor {descriptor!r}: {exc}") from exc
    raise ValueError(f"unknown family descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# modification and derived matrices
# ---------------------------------------------------------------------------


def add_loops(g: WeightedGraph, loops: Mapping[int, int]) -> WeightedGraph:
    """Set diagonal weights from a vertex -> weight map, checked by from_weights."""
    _check_vertices(g.n, *loops)
    rows = [list(row) for row in g.weights]
    for v, w in loops.items():
        rows[v][v] = w
    return WeightedGraph.from_weights(rows)


def complement(g: WeightedGraph) -> WeightedGraph:
    """Simple-graph complement; weighted graphs and loops are unsupported."""
    if not g.is_simple():
        raise ValueError("complement is only defined for simple graphs")
    rows = [
        [0 if i == j else 1 - g.weights[i][j] for j in range(g.n)]
        for i in range(g.n)
    ]
    return WeightedGraph.from_weights(rows)


def basis_rows(g: WeightedGraph, basis: str = "adjacency") -> list[list[int]]:
    """Integer rows of the adjacency or Laplacian matrix of the graph."""
    if basis == "adjacency":
        return [list(row) for row in g.weights]
    if basis == "laplacian":
        if not g.is_loop_free():
            raise ValueError("Laplacian requires a loop-free graph")
        degs = g.degrees()
        return [
            [degs[i] if i == j else -g.weights[i][j] for j in range(g.n)]
            for i in range(g.n)
        ]
    raise ValueError(f"unknown basis {basis!r}")


def matrix_of(g: WeightedGraph, basis: str = "adjacency") -> ExactMatrix:
    """Adjacency or Laplacian matrix of the graph, with exact entries."""
    return ExactMatrix(basis_rows(g, basis))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def _g6_read_n(data: bytes) -> tuple[int, int]:
    """Decode the graph6 order field; returns (n, bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    first = data[0]
    if first != 126:  # '~'
        if not 63 <= first <= 125:
            raise Graph6Error(f"invalid order byte {first}", 0)
        return first - 63, 1
    # '~' and 3 bytes of 6 bits, or '~~' and 6; an order the shorter
    # field could hold is an overlong encoding
    start, size, least = (2, 8, 258048) if data[1:2] == b"~" else (1, 4, 63)
    if len(data) < size:
        raise Graph6Error(f"truncated {size}-byte order field", len(data))
    value = 0
    for k in range(start, size):
        b = data[k]
        if not 63 <= b <= 126:
            raise Graph6Error(f"invalid order byte {b}", k)
        value = (value << 6) | (b - 63)
    if value < least:
        raise Graph6Error("overlong order encoding", start)
    return value, size


def parse_graph6(text: str) -> WeightedGraph:
    """Decode a graph6 string to a simple unweighted graph."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as err:
        # every character before err.start is one byte
        raise Graph6Error(
            f"non-ASCII character {text[err.start]!r}", err.start
        ) from None
    n, consumed = _g6_read_n(data)
    if n < 1:
        raise Graph6Error("graph6 order must be >= 1", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[consumed:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} body bytes, found {len(body)}",
            consumed + min(len(body), nbytes),
        )
    bits = []
    for k, b in enumerate(body):
        if not 63 <= b <= 126:
            raise Graph6Error(f"invalid body byte {b}", consumed + k)
        v = b - 63
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits", consumed + nbytes - 1)
    rows = [[0] * n for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i][j] = rows[j][i] = 1
            idx += 1
    return WeightedGraph.from_weights(rows)


def emit_graph6(g: WeightedGraph) -> str:
    """Encode a simple unweighted graph as graph6."""
    if not g.is_simple():
        raise ValueError("graph6 encodes simple unweighted graphs only")
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [
            ((n >> shift) & 63) + 63 for shift in (30, 24, 18, 12, 6, 0)
        ]
    bits = [
        g.weights[i][j] for j in range(1, n) for i in range(j)
    ]
    while len(bits) % 6:
        bits.append(0)
    body = [
        sum(bit << shift for bit, shift in zip(bits[k : k + 6], range(5, -1, -1)))
        + 63
        for k in range(0, len(bits), 6)
    ]
    return bytes(head + body).decode("ascii")
