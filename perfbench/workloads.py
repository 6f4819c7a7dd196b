"""Seeded inputs and operations of the benchmark workloads.

Nothing here imports avgmix when the module is imported: the worker
times that import as part of set-up.  ``build`` takes the imported
package and the seed and returns the workload's fixed input set.  Each
operation is a closure that looks every library function up on its
module at call time, so the traced run's wrappers see each call.

The seed changes the inputs (edges, weights, loops, rotation angles,
vertex pairs, the order of CLI invocations) but never their sizes, so
the cost of a pass stays close across seeds.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("dense_random", "small_stream", "families_cli", "walks_schemes")


@dataclass
class Op:
    """One top-level call of a workload.

    key names the operation in golden digests; kind selects its output
    check; info carries what the check needs, built by the benchmark
    itself and never by the library.
    """

    key: str
    kind: str
    run: Callable[[], Any]
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    meta: dict


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_weights(
    rng: random.Random, n: int, edges: int, wmax: int, loops: int
) -> list[list[int]]:
    """Symmetric weights in 1..wmax on exactly ``edges`` random edges and
    ``loops`` random loops; fixed counts keep the cost steady across seeds."""
    rows = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, edges):
        rows[i][j] = rows[j][i] = rng.randint(1, wmax)
    for i in rng.sample(range(n), loops):
        rows[i][i] = rng.randint(1, wmax)
    return rows


def gnp_edges(n: int, p: float) -> int:
    """Expected edge count of G(n, p), the size of its G(n, m) stand-in."""
    return round(p * n * (n - 1) / 2)


def graph6(rows: list[list[int]]) -> str:
    """graph6 line of a simple graph with at most 62 vertices."""
    n = len(rows)
    bits = [rows[i][j] for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        sum(b << (5 - k) for k, b in enumerate(bits[s : s + 6])) + 63
        for s in range(0, len(bits), 6)
    ]
    return bytes([n + 63] + body).decode("ascii")


def basis_matrix(rows: list[list[int]], basis: str) -> list[list[int]]:
    """Adjacency rows as given, or the Laplacian of a loop-free graph."""
    if basis == "adjacency":
        return [row[:] for row in rows]
    n = len(rows)
    return [
        [sum(abs(w) for w in rows[i]) if i == j else -rows[i][j] for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# dense_random: few large random graphs, bigint polynomial algebra
# ---------------------------------------------------------------------------

# (n, basis, loops) of G(n, 0.3)-sized graphs with weights 1..DENSE_WMAX;
# sizes fixed so every seed costs the same.  Each graph takes 0.15-0.3 s:
# short enough for many timings per run, large weights keep D at
# 1900-2700 bits, so bigint algebra still does the work.  An odd count
# puts the median latency on one graph, not in the gap between two.
DENSE_GRAPHS = (
    (20, "adjacency", 3), (20, "laplacian", 0), (21, "adjacency", 3),
    (22, "adjacency", 3), (22, "laplacian", 0),
)
DENSE_WMAX = 30


def _dense_random(av, seed: int) -> Workload:
    rng = _rng("dense_random", seed)
    ops = []
    for n, basis, loops in DENSE_GRAPHS:
        rows = basis_matrix(random_weights(rng, n, gnp_edges(n, 0.3), DENSE_WMAX, loops), basis)
        matrix = av.exact.ExactMatrix(rows)
        ops.append(
            Op(
                f"{basis}-n{n}",
                "report",
                lambda m=matrix: av.mixing.average_mixing(m),
                {"matrix": rows},
            )
        )
    meta = {"graphs": [list(g) for g in DENSE_GRAPHS], "weights": [1, DENSE_WMAX]}
    return Workload("dense_random", ops, meta)


# ---------------------------------------------------------------------------
# small_stream: many small graph6 graphs, per-call overhead
# ---------------------------------------------------------------------------

STREAM_LENGTH = 320
STREAM_ORDERS = range(5, 13)
STREAM_DENSITIES = (0.3, 0.4, 0.5, 0.6)


def _small_stream(av, seed: int) -> Workload:
    rng = _rng("small_stream", seed)
    ops = []
    seen = set()
    duplicates = 0
    for i in range(STREAM_LENGTH):
        n = STREAM_ORDERS[i % len(STREAM_ORDERS)]
        p = STREAM_DENSITIES[i // len(STREAM_ORDERS) % len(STREAM_DENSITIES)]
        rows = random_weights(rng, n, gnp_edges(n, p), 1, 0)
        basis = rng.choice(("adjacency", "laplacian"))
        line = graph6(rows)
        duplicates += (line, basis) in seen
        seen.add((line, basis))

        def run(line=line, basis=basis):
            g = av.graphs.parse_graph6(line)
            return av.mixing.average_mixing(av.graphs.matrix_of(g, basis))

        ops.append(
            Op(f"{i}:{line}:{basis[0]}", "report", run,
               {"matrix": basis_matrix(rows, basis)})
        )
    meta = {
        "graphs": STREAM_LENGTH,
        "orders": [STREAM_ORDERS.start, STREAM_ORDERS.stop - 1],
        "densities": list(STREAM_DENSITIES),
        "duplicate_share": duplicates / STREAM_LENGTH,
    }
    return Workload("small_stream", ops, meta)


# ---------------------------------------------------------------------------
# families_cli: structured families through the in-process CLI
# ---------------------------------------------------------------------------

# (subcommand, family, basis); sizes fixed, the seed picks pairs and order.
# Every call takes under 0.15 s, so a run times each one many times.
CLI_CALLS = (
    ("compute", "path:36", "adjacency"),
    ("compute", "path:30", "laplacian"),
    ("compute", "cycle:29", "adjacency"),
    ("compute", "cycle:30", "adjacency"),
    ("compute", "circulant:24:1,4", "adjacency"),
    ("compute", "complete:30", "adjacency"),
    ("verify", "path:24", "laplacian"),
    ("verify", "cycle:25", "adjacency"),
    ("verify", "cycle:24", "adjacency"),
    ("verify", "complete:24", "adjacency"),
    ("analyze", "path:12", "adjacency"),
    ("analyze", "cycle:13", "adjacency"),
    ("analyze", "cycle:14", "adjacency"),
)


def family_weights(descriptor: str) -> list[list[int]]:
    """Adjacency rows of a family descriptor, built independently of avgmix."""
    name, _, rest = descriptor.partition(":")
    if name == "circulant":
        size, _, conn = rest.partition(":")
        n, steps = int(size), [int(s) for s in conn.split(",")]
    else:
        n = int(rest)
        steps = {"path": [1], "cycle": [1], "complete": range(1, n)}[name]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for s in steps:
            j = i + s
            if name == "path" and j >= n:
                continue
            j %= n
            if j != i:
                rows[i][j] = rows[j][i] = 1
    return rows


def _families_cli(av, seed: int) -> Workload:
    rng = _rng("families_cli", seed)
    calls = list(CLI_CALLS)
    rng.shuffle(calls)
    ops = []
    for command, descriptor, basis in calls:
        argv = [command, "--family", descriptor, "--basis", basis]
        rows = family_weights(descriptor)
        info = {"command": command, "family": descriptor, "basis": basis,
                "matrix": basis_matrix(rows, basis), "weights": rows}
        if command == "analyze":
            n = len(rows)
            u = rng.randrange(n)
            v = (n - 1 - u) if descriptor.startswith("path") else (u + n // 2) % n
            if v == u:
                v = (u + 1) % n
            argv += ["--pair", f"{u},{v}"]
            info["pair"] = (u, v)

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = av.cli.main(argv)
            return code, out.getvalue()

        ops.append(Op(" ".join(argv), "cli", run, info))
    return Workload("families_cli", ops, {"calls": len(calls)})


# ---------------------------------------------------------------------------
# walks_schemes: discrete walks and association schemes
# ---------------------------------------------------------------------------

PYTHAGOREAN = (
    (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
    (12, 35, 37), (9, 40, 41), (28, 45, 53), (11, 60, 61), (16, 63, 65),
    (33, 56, 65), (48, 55, 73), (13, 84, 85), (36, 77, 85), (39, 80, 89),
    (65, 72, 97),
)
# walk and scheme sizes keep every operation under about 0.3 s; the odd
# operation count (4 per walk, 1 per scheme) puts the median latency on
# one operation, not in the gap between two
WALK_ORDERS = (6, 8, 10)
CESARO_STEPS = 200
SCHEMES = ((13, 2), (13, 3), (17, 2))


def rotation_walk(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Signed-permutation conjugate of the first n/2 Pythagorean rotations.

    The seed picks each rotation's orientation and the signed
    permutation.  Distinct angles keep the spectrum simple, and the
    fixed denominators keep the cost of a walk the same for every seed.
    """
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, (a, b, c) in enumerate(PYTHAGOREAN[: n // 2]):
        if rng.random() < 0.5:
            a, b = b, a
        i = 2 * k
        rows[i][i] = rows[i + 1][i + 1] = Fraction(a, c)
        rows[i][i + 1], rows[i + 1][i] = Fraction(-b, c), Fraction(b, c)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [
        [signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(n)]
        for i in range(n)
    ]


def _scheme_op(av, q: int, d: int):
    def run():
        schemes = av.schemes
        classes = schemes.cyclotomic_scheme(q, d)
        report = schemes.verify_scheme(classes)
        scheme = report.scheme
        pseudo = schemes.is_pseudocyclic(scheme) if scheme else None
        koppinen = schemes.koppinen_schur_check(scheme) if scheme else None
        graph = av.graphs.WeightedGraph.from_weights(
            [[int(x) for x in row] for row in classes[1].to_lists()]
        )
        closed = av.mixing.average_mixing(av.graphs.matrix_of(graph))
        return classes, report, pseudo, koppinen, closed

    return run


def _walks_schemes(av, seed: int) -> Workload:
    rng = _rng("walks_schemes", seed)
    discrete = av.discrete
    ops = []
    for n in WALK_ORDERS:
        rows = rotation_walk(rng, n)
        u = av.exact.ExactMatrix(rows)
        info = {"unitary": rows}
        ops += [
            Op(f"literal-n{n}", "literal", lambda u=u: discrete.avg_mixing_literal(u), info),
            Op(f"physical-n{n}", "physical", lambda u=u: discrete.avg_mixing_physical(u), info),
            Op(f"cesaro-n{n}", "cesaro",
               lambda u=u: discrete.cesaro_partial(u, CESARO_STEPS), info),
            Op(f"bound-n{n}", "bound",
               lambda u=u: discrete.cesaro_error_bound(u, CESARO_STEPS), info),
        ]
    for q, d in SCHEMES:
        ops.append(Op(f"scheme-q{q}-d{d}", "scheme", _scheme_op(av, q, d), {"q": q, "d": d}))
    meta = {"walk_orders": list(WALK_ORDERS), "cesaro_steps": CESARO_STEPS,
            "schemes": [list(s) for s in SCHEMES]}
    return Workload("walks_schemes", ops, meta)


def build(av, name: str, seed: int) -> Workload:
    """The fixed input set of workload ``name`` for ``seed``."""
    builders = {
        "dense_random": _dense_random,
        "small_stream": _small_stream,
        "families_cli": _families_cli,
        "walks_schemes": _walks_schemes,
    }
    return builders[name](av, seed)
