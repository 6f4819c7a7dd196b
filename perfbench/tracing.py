"""Spans around the library's module boundaries, recorded from outside.

The tracer replaces a function on the module that calls it (for
example ``avgmix.mixing.inverse_mod``, which is how mixing sees the
function it imported from exact) with a wrapper that records a span:
name, start, end, parent span and operation id.  Targets are looked up
by name, so a target a later version deletes is reported absent instead
of failing the run.  Spans stay in memory until the run ends.

A layer's busy time is the time its outermost spans cover, its self time
the span durations minus the time their child spans cover.  Within one
operation the self times of all spans, the operation's root span
included, add up to the operation's traced time.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, attribute path) for every boundary the benchmark wraps
BOUNDARIES = (
    ("graphs.parse_graph6", "avgmix.graphs", "parse_graph6"),
    ("graphs.matrix_of", "avgmix.graphs", "matrix_of"),
    ("graphs.matrix_of", "avgmix.cli", "matrix_of"),
    ("graphs.matrix_of", "avgmix.analysis", "matrix_of"),
    ("mixing.average_mixing", "avgmix.mixing", "average_mixing"),
    ("mixing.average_mixing", "avgmix.analysis", "average_mixing"),
    ("mixing.average_mixing", "avgmix.cli", "average_mixing"),
    ("mixing.entries", "avgmix.mixing", "_entry_numerator"),
    ("mixing.invariants", "avgmix.mixing", "_check_mixing_invariants"),
    ("mixing.certify", "avgmix.mixing", "_certify"),
    ("exact.charpoly", "avgmix.mixing", "_charpoly_int"),
    ("exact.charpoly", "avgmix.analysis", "char_poly"),
    ("exact.charpoly", "avgmix.discrete", "char_poly"),
    ("exact.bareiss", "avgmix.exact", "_bareiss_det"),
    ("exact.squarefree", "avgmix.mixing", "_int_squarefree"),
    ("exact.squarefree", "avgmix.discrete", "squarefree_part"),
    ("exact.disc", "avgmix.mixing", "_int_disc"),
    ("exact.inverse_mod", "avgmix.mixing", "inverse_mod"),
    ("exact.inverse_mod", "avgmix.discrete", "inverse_mod"),
    ("exact.poly_mul", "avgmix.exact", "ExactPolynomial.__mul__"),
    ("exact.poly_mod", "avgmix.exact", "ExactPolynomial.__mod__"),
    ("exact.power_sums", "avgmix.mixing", "_int_power_sums"),
    ("exact.power_sums", "avgmix.exact", "power_sums"),
    ("exact.lcm", "avgmix.mixing", "lcm_int"),
    ("exact.resolvent", "avgmix.discrete", "resolvent_coeffs"),
    ("exact.compose_mod", "avgmix.discrete", "compose_mod"),
    ("exact.trace_mod", "avgmix.discrete", "trace_mod"),
    ("analysis.verify_closed_form", "avgmix.cli", "verify_closed_form"),
    ("analysis.is_walk_regular", "avgmix.cli", "is_walk_regular"),
    ("analysis.are_cospectral", "avgmix.cli", "are_cospectral"),
    ("analysis.are_cospectral", "avgmix.analysis", "are_cospectral"),
    ("analysis.pst_necessary", "avgmix.cli", "pst_necessary"),
    ("numeric.eigenvalue_range", "avgmix.cli", "eigenvalue_range"),
    ("cli.main", "avgmix.cli", "main"),
    ("cli.emit", "avgmix.cli", "_emit"),
    ("discrete.literal", "avgmix.discrete", "avg_mixing_literal"),
    ("discrete.physical", "avgmix.discrete", "avg_mixing_physical"),
    ("discrete.cesaro_partial", "avgmix.discrete", "cesaro_partial"),
    ("discrete.error_bound", "avgmix.discrete", "cesaro_error_bound"),
    ("schemes.cyclotomic", "avgmix.schemes", "cyclotomic_scheme"),
    ("schemes.verify", "avgmix.schemes", "verify_scheme"),
    ("schemes.axioms", "avgmix.schemes", "_axiom_a"),
    ("schemes.axioms", "avgmix.schemes", "_axiom_b"),
    ("schemes.axioms", "avgmix.schemes", "_axiom_c"),
    ("schemes.axioms", "avgmix.schemes", "_axiom_d"),
    ("schemes.spectral_data", "avgmix.schemes", "_spectral_data"),
    ("schemes.koppinen", "avgmix.schemes", "koppinen_schur_check"),
)
# layers whose spans keep the call's argument and result, for sizes
SIZED = ("mixing.average_mixing",)
ROOT = "bench.op"

NAME, START, END, PARENT, OP, DATA = range(6)


class Tracer:
    """Collects spans; ``install`` patches the boundaries, ``remove`` undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        keep = name in SIZED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[DATA] = (args, result)
            return result

        return traced

    def run_op(self, op: int, fn):
        """Run one top-level operation under its root span."""
        self.op = op
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.op = -1

    def install(self, boundaries=BOUNDARIES) -> None:
        for layer, module, path in boundaries:
            owner = sys.modules.get(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def absent_layers(self, boundaries=BOUNDARIES) -> list[str]:
        """Layers none of whose targets exist in the traced library."""
        missing = set(self.missing)
        layers = {layer for layer, _, _ in boundaries}
        present = {
            layer for layer, module, path in boundaries
            if f"{module}.{path}" not in missing
        }
        return sorted(layers - present)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """busy_s, self_s and calls of every span name.

    Busy time counts only spans with no ancestor of the same name, so a
    layer that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[NAME], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["self_s"] += selfs[i]
        row["calls"] += 1
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != s[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["busy_s"] += s[END] - s[START]
    return table


def op_balance(spans: list[list]) -> float:
    """Largest gap, over operations, between the summed self times and
    the root span's duration; zero up to rounding by construction."""
    selfs = self_times(spans)
    totals: dict[int, float] = {}
    roots: dict[int, float] = {}
    for i, s in enumerate(spans):
        totals[s[OP]] = totals.get(s[OP], 0.0) + selfs[i]
        if s[NAME] == ROOT:
            roots[s[OP]] = s[END] - s[START]
    return max((abs(totals[k] - roots.get(k, 0.0)) for k in totals), default=0.0)


def size_attrs(spans: list[list]) -> None:
    """Replace kept arguments and results by per-call sizes from the
    public AvgMixReport fields; drops the references."""
    for s in spans:
        if s[DATA] is None:
            continue
        args, report = s[DATA]
        s[DATA] = {
            "input": hash(args[0]) if args else None,
            "n": report.n,
            "deg_psi": report.min_poly.degree,
            "bits_D": abs(int(report.disc_min)).bit_length(),
            "bits_D_char": abs(int(report.disc_char)).bit_length(),
            "bits_denom": int(report.common_denominator).bit_length(),
        }
