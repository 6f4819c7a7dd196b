"""Command-line surface: ingestion, dispatch, serialization.

Every subcommand is a thin wrapper over the library: graphs come from a
family descriptor, a graph6 string, or a JSON weight matrix; results go
out as JSON (exact "p/q" strings), CSV (12 significant digits, marked
approximate), or an aligned text table.  Exit status: 0 on success, 1
when a requested verification fails, 2 on unusable input, 3 when an
internal invariant is violated, 141 when the reader of stdout went away
(as a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .analysis import (
    ClosedForm,
    are_cospectral,
    are_strongly_cospectral,
    ij_span_check,
    is_walk_regular,
    pst_necessary,
    verify_closed_form,
)
from .discrete import avg_mixing_limits
from .exact import ExactMatrix, NotAnnihilatingError
from .graphs import (
    Graph6Error,
    WeightedGraph,
    _family_parts,
    add_loops,
    family,
    matrix_of,
    parse_graph6,
)
from .mixing import AvgMixReport, average_mixing
from .numeric import eigenvalue_range
from .schemes import (
    cyclotomic_scheme,
    is_pseudocyclic,
    koppinen_schur_check,
    verify_scheme,
)

PSD_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _matrix_payload(m: ExactMatrix) -> list[list[str]]:
    d = m.denominator
    return [[_ratio(x, d) for x in row] for row in m.numerators]


def _poly_payload(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def _report_payload(report: AvgMixReport, basis: str) -> dict:
    certs = report.certificates
    return {
        "n": report.n,
        "basis": basis,
        "avg_mixing": _matrix_payload(report.mixing),
        "min_poly": _poly_payload(report.min_poly),
        "char_poly": _poly_payload(report.char_poly),
        "disc_min": str(report.disc_min),
        "disc_char": str(report.disc_char),
        "simple_spectrum": report.simple_spectrum,
        "common_denominator": str(report.common_denominator),
        "certificates": {
            "d2_integral": certs.d2_integral,
            "d_integral_simple": certs.d_integral_simple,
            "d_integral_minpoly": certs.d_integral_minpoly,
        },
    }


def _cell_float(cell: str) -> float:
    # int true division rounds correctly, as float(Fraction) does
    num, _, den = cell.partition("/")
    return int(num) / int(den or 1)


def _emit_matrix_csv(cells: list[list[str]]) -> list[str]:
    lines = ["# approximate decimal values, 12 significant digits"]
    for row in cells:
        lines.append(",".join(format(_cell_float(x), ".12g") for x in row))
    return lines


def _emit_pretty_matrix(cells: list[list[str]]) -> list[str]:
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    return [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in cells
    ]


def _emit(payload: dict, fmt: str, matrix_keys: tuple[str, ...]) -> None:
    """Print payload in the chosen format.

    matrix_keys name the entries holding exact matrices, as rows of "p/q"
    strings; CSV prints the first of them as a numeric table and the
    remaining scalars as key,value rows, pretty prints aligned tables
    plus scalar lines.
    """
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    if fmt == "csv":
        lines = []
        emitted_matrix = False
        for key, value in payload.items():
            if key in matrix_keys:
                if not emitted_matrix:
                    lines.extend(_emit_matrix_csv(value))
                    emitted_matrix = True
                continue
            if isinstance(value, dict):
                lines.extend(f"{key}.{k},{v}" for k, v in value.items())
            elif not isinstance(value, list):
                lines.append(f"{key},{value}")
        print("\n".join(lines))
        return
    for key, value in payload.items():
        if key in matrix_keys:
            print(f"{key}:")
            for line in _emit_pretty_matrix(value):
                print(f"  {line}")
        elif isinstance(value, dict):
            flat = ", ".join(f"{k}={v}" for k, v in value.items())
            print(f"{key}: {flat}")
        elif isinstance(value, list):
            print(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _parse_loops(text: str) -> dict[int, object]:
    """vertex=weight pairs; each weight is parsed as JSON and left to
    `add_loops` to check like any other weight."""
    out: dict[int, object] = {}
    for chunk in text.split(","):
        vertex, _, weight = chunk.partition("=")
        try:
            out[int(vertex)] = json.loads(weight)
        except ValueError:
            raise ValueError(
                f"loop entry {chunk!r} is not of the form vertex=weight"
            ) from None
    return out


def _require_rows(value, what: str) -> list[list]:
    """value itself, once it is known to be a JSON list of lists."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"{what} must be a list of rows")
    return value


def _read_weights_file(path: str) -> WeightedGraph:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "weights" not in data:
        raise ValueError("matrix file must be a JSON object with 'weights'")
    weights = _require_rows(data["weights"], "matrix file 'weights'")
    if "n" in data and type(data["n"]) is not int:
        raise ValueError("matrix file 'n' must be an integer")
    if "n" in data and len(weights) != data["n"]:
        raise ValueError("matrix file 'n' does not match the weight rows")
    return WeightedGraph.from_weights(weights)


def _read_unitary_file(path: str) -> ExactMatrix:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("unitary file must be a JSON object with 'entries'")
    entries = _require_rows(data["entries"], "unitary file 'entries'")
    try:
        rows = [[Fraction(str(x)) for x in row] for row in entries]
    except ZeroDivisionError:
        raise ValueError("unitary file has an entry over 0") from None
    if "n" in data and type(data["n"]) is not int:
        raise ValueError("unitary file 'n' must be an integer")
    if "n" in data and len(rows) != data["n"]:
        raise ValueError("unitary file 'n' does not match the entry rows")
    return ExactMatrix(rows)


def _read_scheme_file(path: str) -> list[ExactMatrix]:
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("matrices")
    if not isinstance(data, list):
        raise ValueError(
            "scheme file must be a JSON list of 0/1 matrices "
            "(or an object with 'matrices')"
        )
    for k, rows in enumerate(data):
        _require_rows(rows, f"scheme file matrix {k}")
        if any(type(x) is not int for row in rows for x in row):
            raise ValueError(f"scheme file matrix {k} must have integer entries")
    return [ExactMatrix(rows) for rows in data]


def _load_graph(args: argparse.Namespace) -> WeightedGraph:
    sources = [
        s
        for s in (args.family, args.graph6, args.matrix_file)
        if s is not None
    ]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --family, --graph6, --matrix-file is required"
        )
    if args.family is not None:
        g = family(args.family)
    elif args.graph6 is not None:
        g = parse_graph6(args.graph6)
    else:
        g = _read_weights_file(args.matrix_file)
    if args.loops:
        g = add_loops(g, _parse_loops(args.loops))
    return g


def _parse_pair(text: str, n: int) -> tuple[int, int]:
    parts = text.split(",")
    try:
        u, v = (int(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"--pair {text!r} is not two comma-separated vertices"
        ) from None
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError("pair vertex out of range")
    return u, v


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = average_mixing(matrix_of(g, args.basis))
    _emit(_report_payload(report, args.basis), args.format, ("avg_mixing",))
    return 0


def _known_closed_form(args: argparse.Namespace) -> ClosedForm | None:
    """The closed form the input family is covered by, if any."""
    if args.family is None:
        return None
    if args.loops:
        return None
    # the descriptor has already built the graph, so its fields parse
    name, *rest = _family_parts(args.family)
    if name == "path":
        n = int(rest[0])
        if args.basis == "laplacian":
            return ClosedForm("path_laplacian", n) if n >= 2 else None
        return ClosedForm("path_adjacency", n)
    if name == "cycle" and args.basis == "adjacency":
        n = int(rest[0])
        return ClosedForm("cycle_odd" if n % 2 else "cycle_even", n)
    if name == "complete" and args.basis == "adjacency":
        n = int(rest[0])
        return ClosedForm("pseudocyclic", n, n - 1) if n >= 2 else None
    return None


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = average_mixing(matrix_of(g, args.basis))
    selected = args.check
    checks: dict[str, bool] = {}
    if selected in ("all", "stochastic"):
        mixing = report.mixing
        # entries numerator / denominator with a positive denominator
        checks["stochastic"] = (
            mixing.is_symmetric()
            and all(min(row) >= 0 for row in mixing.numerators)
            and all(sum(row) == mixing.denominator for row in mixing.numerators)
        )
    if selected in ("all", "psd"):
        low, high = eigenvalue_range(report.mixing)
        checks["psd"] = low >= -PSD_TOLERANCE and high <= 1 + PSD_TOLERANCE
    if selected in ("all", "integrality"):
        certs = report.certificates
        checks["integrality"] = certs.d2_integral and certs.d_integral_simple
    if selected == "all":
        form = _known_closed_form(args)
        if form is not None:
            checks["closed_form"] = verify_closed_form(
                form,
                g if form.family == "pseudocyclic" else None,
                report,
            )
    passed = all(checks.values())
    payload = {"checks": checks, "passed": passed}
    _emit(payload, args.format, ())
    return 0 if passed else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = average_mixing(matrix_of(g, args.basis))
    payload: dict = {
        "n": g.n,
        "basis": args.basis,
        "walk_regular": is_walk_regular(g, args.basis, report),
        "span_class": ij_span_check(report).value,
    }
    if args.pair is not None:
        u, v = _parse_pair(args.pair, g.n)
        verdict = pst_necessary(g, u, v, args.basis, report)
        payload["pair"] = [u, v]
        payload["cospectral"] = are_cospectral(g, u, v, args.basis, report)
        payload["strongly_cospectral"] = are_strongly_cospectral(
            g, u, v, report, args.basis
        )
        payload["pst"] = {
            "status": verdict.status.value,
            "reason": verdict.reason,
            "no_pst_anywhere": verdict.no_pst_anywhere,
        }
    _emit(payload, args.format, ())
    return 0


def _scheme_payload(matrices: list[ExactMatrix]) -> tuple[dict, bool]:
    scheme_report = verify_scheme(matrices)
    payload: dict = {"ok": scheme_report.ok}
    if not scheme_report.ok:
        payload["violations"] = [
            {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
            for v in scheme_report.violations
        ]
        return payload, False
    scheme = scheme_report.scheme
    payload["d"] = scheme.d
    payload["valencies"] = list(scheme.valencies)
    if scheme.multiplicities is not None:
        payload["multiplicities"] = list(scheme.multiplicities)
        pseudo = is_pseudocyclic(scheme)
        payload["pseudocyclic"] = pseudo
        payload["koppinen_ok"] = koppinen_schur_check(scheme)
        if pseudo and scheme.d >= 1:
            # a verified class has 0/1 entries, denominator 1
            class_graph = WeightedGraph.from_weights(scheme.matrices[1].numerators)
            m = (scheme.n - 1) // scheme.d
            payload["formula_ok"] = verify_closed_form(
                ClosedForm("pseudocyclic", scheme.n, m), class_graph
            )
    ok = all(
        payload.get(key, True) for key in ("koppinen_ok", "formula_ok")
    )
    return payload, ok


def _cmd_scheme(args: argparse.Namespace) -> int:
    if (args.q is None) != (args.d is None):
        raise ValueError("--q and --d must be supplied together")
    if (args.q is None) == (args.matrix_file is None):
        raise ValueError("supply either --q/--d or --matrix-file")
    if args.q is not None:
        matrices = cyclotomic_scheme(args.q, args.d)
    else:
        matrices = _read_scheme_file(args.matrix_file)
    payload, ok = _scheme_payload(matrices)
    if args.q is not None and ok and not payload.get("pseudocyclic", False):
        raise AssertionError(
            "a cyclotomic scheme must be pseudocyclic by construction"
        )
    _emit(payload, args.format, ())
    return 0 if ok else 1


def _cmd_discrete(args: argparse.Namespace) -> int:
    u = _read_unitary_file(args.unitary_file)
    literal, physical = avg_mixing_limits(u)
    selected = literal if args.mode == "literal" else physical
    payload = {
        "n": u.nrows,
        "mode": args.mode,
        "avg_mixing": _matrix_payload(selected),
        "literal": _matrix_payload(literal),
        "physical": _matrix_payload(physical),
        "literal_equals_physical": literal == physical,
    }
    _emit(payload, args.format, ("avg_mixing",))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_graph_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        help="graph family descriptor, e.g. path:6, cycle:5, "
        "complete:4, circulant:7:1,2",
    )
    sub.add_argument("--graph6", help="graph6 string")
    sub.add_argument(
        "--matrix-file",
        help="JSON file {\"n\": ..., \"weights\": [[int, ...], ...]}",
    )
    sub.add_argument(
        "--loops",
        help="extra loop weights as vertex=weight pairs, e.g. 0=2,5=2",
    )
    sub.add_argument(
        "--basis",
        choices=("adjacency", "laplacian"),
        default="adjacency",
    )


def _add_format_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "csv", "pretty"),
        default="json",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `avgmix` parser, built on the first call and shared after it.

    `main` is called many times in one process by tests and the
    benchmark, and parsing leaves the parser unchanged; it is not built
    at import, so `import avgmix.cli` stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="avgmix",
        description="Exact average mixing matrices of quantum walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="average mixing matrix with certificates"
    )
    _add_graph_arguments(compute)
    _add_format_argument(compute)
    compute.set_defaults(handler=_cmd_compute)

    verify = sub.add_parser(
        "verify", help="invariant and closed-form verification"
    )
    _add_graph_arguments(verify)
    _add_format_argument(verify)
    verify.add_argument(
        "--check",
        choices=("all", "psd", "stochastic", "integrality"),
        default="all",
    )
    verify.set_defaults(handler=_cmd_verify)

    analyze = sub.add_parser(
        "analyze", help="cospectrality, transfer gate, span class"
    )
    _add_graph_arguments(analyze)
    _add_format_argument(analyze)
    analyze.add_argument("--pair", help="vertex pair u,v")
    analyze.set_defaults(handler=_cmd_analyze)

    scheme = sub.add_parser(
        "scheme", help="association scheme verification"
    )
    scheme.add_argument("--q", type=int, help="prime field order")
    scheme.add_argument("--d", type=int, help="number of classes")
    scheme.add_argument(
        "--matrix-file", help="JSON list of 0/1 class matrices"
    )
    _add_format_argument(scheme)
    scheme.set_defaults(handler=_cmd_scheme)

    discrete = sub.add_parser(
        "discrete", help="average mixing of an orthogonal step matrix"
    )
    discrete.add_argument(
        "--unitary-file",
        required=True,
        help="JSON file {\"n\": ..., \"entries\": [[\"p/q\", ...], ...]}",
    )
    discrete.add_argument(
        "--mode", choices=("literal", "physical"), default="physical"
    )
    _add_format_argument(discrete)
    discrete.set_defaults(handler=_cmd_discrete)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left (`avgmix ... | head`): send what is still buffered
        # to devnull so the flush at exit cannot fail again, and exit the
        # way a process killed by SIGPIPE does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (AssertionError, ArithmeticError, NotAnnihilatingError) as exc:
        # NotAnnihilatingError is a ValueError: this clause comes first
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, Graph6Error, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
