"""Output checks for the benchmark, made from outside the library.

Every check works for any seed: it tests the invariants the paper
guarantees (symmetric, nonnegative, rows summing to 1, D^2 * M-hat
integral, D_char * M-hat integral for simple spectra), closed forms the
benchmark states itself, and agreement with a floating-point oracle.
Each check returns a list of problems; an empty list means the output
passed.  Digests of exact outputs guard byte-identical results against
the golden files.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

ORACLE_TOL = 1e-7
# kinds whose outputs are floats; they get no golden digest
FLOAT_KINDS = ("cesaro", "bound")


# ---------------------------------------------------------------------------
# closed forms, stated here independently of avgmix.analysis
# ---------------------------------------------------------------------------


def _form(n: int, ones: Fraction, ident: Fraction, perm=None, perm_c=Fraction(0)):
    rows = [[ones + (ident if i == j else 0) for j in range(n)] for i in range(n)]
    if perm is not None:
        for i in range(n):
            rows[i][perm(i)] += perm_c
    return rows


def closed_form(family: str, basis: str):
    """Exact M-hat of a covered family descriptor, or None."""
    name, _, rest = family.partition(":")
    if name == "circulant":
        return None
    n = int(rest)
    F = Fraction
    if name == "path" and basis == "adjacency":
        c = F(1, 2 * n + 2)
        return _form(n, 2 * c, c, lambda i: n - 1 - i, c)
    if name == "path" and basis == "laplacian" and n >= 2:
        c = F(1, 2 * n)
        return _form(n, F(n - 1, n * n), c, lambda i: n - 1 - i, c)
    if name == "cycle" and basis == "adjacency" and n % 2:
        return _form(n, F(n - 1, n * n), F(1, n))
    if name == "cycle" and basis == "adjacency":
        return _form(n, F(n - 2, n * n), F(1, n), lambda i: (i + n // 2) % n, F(1, n))
    if name == "complete" and basis == "adjacency" and n >= 2:
        return pseudocyclic_form(n, n - 1)
    return None


def pseudocyclic_form(n: int, m: int):
    """(n - m + 1)/n^2 J + (m - 1)/n I for a pseudocyclic class graph."""
    return _form(n, Fraction(n - m + 1, n * n), Fraction(m - 1, n))


# ---------------------------------------------------------------------------
# invariants and the numeric oracle
# ---------------------------------------------------------------------------


def stochastic_problems(rows, rows_sum_to_one: bool = True) -> list[str]:
    n = len(rows)
    out = []
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i + 1, n)):
        out.append("not symmetric")
    if rows_sum_to_one:
        if any(x < 0 for row in rows for x in row):
            out.append("negative entry")
        if any(sum(row) != 1 for row in rows):
            out.append("a row does not sum to 1")
    return out


def mixing_problems(rows, d_min: int, d_char: int, simple: bool, denom: int) -> list[str]:
    """Invariants and integrality certificates of an exact M-hat."""
    out = stochastic_problems(rows)
    denoms = [x.denominator for row in rows for x in row]
    if any((d_min * d_min) % q for q in denoms):
        out.append("D^2 * M-hat is not integral")
    if simple != (d_char != 0):
        out.append("simple_spectrum disagrees with D_char")
    if simple and any(d_char % q for q in denoms):
        out.append("D_char * M-hat is not integral for a simple spectrum")
    if denom != math.lcm(*denoms):
        out.append("common denominator is not the lcm of the entries")
    return out


def oracle_problems(av, matrix_rows, exact_rows, deg: int) -> list[str]:
    """Agreement with avgmix.numeric's eigendecomposition oracle."""
    numeric = av.numeric
    dec = numeric.spectral_decomposition(np.array(matrix_rows, dtype=float))
    if len(dec.eigenvalues) != deg:
        return [f"oracle finds {len(dec.eigenvalues)} eigenvalues, exact degree {deg}"]
    approx = numeric.numeric_avg_mixing(dec)
    err = float(np.max(np.abs(approx - np.array(exact_rows, dtype=float))))
    return [f"oracle differs by {err:.3g}"] if err > ORACLE_TOL else []


def _report_problems(av, report, matrix_rows, closed=None) -> list[str]:
    rows = report.mixing.to_lists()
    out = mixing_problems(
        rows,
        int(report.disc_min),
        int(report.disc_char),
        report.simple_spectrum,
        report.common_denominator,
    )
    out += oracle_problems(av, matrix_rows, rows, report.min_poly.degree)
    if closed is not None and rows != closed:
        out.append("differs from the closed form")
    return out


# ---------------------------------------------------------------------------
# CLI payloads
# ---------------------------------------------------------------------------


def _walk_diagonals(rows) -> list[list[int]]:
    """(A^k)_uu for k < n and every u, in integers."""
    n = len(rows)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    for _ in range(n):
        out.append([power[u][u] for u in range(n)])
        power = [
            [sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out


def _in_span(target: np.ndarray, basis: list[np.ndarray]) -> bool:
    a = np.stack([b.ravel() for b in basis], axis=1)
    coef = np.linalg.lstsq(a, target.ravel(), rcond=None)[0]
    return float(np.max(np.abs(a @ coef - target.ravel()))) < 1e-9


def _analyze_problems(av, payload, info) -> list[str]:
    rows = info["matrix"]
    n = len(rows)
    u, v = info["pair"]
    dec = av.numeric.spectral_decomposition(np.array(rows, dtype=float))
    mhat = av.numeric.numeric_avg_mixing(dec)
    diags = _walk_diagonals(rows)
    same = lambda a, b: float(np.max(np.abs(mhat[:, a] - mhat[:, b]))) < 1e-8  # noqa: E731
    strongly = same(u, v)
    ident, ones = np.eye(n), np.ones((n, n))
    if _in_span(mhat, [ident, ones]):
        span = "IJ"
    elif _in_span(mhat, [ident, ones, ident[::-1]]):
        span = "IJT"
    else:
        span = "OTHER"
    expected = {
        "n": n,
        "basis": info["basis"],
        "walk_regular": all(len(set(d)) == 1 for d in diags),
        "span_class": span,
        "pair": [u, v],
        "cospectral": all(d[u] == d[v] for d in diags),
        "strongly_cospectral": strongly,
    }
    out = [
        f"{key} is {payload.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if payload.get(key) != want
    ]
    pst = payload.get("pst", {})
    if pst.get("status") != ("CANDIDATE" if strongly else "BLOCKED"):
        out.append("pst status disagrees with strong cospectrality")
    distinct = all(not same(a, b) for a in range(n) for b in range(a + 1, n))
    if pst.get("no_pst_anywhere") != distinct:
        out.append("no_pst_anywhere disagrees with the column test")
    return out


def _cli_problems(av, output, info) -> list[str]:
    code, stdout = output
    if code != 0:
        return [f"exit status {code}"]
    payload = json.loads(stdout)
    command, family, basis = info["command"], info["family"], info["basis"]
    closed = closed_form(family, basis)
    if command == "compute":
        rows = [[Fraction(x) for x in row] for row in payload["avg_mixing"]]
        out = mixing_problems(
            rows,
            int(Fraction(payload["disc_min"])),
            int(Fraction(payload["disc_char"])),
            payload["simple_spectrum"],
            int(payload["common_denominator"]),
        )
        if payload["n"] != len(info["matrix"]) or payload["basis"] != basis:
            out.append("n or basis echoed wrongly")
        out += oracle_problems(av, info["matrix"], rows, len(payload["min_poly"]) - 1)
        if closed is not None and rows != closed:
            out.append("differs from the closed form")
        return out
    if command == "verify":
        want = {"stochastic", "psd", "integrality"} | ({"closed_form"} if closed else set())
        checks = payload["checks"]
        if set(checks) != want or not all(checks.values()) or payload["passed"] is not True:
            return [f"verify reported {checks}, passed={payload['passed']}"]
        return []
    return _analyze_problems(av, payload, info)


# ---------------------------------------------------------------------------
# discrete walks and schemes
# ---------------------------------------------------------------------------


def discrete_oracle(unitary_rows) -> tuple[np.ndarray, np.ndarray]:
    """Literal and physical limits from a numeric eigendecomposition.

    The walks have simple spectra by construction, so each unit
    eigenvector v of the normal matrix U gives the idempotent v v^*.
    """
    u = np.array(unitary_rows, dtype=float)
    values, vectors = np.linalg.eig(u)
    gaps = np.abs(values[:, None] - values[None, :]) + np.eye(len(values))
    if float(gaps.min()) < 1e-6:
        raise ValueError("the discrete oracle needs a simple spectrum")
    projectors = [np.outer(v, v.conj()) / np.vdot(v, v) for v in vectors.T]
    literal = sum(p * p for p in projectors)
    physical = sum(p * p.conj() for p in projectors)
    return literal.real, physical.real


def _matrix_vs(exact_rows, approx: np.ndarray, label: str) -> list[str]:
    err = float(np.max(np.abs(np.array(exact_rows, dtype=float) - approx)))
    return [f"{label} differs from the oracle by {err:.3g}"] if err > ORACLE_TOL else []


def _scheme_problems(av, output, info) -> list[str]:
    classes, report, pseudo, koppinen, closed = output
    q, d = info["q"], info["d"]
    m = (q - 1) // d
    if not report.ok:
        return [f"scheme rejected: {report.violations}"]
    out = []
    rows = [c.to_lists() for c in classes]
    if rows[0] != [[int(i == j) for j in range(q)] for i in range(q)]:
        out.append("the first class is not the identity")
    powers = {pow(x, d, q) for x in range(1, q)}
    cosets = set()
    for c in rows[1:]:
        conn = frozenset(j for j in range(q) if c[0][j] == 1)
        circulant = all(c[i][j] == (((j - i) % q) in conn) for i in range(q) for j in range(q))
        coset = {(s * p) % q for s in conn for p in powers}
        if not circulant or coset != conn or len(conn) != m:
            out.append("a class is not a circulant on a coset of the d-th powers")
        cosets.add(conn)
    if len(cosets) != d:
        out.append("the classes are not the d distinct cosets")
    scheme = report.scheme
    if scheme.valencies != (1,) + (m,) * d or scheme.multiplicities != (1,) + (m,) * d:
        out.append(f"valencies {scheme.valencies}, multiplicities {scheme.multiplicities}")
    if pseudo is not True or koppinen is not True:
        out.append(f"pseudocyclic={pseudo}, koppinen={koppinen}")
    out += _report_problems(av, closed, rows[1], pseudocyclic_form(q, m))
    return out


def check_outputs(av, ops, outputs) -> list[list[str]]:
    """Problems of each operation's output, given one whole pass."""
    by_key = {op.key: out for op, out in zip(ops, outputs)}
    problems = []
    for op, out in zip(ops, outputs):
        if out is None:
            problems.append(["no output"])
            continue
        try:
            problems.append(_problems(av, op, out, by_key))
        except Exception as exc:  # a malformed output must count, not crash
            problems.append([f"check raised {type(exc).__name__}: {exc}"])
    return problems


def _problems(av, op, out, by_key) -> list[str]:
    info = op.info
    if op.kind == "report":
        return _report_problems(av, out, info["matrix"])
    if op.kind == "cli":
        return _cli_problems(av, out, info)
    if op.kind == "scheme":
        return _scheme_problems(av, out, info)
    if op.kind in ("literal", "physical"):
        rows = out.to_lists()
        literal, physical = discrete_oracle(info["unitary"])
        if op.kind == "literal":
            return stochastic_problems(rows, rows_sum_to_one=False) + _matrix_vs(rows, literal, "literal")
        return stochastic_problems(rows) + _matrix_vs(rows, physical, "physical")
    if op.kind == "bound":
        return [] if math.isfinite(out) and out > 0 else [f"bound {out} is not positive"]
    # cesaro: within the a priori bound of the exact literal limit
    n = len(info["unitary"])
    exact = by_key.get(f"literal-n{n}")
    bound = by_key.get(f"bound-n{n}")
    if exact is None or bound is None:
        return ["literal limit or bound missing"]
    gap = float(np.max(np.abs(out - np.array(exact.to_lists(), dtype=float))))
    return [] if gap <= bound + 1e-9 else [f"partial average off by {gap:.3g} > bound {bound:.3g}"]


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _rows_text(rows) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in rows)


def _report_text(r) -> str:
    c = r.certificates
    return "\n".join([
        _rows_text(r.mixing.to_lists()),
        " ".join(str(x) for x in r.min_poly.coeffs),
        " ".join(str(x) for x in r.char_poly.coeffs),
        f"{r.disc_min} {r.disc_char} {r.simple_spectrum} {r.common_denominator}",
        f"{c.d2_integral} {c.d_integral_simple} {c.d_integral_minpoly}",
    ])


def canonical(kind: str, out) -> str:
    """Text that fixes an output exactly; equal outputs give equal text."""
    if kind == "report":
        return _report_text(out)
    if kind == "cli":
        return f"{out[0]}\n{out[1]}"
    if kind in ("literal", "physical"):
        return _rows_text(out.to_lists())
    if kind == "scheme":
        classes, report, pseudo, koppinen, closed = out
        s = report.scheme
        return "\n".join([
            *(_rows_text(c.to_lists()) for c in classes),
            f"{report.ok} {s.valencies} {s.multiplicities} {pseudo} {koppinen}",
            _report_text(closed),
        ])
    if kind == "cesaro":
        return np.asarray(out).tobytes().hex()
    return repr(out)


def digest(kind: str, out) -> str:
    return hashlib.sha256(canonical(kind, out).encode()).hexdigest()[:16]
