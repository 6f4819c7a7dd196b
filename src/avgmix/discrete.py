"""Average mixing of discrete walks driven by rational orthogonal matrices.

The transition matrix at step t is U^t with U orthogonal.  Two limits
are of interest.  The physical average mixing matrix is the Cesaro
limit of the step distributions |(U^t)_{uv}|^2 and equals
sum_r E_r o conj(E_r) over the spectral idempotents of U; it is doubly
stochastic with nonnegative entries.  The literal average mixing
matrix sum_r E_r o E_r drops the conjugation and is the Cesaro limit
of the forward-backward products U^t o U^-t, whose (u, v) entry is
(U^t)_{uv} (U^t)_{vu}; it is symmetric and rational but generally
neither nonnegative nor stochastic.  The two agree exactly when U is
symmetric.

Both limits run on the integer engine of `avgmix.mixing`.  With c the
common denominator of U (the lcm of its entry denominators), the
numerators of U form the integer matrix V = cU.  V has the same
idempotents as U (its eigenvalues are c theta_r), so the idempotent
entries are (E_r)_{uv} = f_uv(c theta_r) w(c theta_r) for integer
polynomials f_uv and w = 1/psi' modulo the squarefree part psi of the
characteristic polynomial of V.  Sums over the roots of psi are traces,
symmetric functions of the roots, so complex eigenvalues need no special
handling:

    literal  (u, v):  sum_r (E_r)_{uv} (E_r)_{uv},  the trace of f_uv f_uv w^2;
    physical (u, v):  sum_r (E_r)_{uv} (E_r)_{vu},  the trace of f_uv f_vu w^2.

The physical form uses that U, being real orthogonal, is normal, so
every E_r is Hermitian and conj(E_r)_{uv} = (E_r)_{vu}; it is read off
by the same `_mixing_matrix` as the continuous walk, Gram route and
invariant checks included.  The literal form is `mixing._literal`,
the same trace forms a T b on the pairs (f_uv, f_uv).  Both are
integer dot products over one shared denominator, and no rational
routine runs here: each result is an `ExactMatrix` of integer
numerators, with `Fraction` built only when an entry is read.

The Cesaro error bound needs the idempotents themselves, in floats.  It
evaluates the same integer resolvent, without the trace weights, at the
roots theta_r of the monic psi_V(c y) / c^deg.  Each coefficient is
scaled by an exact integer division (psi_k / c^(deg-k), B_j /
c^(deg-1-j)), so every float has size about 1 even when c^deg does not
fit a float.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .exact import ExactMatrix, _radical_resolvent
from .mixing import _literal, _mixing_matrix, _trace_form


def _require_orthogonal(u: ExactMatrix) -> list[list[int]]:
    """Check U^T U = I; returns the integer rows of V = cU, c the common
    denominator of U, on which the check runs as V^T V = c^2 I."""
    if not u.is_square:
        raise ValueError("an orthogonal matrix must be square")
    n = u.nrows
    rows = [list(row) for row in u.numerators]
    cols = [list(col) for col in zip(*rows)]
    c2 = u.denominator**2
    for i in range(n):
        for j in range(i, n):
            if sum(map(mul, cols[i], cols[j])) != (c2 if i == j else 0):
                raise ValueError("the matrix is not orthogonal")
    return rows


def avg_mixing_literal(u: ExactMatrix) -> ExactMatrix:
    """sum_r E_r o E_r, exactly; symmetric and rational, but its rows
    need not sum to 1 when U is not symmetric."""
    return _literal(_trace_form(_require_orthogonal(u)))


def avg_mixing_physical(u: ExactMatrix) -> ExactMatrix:
    """sum_r E_r o conj(E_r), exactly: the Cesaro limit of the step
    mixing matrices, doubly stochastic with nonnegative entries."""
    return _mixing_matrix(_trace_form(_require_orthogonal(u)))[0]


def avg_mixing_limits(u: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """(literal, physical), both read off one trace form of U."""
    form = _trace_form(_require_orthogonal(u))
    return _literal(form), _mixing_matrix(form)[0]


# ---------------------------------------------------------------------------
# Cesaro partial averages
# ---------------------------------------------------------------------------


def _require_steps(steps: int) -> None:
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError(f"the number of steps must be a positive int, got {steps!r}")


def cesaro_partial(u: ExactMatrix, steps: int) -> np.ndarray:
    """(1/N) sum_{t<N} (U^t o U^-t) as floats.

    U^-t is the transpose of U^t, so each term has entries
    (U^t)_{uv} (U^t)_{vu}; the average converges to the literal form.
    """
    _require_orthogonal(u)
    _require_steps(steps)
    n = u.nrows
    array = np.array(u.to_float())
    power = np.eye(n)
    total = np.zeros((n, n))
    for _ in range(steps):
        total += power * power.T
        power = power @ array
    return total / steps


def _numeric_idempotents(rows: list[list[int]]):
    """Roots theta_r of psi and the projectors E_r of U, from the integer
    resolvent of V = cU evaluated at the roots of psi_V(c y) / c^deg."""
    _, psi, _, _, resolvent = _radical_resolvent(rows)
    deg = len(psi) - 1
    # V^T V = c^2 I, so the first row of V has norm c
    c = math.isqrt(sum(x * x for x in rows[0]))
    # exact int true division keeps every float of size about 1, where
    # c^deg itself may not fit a float
    coeffs = [psi[k] / c ** (deg - k) for k in range(deg + 1)]
    dpsi = [k * psi[k] / c ** (deg - k) for k in range(1, deg + 1)]
    mats = []
    for j, b in enumerate(resolvent):
        scale = c ** (deg - 1 - j)
        mats.append(np.array([[x / scale for x in row] for row in b], dtype=complex))
    roots = np.roots(coeffs[::-1])
    projectors = []
    for theta in roots:
        value = sum(complex(a) * theta**k for k, a in enumerate(dpsi))
        total = sum(mats[k] * theta**k for k in range(len(mats)))
        projectors.append(total / value)
    return roots, projectors


def cesaro_error_bound(u: ExactMatrix, steps: int) -> float:
    """A priori bound on the gap between the partial average and the
    literal limit.

    The cross term of eigenvalues theta_r, theta_s contributes a
    geometric sum of ratio theta_r / theta_s, bounded entrywise by
    2 max|E_r o E_s| / (N |1 - theta_r / theta_s|).
    """
    rows = _require_orthogonal(u)
    _require_steps(steps)
    roots, projectors = _numeric_idempotents(rows)
    bound = 0.0
    for r in range(len(roots)):
        for s in range(len(roots)):
            if r == s:
                continue
            ratio = roots[r] / roots[s]
            size = float(np.max(np.abs(projectors[r] * projectors[s])))
            bound += 2.0 * size / (steps * abs(1.0 - ratio))
    return bound
