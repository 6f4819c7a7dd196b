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

A reducible U splits.  Every E_r is a polynomial in U, so when U is a
direct sum after a simultaneous permutation of rows and columns, every
E_r is block diagonal and both limits are the direct sums of the blocks'
limits.  The rows of V are split into the connected components of their
off-diagonal support (u ~ v when V_uv or V_vu is nonzero), each block is
reduced to its own common denominator c_k, and each gets its own trace
form, with every hard check of the engine.  Five 2 x 2 rotations with
denominators 5 to 29 thus take five quadratic psi, not one psi of
degree 10 over the lcm of the denominators.  The block results are put
back at their original indices over the lcm of their denominators, zero
across blocks, and the invariants are checked again on the whole.  An
irreducible U takes one trace form of the whole V.

The Cesaro error bound is certified on the same integers and blocks.
The cross term r != s of the partial average is a geometric sum of
ratio theta_r / theta_s, and Cauchy-Schwarz over the pairs bounds the
gap to the literal limit by (2/N) max_uv P_uv sqrt(S), with P the
physical limit and S = sum_(r != s) |theta_r - theta_s|^-2.  Each E_r
is Hermitian PSD, so P is PSD by the Schur product theorem, P_uv <=
sqrt(P_uu P_vv), and max_uv P_uv = max_u P_uu: the bound reads only
the diagonal trace forms (f_uu, f_uu), one per distinct f_uu.  The
partial average is block diagonal too, so the gap is zero across
blocks, and inside block k it is that block's own Cesaro error, since
every E_r o E_s restricted to block k involves only its eigenvalues.
The bound is thus max_k (2/N) max_u (P_k)_uu sqrt(S_k), with P_k and
S_k over block k alone.  S_k sums over a subset of the pairs of S, so
the bound is never above that of the whole V, and equals it for an
irreducible U.  Each S_k is one more trace form over the block's
weights tau, the largest S_k max P_k^2 is chosen by exact
cross-multiplication, and the square of the bound, an exact rational,
is rounded up once to the least float whose square is at least it.
No root of psi is ever computed.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable

import numpy as np

from .exact import ExactMatrix, _int_derivative, _int_mul, _support_components
from .mixing import (
    _check_mixing_invariants,
    _largest_diagonal,
    _literal,
    _mixing_matrix,
    _require_symmetric,
    _trace_form,
)


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


def _block_forms(u: ExactMatrix) -> tuple[list[list[int]], list]:
    """The components of the off-diagonal support of V = cU, and one trace
    form per component, each block over its own denominator c_k."""
    rows = _require_orthogonal(u)
    comps = _support_components(rows)
    forms = []
    for comp in comps:
        block = ExactMatrix([[rows[i][j] for j in comp] for i in comp], u.denominator)
        forms.append(_trace_form([list(row) for row in block.numerators]))
    return comps, forms


def _direct_sum(
    comps: list[list[int]], parts: list[ExactMatrix], check: Callable
) -> ExactMatrix:
    """The block results at their original indices, zero across blocks,
    over the lcm of the block denominators, with `check` run on the
    assembled numerators.  One block is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    denom = math.lcm(*(part.denominator for part in parts))
    n = sum(map(len, comps))
    nums = [[0] * n for _ in range(n)]
    for comp, part in zip(comps, parts):
        scale = denom // part.denominator
        for i, row in zip(comp, part.numerators):
            out = nums[i]
            for j, x in zip(comp, row):
                out[j] = x * scale
    check(nums, denom)
    return ExactMatrix(nums, denom)


def _check_literal(nums: list[list[int]], denom: int) -> None:
    _require_symmetric(nums, "the literal average mixing matrix must be symmetric")


def avg_mixing_literal(u: ExactMatrix) -> ExactMatrix:
    """sum_r E_r o E_r, exactly; symmetric and rational, but its rows
    need not sum to 1 when U is not symmetric."""
    comps, forms = _block_forms(u)
    return _direct_sum(comps, list(map(_literal, forms)), _check_literal)


def avg_mixing_physical(u: ExactMatrix) -> ExactMatrix:
    """sum_r E_r o conj(E_r), exactly: the Cesaro limit of the step
    mixing matrices, doubly stochastic with nonnegative entries."""
    comps, forms = _block_forms(u)
    parts = [_mixing_matrix(form)[0] for form in forms]
    return _direct_sum(comps, parts, _check_mixing_invariants)


def avg_mixing_limits(u: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """(literal, physical), both read off one trace form per block of U."""
    comps, forms = _block_forms(u)
    literal = _direct_sum(comps, list(map(_literal, forms)), _check_literal)
    parts = [_mixing_matrix(form)[0] for form in forms]
    return literal, _direct_sum(comps, parts, _check_mixing_invariants)


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

    The powers go in blocks of b = min(isqrt(N), 64): U^0..U^(b-1) one
    by one, then the whole stack times U^b per block, one batched
    product, and each block's terms summed at once.  At most two stacks
    of b n x n floats are live, so memory stays within 128 n^2 floats
    for any N.
    """
    _require_orthogonal(u)
    _require_steps(steps)
    n = u.nrows
    array = np.array(u.to_float())
    block = min(math.isqrt(steps), 64)
    powers = np.empty((block, n, n))
    powers[0] = np.eye(n)
    for t in range(1, block):
        powers[t] = powers[t - 1] @ array
    stride = powers[-1] @ array
    total = np.zeros((n, n))
    for start in range(0, steps, block):
        if start:
            powers = powers @ stride
        part = powers[: steps - start]
        total += (part * part.transpose(0, 2, 1)).sum(0)
    return total / steps


def _round_up_sqrt(num: int, den: int) -> float:
    """The least float b with b^2 >= num / den; inf past the float range."""
    # ceil(sqrt(x)) = ceil(sqrt(ceil(x))) on the grid 2^-1074 of the
    # smallest subnormal, then rounded up to the 53 bits of a float
    x = -((-num << 2148) // den)
    m = math.isqrt(x)
    m += m * m < x
    s = max(m.bit_length() - 53, 0)
    m = -(-m >> s)
    return math.ldexp(m, s - 1074) if m.bit_length() + s <= 2098 else math.inf


def _twelve_denom_s(form) -> int:
    """12 denom S of one trace form: S = sum_(r != s) |theta_r - theta_s|^-2
    over the roots of its psi, scaled back by c."""
    # |a - b|^2 = -(a - b)^2 / (a b) on the unit circle, unchanged when
    # V = cU scales the roots by c; summed over the pairs, 12 S is the sum
    # of h / psi'^2 over the roots of psi_V, where h (of degree 2 deg - 2)
    # is 6 y psi' psi'' - 3 y^2 psi''^2 + 4 y^2 psi' psi'''
    d1 = _int_derivative(form.min_poly)
    d2 = _int_derivative(d1)
    d3 = _int_derivative(d2)
    h = [0] * len(form.tau)
    for shift, scale, f, g in ((1, 6, d1, d2), (2, -3, d2, d2), (2, 4, d1, d3)):
        for k, x in enumerate(_int_mul(f, g), shift):
            h[k] += scale * x
    # tau_k / denom = sum_r theta_r^k / psi'(theta_r)^2: this is 12 denom S
    s12 = sum(map(mul, h, form.tau))
    if s12 < 0 or (s12 > 0) != (len(form.min_poly) > 2):
        raise AssertionError("S must be positive exactly when deg psi > 1")
    return s12


def cesaro_error_bound(u: ExactMatrix, steps: int) -> float:
    """Certified bound on the gap between the partial average and the
    literal limit: the least float b with b^2 >= 4 S_k max_u (P_k)_uu^2 / N^2
    for every block k of U, with P_k its physical limit and S_k the sum
    over its own root pairs.  P_k is PSD by the Schur product theorem, so
    its largest diagonal entry is its largest entry, and the diagonal
    trace forms alone give it.  The gap is zero across blocks and, inside
    one, that block's own, so each block is bounded on its trace form."""
    _require_steps(steps)
    num, den = 0, 1
    for form in _block_forms(u)[1]:
        p = _largest_diagonal(form)
        # S_k max P_k^2 = s12 p^2 / (12 denom_k^3); keep the largest
        block_num = _twelve_denom_s(form) * p * p
        block_den = form.denom**3
        if block_num * den > num * block_den:
            num, den = block_num, block_den
    return _round_up_sqrt(num, 3 * den * steps * steps)
