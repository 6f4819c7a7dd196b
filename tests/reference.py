"""An exact reference for the tests, independent of avgmix.

Plain lists of Fraction: polynomials ascending with no trailing zeros,
matrices lists of rows.  Nothing comes from avgmix, and the algorithms
differ from the engine's: Faddeev-LeVerrier for the characteristic
polynomial, Gaussian elimination for determinants, Euclid over Q for
gcds and inverses modulo psi, the resolvent as a sum of matrix powers,
sums over the roots of psi as traces of multiplication matrices (not
Newton power sums), entry numerators as whole products dotted with the
trace weights (not rows of their Hankel matrix), the conjugate pairing
by composing with y^-1, simple spectra by closed walks and the power-sum
Hankel matrix, cospectral vertices by vertex-deleted char polys and
closed walks, span membership as a rank comparison of flattened
matrices (no duplicate equations dropped), and positive semidefiniteness
by fraction-free symmetric elimination.  The one float routine is the
Cesaro partial average, summed one power of U after another.
`unpacked_resolvent` reads an engine resolvent only through its own
per-row `unpack`, so the B_j can be compared as nested lists.
"""

from fractions import Fraction
from itertools import product, zip_longest

import numpy as np


def trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def add(f, g):
    return trim([a + b for a, b in zip_longest(f, g, fillvalue=0)])


def mul(f, g):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def poly_divmod(f, g):
    rem, quot = trim(f), [0] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        c, shift = rem[-1] / g[-1], len(rem) - len(g)
        quot[shift] = c
        rem = add(rem, [0] * shift + [-c * b for b in g])
    return trim(quot), rem


def derivative(p):
    return trim([k * c for k, c in enumerate(p)][1:])


def gcd(f, g):
    """Monic gcd by Euclid's algorithm."""
    f, g = trim(f), trim(g)
    while g:
        f, g = g, poly_divmod(f, g)[1]
    return [c / f[-1] for c in f]


def squarefree(p):
    """Squarefree part of a monic p, monic again."""
    return poly_divmod(p, gcd(p, derivative(p)))[0]


def inverse_mod(a, psi):
    """a^-1 mod psi by the extended Euclidean algorithm: s_i a = r_i mod psi."""
    r0, r1, s0, s1 = trim(psi), poly_divmod(a, psi)[1], [], [Fraction(1)]
    while len(r1) > 1:
        q, r = poly_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, add(s0, mul([-1], mul(q, s1)))
    if not r1:
        raise ZeroDivisionError("not invertible modulo psi")
    return poly_divmod([c / r1[0] for c in s1], psi)[1]


def compose_mod(g, u, psi):
    """g(u(y)) mod psi by Horner."""
    acc = []
    for c in reversed(g):
        acc = poly_divmod(add(mul(acc, u), [c]), psi)[1]
    return acc


def power_traces(psi, count):
    """Tr(y^j) on Q[y]/(psi) for j < count: the trace of multiplication by
    y^j, whose matrix has y^(j+k) mod psi as column k."""
    deg, reduced = len(psi) - 1, [[Fraction(1)]]
    while len(reduced) < count + deg - 1:
        reduced.append(poly_divmod([0] + reduced[-1], psi)[1])
    column = [p + [0] * (deg - len(p)) for p in reduced]
    return [sum(column[j + k][k] for k in range(deg)) for j in range(count)]


def trace(h, traces):
    """Sum of h over the roots of psi, h reduced mod psi."""
    if len(h) > len(traces):
        raise ValueError("reduce h modulo psi first")
    return sum((c * t for c, t in zip(h, traces)), Fraction(0))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def determinant(rows):
    work, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for k in range(len(work)):
        pivot = next((r for r in range(k, len(work)) if work[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot], det = work[pivot], work[k], -det
        det *= work[k][k]
        for r in range(k + 1, len(work)):
            f = work[r][k] / work[k][k]
            work[r] = [a - f * b for a, b in zip(work[r], work[k])]
    return det


def char_poly(rows):
    """det(xI - A) by Faddeev-LeVerrier: M_k = A M_(k-1) + c_(n-k+1) I,
    c_(n-k) = -tr(A M_k) / k."""
    n = len(rows)
    coeffs, am = [Fraction(0)] * n + [Fraction(1)], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[x + coeffs[n - k + 1] * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(am)]
        am = matmul(rows, m)
        coeffs[n - k] = -Fraction(sum(am[i][i] for i in range(n))) / k
    return coeffs


def powers(rows, count):
    """A^0 .. A^(count-1)."""
    n = len(rows)
    out = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    while len(out) < count:
        out.append(matmul(out[-1], rows))
    return out[:count]


def deleted_char_poly(rows, u):
    """Characteristic polynomial of A with row and column u removed."""
    return char_poly([row[:u] + row[u + 1:] for k, row in enumerate(rows) if k != u])


def closed_walks(rows, count):
    """W[u][k] = (A^k)_uu for k < count: the closed walks at each vertex.
    For k < n they decide cospectrality as the deleted char polys do."""
    pw = powers(rows, count)
    return [[m[u][u] for m in pw] for u in range(len(rows))]


def combine(coeffs, mats):
    """sum_k coeffs[k] mats[k]."""
    n = len(mats[0])
    return [[sum((c * m[i][j] for c, m in zip(coeffs, mats)), Fraction(0))
             for j in range(n)] for i in range(n)]


def resolvent(rows, psi):
    """B_j = sum_(k > j) psi_k A^(k-1-j), summed term by term: the
    coefficients of (psi(x) - psi(y)) / (x - y) = sum_j B_j(x) y^j at A."""
    pw = powers(rows, len(psi) - 1)
    return [combine(psi[j + 1:], pw) for j in range(len(psi) - 1)]


def mixing(rows, conjugate=False):
    """sum_r E_r o E_r, or sum_r E_r o conj(E_r) for an orthogonal matrix,
    with (E_r)_uv = g_uv(theta_r) and g_uv = B_uv / psi' mod psi."""
    n, psi = len(rows), squarefree(char_poly(rows))
    deg, bs = len(psi) - 1, resolvent(rows, psi)
    w, traces = inverse_mod(derivative(psi), psi), power_traces(psi, deg)
    y_inverse = inverse_mod([0, 1], psi) if conjugate else None
    out = [[Fraction(0)] * n for _ in range(n)]
    for u, v in product(range(n), repeat=2):
        g = poly_divmod(mul(trim([b[u][v] for b in bs]), w), psi)[1]
        paired = compose_mod(g, y_inverse, psi) if conjugate else g
        out[u][v] = trace(poly_divmod(mul(g, paired), psi)[1], traces)
    return out


def trace_numerator(f, g, tau):
    """The coefficients of f g dotted with the trace weights tau, in
    plain ints: one full product per call, no Hankel rows."""
    return int(sum((c * t for c, t in zip(mul(f, g), tau)), Fraction(0)))


def entry_numerators(mats, tau, literal=False):
    """trace_numerator(f_uv, g, tau) for every pair (u, v), with
    f_uv = sum_j mats[j][u][v] y^j and g = f_uv when literal, else f_vu."""
    n = len(mats[0])

    def f(u, v):
        return [b[u][v] for b in mats]

    return [[trace_numerator(f(u, v), f(u, v) if literal else f(v, u), tau)
             for v in range(n)] for u in range(n)]


def solve(a, b):
    """X with a X = b for a nonsingular square a, by Gauss-Jordan over Q."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(x) for x in rhs]
            for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [x / lead for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def simple_spectrum_mixing(rows):
    """sum_r E_r o conj(E_r) for a normal matrix A with a simple spectrum,
    which is sum_r E_r o E_r when A is symmetric, as W H^-1 W^T.

    Every E_r is x_r x_r^* of rank one, so with X[u][r] = |x_ru|^2 the
    result is X X^T.  Closed walks give W[u][k] = (A^k)_uu = (X V)[u][k]
    for the Vandermonde V[r][k] = theta_r^k, and H = V^T V is the Hankel
    matrix of the power sums p_(j+k) = tr A^(j+k); det H = disc(phi) is
    nonzero, and X X^T = W H^-1 W^T.  No resolvent and no 1/psi'.
    """
    n = len(rows)
    pw = powers(rows, 2 * n - 1)
    w = [[pw[k][u][u] for k in range(n)] for u in range(n)]
    h = [[sum(pw[j + k][i][i] for i in range(n)) for k in range(n)]
         for j in range(n)]
    return matmul(w, solve(h, [list(col) for col in zip(*w)]))


def power_hankel(psi):
    """H[j][k] = p_(j+k), the power sums of the roots of psi, j, k < deg psi.
    H = V V^T for the Vandermonde V[j][r] = theta_r^j, so det H = disc(psi)."""
    m = len(psi) - 1
    sums = power_traces(psi, 2 * m - 1)
    return [[sums[j + k] for k in range(m)] for j in range(m)]


def hankel_mixing(rows):
    """sum_r E_r o E_r for a symmetric A with any spectrum, as y^T H^-1 y.

    With psi the squarefree part of the characteristic polynomial, the
    walk counts y_k = (A^k)_uv = sum_r theta_r^k (E_r)_uv for k < deg psi
    are y = V x with x_r = (E_r)_uv, so sum_r x_r^2 = y^T (V V^T)^-1 y
    and V V^T is `power_hankel(psi)`.  No resolvent and no 1/psi'.
    """
    n, psi = len(rows), squarefree(char_poly(rows))
    m = len(psi) - 1
    pw = powers(rows, m)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    ys = [[pw[k][u][v] for u, v in pairs] for k in range(m)]
    xs = solve(power_hankel(psi), ys)
    values = [sum(ys[k][i] * xs[k][i] for k in range(m)) for i in range(len(pairs))]
    return [values[u * n:(u + 1) * n] for u in range(n)]


def is_psd(rows):
    """Whether a symmetric integer matrix is positive semidefinite, exactly.

    Fraction-free (Bareiss) symmetric elimination, each pivot the largest
    diagonal entry left: once pivots p_1 .. p_k > 0 are eliminated, the
    block left is p_k times their Schur complement, so it has the signs
    of the Schur complement, which is PSD exactly when the matrix is.  A
    negative diagonal entry fails; a zero largest pivot leaves a block
    that must be zero, since a PSD matrix has a zero row wherever its
    diagonal is zero.
    """
    a = [list(row) for row in rows]
    left, last = list(range(len(a))), 1
    while left:
        if min(a[i][i] for i in left) < 0:
            return False
        k = max(left, key=lambda i: a[i][i])
        pivot = a[k][k]
        if pivot == 0:
            return not any(a[i][j] for i in left for j in left)
        left.remove(k)
        for i in left:
            for j in left:
                a[i][j], rem = divmod(pivot * a[i][j] - a[i][k] * a[k][j], last)
                if rem:
                    raise ArithmeticError("a Bareiss division left a remainder")
        last = pivot
    return True


def rank(vectors):
    """Rank of a list of equal-length vectors by elimination over Q."""
    work, done = [[Fraction(x) for x in v] for v in vectors], 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(done, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[done], work[pivot] = work[pivot], work[done]
        for r in range(done + 1, len(work)):
            f = work[r][col] / work[done][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[done])]
        done += 1
    return done


def scheme_verdict(mats):
    """(axiom, witness, detail) violations of the scheme axioms by the 0/1
    class matrices, in the order avgmix reports them, and the valencies
    (identity first) when there are none.  A product lies in the span of
    the classes when adding it, flattened, to the flattened classes leaves
    the rank unchanged."""
    n, k = len(mats[0]), len(mats)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [("a", (), "no class equals the identity")] if ident not in mats else []
    out += [("a", (i,), f"class {i} is empty") for i, m in enumerate(mats) if not any(map(any, m))]
    total = [[sum(m[i][j] for m in mats) for j in range(n)] for i in range(n)]
    bad = [(i, j) for i in range(n) for j in range(n) if total[i][j] != 1]
    if bad:
        out.append(("a", bad[0], "class supports do not partition: position "
                    f"{bad[0]} is covered {total[bad[0][0]][bad[0][1]]} times"))
    out += [("b", (i,), f"the transpose of class {i} is not a class")
            for i, m in enumerate(mats) if [list(c) for c in zip(*m)] not in mats]
    products = [[matmul(a, b) for b in mats] for a in mats]
    out += [("c", (i, j), f"classes {i} and {j} do not commute")
            for i in range(k) for j in range(i + 1, k) if products[i][j] != products[j][i]]
    flat = [[x for row in m for x in row] for m in mats]
    for i, j in product(range(k), repeat=2):
        p = products[i][j]
        if rank(flat + [[x for row in p for x in row]]) == rank(flat):
            continue
        detail = (f"the product of classes {i} and {j} is not a linear "
                  f"combination of the classes")
        for c, m in enumerate(mats):
            values = {(r, t): p[r][t] for r in range(n) for t in range(n) if m[r][t]}
            if len(set(values.values())) > 1:
                lo, hi = min(values, key=values.get), max(values, key=values.get)
                detail += (f": on the support of class {c} it takes value "
                           f"{values[lo]} at {lo} but {values[hi]} at {hi}")
                break
        out.append(("d", (i, j), detail))
    if out:
        return out, None
    return out, tuple(sum(m[0]) for m in sorted(mats, key=lambda m: m != ident))


def cesaro_partial(rows, steps):
    """(1/N) sum_(t<N) U^t o U^-t for float rows of an orthogonal U, each
    power from the one before it."""
    array = np.array(rows, dtype=float)
    n = len(rows)
    power = np.eye(n)
    total = np.zeros((n, n))
    for _ in range(steps):
        total += power * power.T
        power = power @ array
    return total / steps


def unpacked_resolvent(res):
    """[B_0..B_{deg-1}] of a packed resolvent, every row unpacked."""
    return [list(map(res.unpack, b)) for b in res.packed]
