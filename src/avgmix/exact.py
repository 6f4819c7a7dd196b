"""Exact matrices at the API boundary and integer polynomial kernels.

`ExactMatrix` and `ExactPolynomial` are the immutable rational values the
package takes and returns, with no arithmetic of their own: scalars are
`fractions.Fraction` (stored reduced, denominator > 0; ints are taken,
bools are not), polynomials dense ascending coefficient tuples with no
trailing zeros, so the zero polynomial is the empty tuple, of degree -1.

All matrix and polynomial work runs on plain lists of Python ints in the
`_int_*` kernels: primitive and subresultant remainder sequences for gcds
and resultants (coefficients stay at subresultant size), Newton power
sums, and fraction-free Bareiss elimination, which gives determinants,
the characteristic polynomial (at n+1 integer points, then Newton
interpolation) and scaled inverses modulo a polynomial.  The one
rational routine is `_rows_in_span`, the exact span elimination shared
by scheme axiom (d) and the span classification of `avgmix.analysis`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class NonInvertibleError(ValueError):
    """Raised when an element of Q[y]/(m) has no inverse."""


class NotAnnihilatingError(ValueError):
    """Raised when a polynomial claimed to annihilate a matrix does not."""


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class ExactMatrix:
    """Immutable dense matrix over the rationals, a value with no arithmetic."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix must have at least one row")
        width = len(data[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != width for row in data):
            raise ValueError("rows have unequal lengths")
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def ones(cls, n: int) -> "ExactMatrix":
        return cls([[1] * n for _ in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._rows)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._rows]

    def to_float(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self._rows]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entries(self) -> Iterable[Fraction]:
        for row in self._rows:
            yield from row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self._rows
        )
        return f"ExactMatrix({self.nrows}x{self.ncols}: {body})"

    # -- structure ---------------------------------------------------------

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries())

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self._rows)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class ExactPolynomial:
    """Immutable rational polynomial, dense ascending coefficients.

    A value type for results (the polynomials of an `AvgMixReport`);
    polynomial arithmetic runs in the integer kernels below.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, c in reversed(list(enumerate(self._coeffs))):
            power = "x" if i == 1 else f"x^{i}"
            if c != 0:
                terms.append(str(c) if i == 0 else power if c == 1 else f"{c}*{power}")
        return "ExactPolynomial(" + (" + ".join(terms) or "0") + ")"


# ---------------------------------------------------------------------------
# integer polynomial kernels (plain int lists, ascending, no trailing zeros)
# ---------------------------------------------------------------------------


def _int_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _int_content(p: Sequence[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _int_primitive(p: list[int]) -> list[int]:
    """Divide out the content; normalize the leading coefficient positive."""
    if not p:
        return []
    g = _int_content(p)
    if p[-1] < 0:
        g = -g
    if g != 1:
        p = [c // g for c in p]
    return p


def _int_derivative(p: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _int_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Product of integer polynomials."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _int_prem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f reduced mod g."""
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    steps = len(f) - len(g) + 1
    while len(_int_trim(r)) - 1 >= dg and r:
        dr = len(r) - 1
        top = r[-1]
        r = [lead * c for c in r]
        shift = dr - dg
        for i in range(dg + 1):
            r[shift + i] -= top * g[i]
        r = _int_trim(r)
        steps -= 1
    # early exit leaves unapplied lc factors
    if steps > 0 and r:
        scale = lead**steps
        r = [scale * c for c in r]
    return r


def _int_gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Gcd of integer polynomials via the primitive remainder sequence.

    Returns a primitive polynomial with positive leading coefficient
    (an integer constant collapses to [1]; gcd of two zeros is []).
    """
    a = _int_trim(list(f))
    b = _int_trim(list(g))
    if not a:
        return _int_primitive(b)
    if not b:
        return _int_primitive(a)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_primitive(_int_prem(a, b))
        a, b = b, r
    a = _int_primitive(a)
    if len(a) == 1:
        return [1]
    return a


def _int_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of integer polynomials via the subresultant sequence."""
    a = _int_trim(list(f))
    b = _int_trim(list(g))
    if not a or not b:
        return 0
    sign = 1
    if len(a) < len(b):
        if ((len(a) - 1) * (len(b) - 1)) % 2 == 1:
            sign = -sign
        a, b = b, a
    if len(b) == 1:
        return sign * b[0] ** (len(a) - 1)
    ca, cb = _int_content(a), _int_content(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g_ = 1
    h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _int_prem(a, b)
        if not r:
            return 0  # common factor of positive degree
        divisor = g_ * h**delta
        a, b = b, [c // divisor for c in r]
        g_ = a[-1]
        if delta > 0:
            h = g_**delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            h = b[0] ** da // h ** (da - 1) if da > 0 else h
            return sign * scale * h


def _int_squarefree(p: Sequence[int]) -> list[int]:
    """Monic squarefree part of a monic integer polynomial."""
    work = _int_trim(list(p))
    if not work or work[-1] != 1:
        raise ValueError("expected a monic integer polynomial")
    if len(work) == 2:
        return work
    g = _int_gcd(work, _int_derivative(work))
    if len(g) == 1:
        return work
    # exact division: g is primitive and divides the monic work, so the
    # quotient is again monic with integer coefficients
    return _int_exact_div(work, g)


def _int_exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Quotient f / g when g divides f exactly over the integers."""
    rem = list(f)
    dg = len(g) - 1
    lead = g[-1]
    quot = [0] * (len(f) - dg)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        q, leftover = divmod(c, lead)
        if leftover:
            raise ArithmeticError("division was expected to be exact")
        quot[k - dg] = q
        for i in range(dg + 1):
            rem[k - dg + i] -= q * g[i]
    if any(rem):
        raise ArithmeticError("division was expected to be exact")
    return _int_trim(quot)


def _int_power_sums(psi: Sequence[int], upto: int) -> list[int]:
    """Power sums p_0..p_upto of the roots of a monic integer polynomial."""
    if len(psi) < 2 or psi[-1] != 1:
        raise ValueError("power sums need a monic polynomial of degree >= 1")
    m = len(psi) - 1
    p = [0] * (upto + 1)
    p[0] = m
    for k in range(1, upto + 1):
        if k <= m:
            acc = k * psi[m - k]
            for i in range(1, k):
                acc += psi[m - i] * p[k - i]
        else:
            acc = 0
            for i in range(1, m + 1):
                acc += psi[m - i] * p[k - i]
        p[k] = -acc
    return p


def _int_disc(psi: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial."""
    m = len(psi) - 1
    if m < 1:
        raise ValueError("discriminant needs degree >= 1")
    if m == 1:
        return 1
    res = _int_resultant(psi, _int_derivative(psi))
    return -res if (m * (m - 1) // 2) % 2 == 1 else res


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials (fraction-free)
# ---------------------------------------------------------------------------


def _bareiss_forward(work: list[list[int]]) -> int:
    """Bareiss fraction-free elimination of the leading square block, in place.

    Rows may carry extra columns to the right (an augmented right-hand
    side); they are eliminated along with the block.  Afterwards the
    block is upper triangular, every division having been exact, and
    its last diagonal entry is sign * det.  Returns the sign of the row
    permutation applied, or 0 when a zero column shows the block is
    singular before the last step.
    """
    n = len(work)
    width = len(work[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            pivot_row = next(
                (r for r in range(k + 1, n) if work[r][k] != 0), None
            )
            if pivot_row is None:
                return 0
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        pivot = work[k][k]
        row_k = work[k]
        for r in range(k + 1, n):
            row_r = work[r]
            factor = row_r[k]
            for j in range(k + 1, width):
                row_r[j] = (pivot * row_r[j] - factor * row_k[j]) // prev
            row_r[k] = 0
        prev = pivot
    return sign


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    work = [row[:] for row in rows]
    sign = _bareiss_forward(work)
    return sign * work[n - 1][n - 1]


def _charpoly_int(rows: list[list[int]]) -> list[int]:
    """det(xI - M) for an integer matrix, ascending integer coefficients.

    Evaluates the determinant at n+1 integer points with Bareiss
    elimination and recovers the coefficients by Newton interpolation.
    Divided differences of an integer polynomial at integer nodes are
    integers, so every division is exact and checked; the result must
    come out monic of degree n.
    """
    n = len(rows)
    points: list[int] = []
    k = 0
    while len(points) < n + 1:
        points.append(k)
        k = -k if k > 0 else -k + 1
    values = []
    for x in points:
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(n)]
            for i in range(n)
        ]
        values.append(_bareiss_det(shifted))
    # Newton's divided differences, then Horner expansion to monomials
    coeffs_nd = values
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            q, r = divmod(
                coeffs_nd[i] - coeffs_nd[i - 1], points[i] - points[i - level]
            )
            if r:
                raise ArithmeticError("interpolation did not produce integers")
            coeffs_nd[i] = q
    poly = [0] * (n + 1)
    for i in range(n, -1, -1):
        x = points[i]
        for j in range(n, 0, -1):
            poly[j] = poly[j - 1] - x * poly[j]
        poly[0] = coeffs_nd[i] - x * poly[0]
    if poly[-1] != 1:
        raise ArithmeticError("characteristic polynomial is not monic")
    return poly


def _int_scaled_inverse(psi: Sequence[int], a: Sequence[int]) -> tuple[list[int], int]:
    """t and d with t / d = 1 / a in Q[y]/(psi), psi monic, deg a < deg psi.

    Multiplication by a on Z[y]/(psi) has the integer matrix whose
    column k holds y^k a mod psi; its determinant is Res(psi, a).  A
    fraction-free solve of that system against e_0 returns d = +-det
    and t = d * a^-1, an integer vector by Cramer's rule; every division
    of the back-substitution is exact and checked.
    """
    deg = len(psi) - 1
    if deg < 1:
        raise ValueError("modulus must have degree >= 1")
    col = list(a) + [0] * (deg - len(a))
    cols = []
    for _ in range(deg):
        cols.append(col)
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [c - top * p for c, p in zip(col, psi)]
    work = [
        [cols[k][i] for k in range(deg)] + [1 if i == 0 else 0]
        for i in range(deg)
    ]
    d = work[-1][-2] if _bareiss_forward(work) else 0
    if d == 0:
        raise NonInvertibleError("the element shares a factor with the modulus")
    t = [0] * deg
    for i in range(deg - 1, -1, -1):
        row = work[i]
        acc = d * row[deg]
        for j in range(i + 1, deg):
            acc -= row[j] * t[j]
        q, r = divmod(acc, row[i])
        if r:
            raise ArithmeticError("back-substitution was expected to be exact")
        t[i] = q
    return t, d


def lcm_int(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def _rows_in_span(rows: Iterable[Sequence[Scalar]]) -> bool:
    """Exact consistency of the linear system with the given augmented rows.

    Each row holds the coefficients of one equation followed by its right
    hand side.  Duplicate rows are dropped first: the distinct rows span
    the same row space, so the answer cannot change, and a system built
    from few distinct values (a span test over 0/1 classes) shrinks to a
    handful of rows before the Gaussian elimination runs.
    """
    rows = [list(map(Fraction, row)) for row in dict.fromkeys(map(tuple, rows))]
    cols = len(rows[0]) - 1
    pivot = 0
    for col in range(cols):
        hit = next(
            (r for r in range(pivot, len(rows)) if rows[r][col] != 0), None
        )
        if hit is None:
            continue
        rows[pivot], rows[hit] = rows[hit], rows[pivot]
        lead = rows[pivot][col]
        for r in range(len(rows)):
            if r != pivot and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot])]
        pivot += 1
    return all(row[-1] == 0 for row in rows[pivot:])
