"""Exact matrices at the API boundary, integer polynomial kernels, and
the front end of the mixing engine.

`ExactMatrix` and `ExactPolynomial` are the immutable rational values the
package takes and returns, with no arithmetic of their own.  Both take
ints and `fractions.Fraction`s, not bools.  A matrix stores integer
numerators over one positive denominator in lowest terms and builds a
`Fraction` only when an entry is read; a polynomial stores reduced
`Fraction` coefficients, dense ascending with no trailing zeros, so the
zero polynomial is the empty tuple, of degree -1.

All matrix and polynomial work runs on plain lists of Python ints in the
`_int_*` kernels.  There is one remainder sequence, the subresultant
one (coefficients stay at subresultant size): it gives the resultant,
the cofactor that scales an inverse modulo a polynomial and, when the
resultant is 0, the gcd.  Next to them are the deterministic
Miller-Rabin test behind the 62-bit primes (also the primality check of
`avgmix.schemes`) and `_rows_in_span`, the fraction-free span
elimination shared by scheme axiom (d) and the span classification of
`avgmix.analysis`.  No rational routine is left below the boundary.

`_radical_resolvent` is the first stage of `avgmix.mixing`: it turns an
integer matrix M into its spectral integers without representing an
eigenvalue.  The char poly phi comes from `_charpoly_int` (Hessenberg
form modulo fixed 62-bit primes, joined by the Chinese remainder
theorem under a Hadamard bound), with one shortcut: when the bound
needs more than the first prime p0 and phi mod p0 is squarefree
(`_squarefree_mod`), disc(phi) is nonzero mod p0 and hence nonzero, the
spectrum is simple and psi = phi, so phi is read off the resolvent pass
that builds the B_j (Faddeev-LeVerrier, every division exact) and the
other primes are skipped.  One subresultant sequence on (phi, phi')
gives `_int_radical` the squarefree part psi, D = disc(psi) and the
cofactor t = D / psi' mod psi, which has integer coefficients; a second
sequence, on (psi, psi'), runs only when phi has a repeated root.
`_resolvent_int` is the Horner pass for the B_j of
Phi(M, y) = psi(y) (yI - M)^-1 = sum_j B_j y^j, checked by psi(M) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


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
    """Immutable dense rational matrix: integer numerators over one denominator.

    `numerators` is a tuple of int tuples and `denominator` a positive int,
    in lowest terms: no prime divides the denominator and every numerator.
    Equal matrices therefore store equal integers, and `==` and `hash`
    compare integers.  `Fraction` entries are built only when read.
    """

    __slots__ = ("numerators", "denominator", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Scalar]], denominator: int = 1):
        if isinstance(denominator, bool) or not isinstance(denominator, int):
            raise TypeError(
                f"the denominator must be an int, got {type(denominator).__name__}"
            )
        if denominator <= 0:
            raise ValueError("the denominator must be positive")
        data = list(map(tuple, rows))
        all_int = set(map(type, chain.from_iterable(data))) <= {int}
        if not all_int:
            data = [
                [x if type(x) is int else _as_fraction(x) for x in row] for row in data
            ]
        if not data:
            raise ValueError("matrix must have at least one row")
        width = len(data[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != width for row in data):
            raise ValueError("rows have unequal lengths")
        if not all_int:
            # ints have numerator x and denominator 1 too
            scale = math.lcm(*(x.denominator for row in data for x in row))
            data = [[x.numerator * (scale // x.denominator) for x in r] for r in data]
            denominator *= scale
        g = math.gcd(denominator, *chain.from_iterable(data))
        if g != 1:
            data = [[x // g for x in row] for row in data]
        self.numerators = tuple(map(tuple, data))
        self.denominator = denominator // g
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
        return Fraction(self.numerators[i][j], self.denominator)

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(x, d) for x in self.numerators[i])

    def to_lists(self) -> list[list[Fraction]]:
        d = self.denominator
        return [[Fraction(x, d) for x in row] for row in self.numerators]

    def to_float(self) -> list[list[float]]:
        # int true division rounds correctly, as float(Fraction) does
        d = self.denominator
        return [[x / d for x in row] for row in self.numerators]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entries(self) -> Iterable[Fraction]:
        for row in self.to_lists():
            yield from row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        same = self.denominator == other.denominator
        return same and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.to_lists())
        return f"ExactMatrix({self.nrows}x{self.ncols}: {body})"

    # -- structure ---------------------------------------------------------

    def is_symmetric(self) -> bool:
        return self.is_square and self.numerators == tuple(zip(*self.numerators))

    def is_integral(self) -> bool:
        return self.denominator == 1

    def row_sums(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(sum(row), d) for row in self.numerators)


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


def _int_prem(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: (q, r) with lc(g)^(deg f - deg g + 1) f = q g + r
    and deg r < deg g."""
    r = _int_trim(list(f))
    dg = len(g) - 1
    lead = g[-1]
    steps = len(r) - dg
    q = [0] * max(steps, 0)
    while len(r) > dg:
        shift = len(r) - 1 - dg
        top = r[-1]
        if lead != 1:
            r = [lead * c for c in r]
            q = [lead * c for c in q]
        q[shift] = top
        for i in range(dg + 1):
            r[shift + i] -= top * g[i]
        r = _int_trim(r)
        steps -= 1
    # early exit leaves unapplied lc factors
    if steps > 0:
        scale = lead**steps
        r = [scale * c for c in r]
        q = [scale * c for c in q]
    return _int_trim(q), r


def _int_resultant(
    f: Sequence[int], g: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """Res(f, g), t with t g = Res(f, g) mod f and deg t < deg f, and the
    gcd of f and g, primitive with a positive leading coefficient.

    The subresultant remainder sequence of the primitive parts carries the
    cofactor of g: each remainder is u f + v g, and v goes through the
    same pseudo-division and exact division as the remainder itself.  The
    cofactors are determinants like the subresultants, so every division
    is exact, and checked.  When the last remainder is a constant of a
    degree-dropping (abnormal) step, it and its cofactor are scaled up to
    the resultant, and the gcd is [1].  A zero remainder means a shared
    factor: Res = 0, t = [], and the last nonzero remainder (f itself
    when g = 0) is a multiple of the gcd.
    """
    a = _int_trim(list(f))
    b = _int_trim(list(g))
    sign = 1
    swapped = len(a) < len(b)
    if swapped:
        if ((len(a) - 1) * (len(b) - 1)) % 2 == 1:
            sign = -sign
        a, b = b, a
    if len(b) == 1:
        # Res = b0^deg a; modulo a constant f nothing is left of t
        da = len(a) - 1
        t = [b[0] ** (da - 1)] if da and not swapped else []
        return sign * b[0] ** da, t, [1]
    if not b:
        b = a  # gcd(f, 0) = f
    else:
        ca, cb = _int_content(a), _int_content(b)
        a = [c // ca for c in a]
        b = [c // cb for c in b]
        scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
        # va, vb: the cofactors of g / content(g) in a and b
        va, vb = ([1], []) if swapped else ([], [1])
        scale_t = scale // (ca if swapped else cb)
        g_ = 1
        h = 1
        while True:
            da, db = len(a) - 1, len(b) - 1
            delta = da - db
            if da % 2 == 1 and db % 2 == 1:
                sign = -sign
            q, r = _int_prem(a, b)
            if not r:
                break
            # lc(b)^(delta+1) a = q b + r: r has cofactor lc^(delta+1) va - q vb
            lead = b[-1] ** (delta + 1)
            vr = [-c for c in _int_mul(q, vb)]
            vr += [0] * (len(va) - len(vr))
            for i, c in enumerate(va):
                vr[i] += lead * c
            divisor = g_ * h**delta
            a, b = b, _int_exact_div(r, [divisor])
            va, vb = vb, _int_exact_div(_int_trim(vr), [divisor])
            g_ = a[-1]
            if delta > 0:
                h = g_**delta // h ** (delta - 1)
            if len(b) == 1:
                # b is the subresultant of index deg a - 1; the resultant
                # is b * (b / h)^(deg a - 1)
                da = len(a) - 1
                lift = b[0] ** (da - 1)
                h_last = h ** (da - 1)
                res = _int_exact_div([b[0] * lift], [h_last])[0]
                t = _int_exact_div([lift * c for c in vb], [h_last])
                return sign * scale * res, [sign * scale_t * c for c in t], [1]
    unit = _int_content(b)
    if b and b[-1] < 0:
        unit = -unit
    return 0, [], [c // unit for c in b]


def _int_radical(phi: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """(psi, D, t) for a monic integer polynomial phi of degree >= 1: psi
    the monic squarefree part of phi, D = disc(psi), and t with
    t psi' = D mod psi, deg t < deg psi, so that t / D = 1/psi' mod psi.

    One subresultant sequence on (phi, phi') gives all three when phi is
    squarefree.  Otherwise its gcd divides phi exactly (primitive, it
    divides the monic phi, so the quotient is monic with integer
    coefficients) and a second sequence runs on (psi, psi').
    """
    psi = _int_trim(list(phi))
    if len(psi) < 2 or psi[-1] != 1:
        raise ValueError("expected a monic integer polynomial of degree >= 1")
    dpsi = _int_derivative(psi)
    d, t, g = _int_resultant(psi, dpsi)
    if not d:
        psi = _int_exact_div(psi, g)
        dpsi = _int_derivative(psi)
        d, t, _ = _int_resultant(psi, dpsi)
    # disc(psi) = (-1)^(deg (deg - 1) / 2) Res(psi, psi') for a monic psi
    deg = len(psi) - 1
    if deg * (deg - 1) // 2 % 2:
        d, t = -d, [-c for c in t]
    if _int_prem(_int_mul(t, dpsi), psi)[1] != [d]:
        raise AssertionError("t psi' must be disc(psi) modulo psi")
    return psi, d, t


def _int_exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Quotient f / g when g divides f exactly over the integers."""
    dg = len(g) - 1
    lead = g[-1]
    if dg == 0:
        if lead == 1:
            return list(f)
        quot = []
        for c in f:
            q, leftover = divmod(c, lead)
            if leftover:
                raise ArithmeticError("division was expected to be exact")
            quot.append(q)
        return quot
    rem = list(f)
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


# ---------------------------------------------------------------------------
# characteristic polynomials (multimodular)
# ---------------------------------------------------------------------------


# The 12 smallest primes as Miller-Rabin bases decide primality for every
# n < 3.18e23 (Jiang and Deng, 2014), which covers all 62-bit integers.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# 62-bit primes, descending from 2^62; extended on demand, always in the
# same order, so a given matrix always uses the same primes
_PRIMES: list[int] = []


def _is_prime_62(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 < n < 2^64."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> int:
    """The k-th largest prime below 2^62 (k = 0, 1, ...)."""
    while len(_PRIMES) <= k:
        candidate = (_PRIMES[-1] if _PRIMES else 2**62 + 1) - 2
        while not _is_prime_62(candidate):
            candidate -= 2
        _PRIMES.append(candidate)
    return _PRIMES[k]


def _charpoly_bound(rows: list[list[int]]) -> int:
    """An integer bounding |c_k| for every coefficient of det(xI - M).

    c_(n-k) is +- the sum of the C(n, k) principal k x k minors, and by
    Hadamard each is at most B^k, with B the largest row 2-norm of M
    (a row of a minor is part of a row of M).  B^k = sqrt(N^k) for the
    integer N = B^2 is rounded up exactly with `isqrt`.
    """
    n = len(rows)
    norm2 = max((sum(x * x for x in row) for row in rows), default=0)
    bound = 1
    power = 1
    for k in range(1, n + 1):
        power *= norm2
        root = math.isqrt(power)
        if root * root < power:
            root += 1
        bound = max(bound, math.comb(n, k) * root)
    return bound


def _charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """det(xI - M) mod p, ascending, via Hessenberg form over GF(p).

    Similarity by elimination with row pivoting brings M to upper
    Hessenberg form H; the leading principal char polys then follow the
    recurrence P_(k+1) = (x - h_kk) P_k
    - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) P_i.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        pivot = next((r for r in range(m, n) if h[r][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, p)
        row_m = h[m]
        factors = [0] * n
        for r in range(m + 1, n):
            row_r = h[r]
            u = row_r[m - 1] * inv % p
            if u:
                factors[r] = u
                row_r[m - 1 :] = [
                    (a - u * b) % p for a, b in zip(row_r[m - 1 :], row_m[m - 1 :])
                ]
        # the inverse similarity: column m gains u_r times column r
        tail = factors[m + 1 :]
        if any(tail):
            for row in h:
                row[m] = (row[m] + sum(map(mul, tail, row[m + 1 :]))) % p
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        diag = h[k][k]
        nxt = [0] + prev
        for d, c in enumerate(prev):
            nxt[d] -= diag * c
        chain = 1
        for i in range(k - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            coef = h[i][k] * chain % p
            if coef:
                for d, c in enumerate(polys[i]):
                    nxt[d] -= coef * c
        polys.append([c % p for c in nxt])
    return polys[n]


def _charpoly_int(
    rows: list[list[int]], *, bound: int | None = None, first: list[int] | None = None
) -> list[int]:
    """det(xI - M) for a square integer matrix, ascending integer coefficients.

    Multimodular: the polynomial is computed mod each of a fixed sequence
    of 62-bit primes (`_prime`, found by a deterministic Miller-Rabin
    test) by Hessenberg reduction over GF(p), and the residues are joined
    by the Chinese remainder theorem into signed coefficients.  Primes are
    added until their product exceeds twice the Hadamard bound of
    `_charpoly_bound`, so the signed residues are the coefficients; no
    prime is chosen at random and none is retried.  The result must come
    out monic of degree n.  A caller that already holds that bound, or
    the residue mod `_prime(0)`, passes it in and it is not recomputed.
    """
    n = len(rows)
    bound2 = 2 * (_charpoly_bound(rows) if bound is None else bound)
    modulus = 1
    poly = [0] * (n + 1)
    k = 0
    while modulus <= bound2:
        p = _prime(k)
        residues = first if k == 0 and first is not None else _charpoly_mod(rows, p)
        k += 1
        # Garner step: poly stays the residue mod the product so far
        lift = pow(modulus % p, -1, p)
        for i, r in enumerate(residues):
            poly[i] += modulus * ((r - poly[i]) * lift % p)
        modulus *= p
    half = modulus // 2
    poly = [c - modulus if c > half else c for c in poly]
    if poly[-1] != 1:
        raise ArithmeticError("characteristic polynomial is not monic")
    return poly


def _squarefree_mod(f: Sequence[int], p: int) -> bool:
    """Whether gcd(f, f') = 1 over GF(p), by Euclid, for the residues mod
    p of a monic polynomial of degree 0 < deg f < p (so f' keeps degree
    deg f - 1).  If so, disc(f) is nonzero mod p, and so is the
    discriminant of every monic integer polynomial with these residues."""
    a = list(f)
    b = _int_trim([i * c % p for i, c in enumerate(f)][1:])
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        # a mod b: cancel the top coefficient of a until deg a < deg b
        while len(a) > db:
            q = a.pop() * inv % p
            if q:
                s = len(a) - db
                a[s:] = [(x - q * y) % p for x, y in zip(a[s:], b)]
        a, b = b, _int_trim(a)
    # a nonzero constant is a unit; b = 0 leaves gcd a of degree >= 1
    return bool(b)


# ---------------------------------------------------------------------------
# the spectral integers of M: char poly, radical and resolvent
# ---------------------------------------------------------------------------


def _resolvent_int(
    rows: list[list[int]], psi: Sequence[int] | None = None
) -> tuple[list[int], list[list[list[int]]]]:
    """(psi, [B_0..B_{deg-1}]) of Phi(M, y) = psi(y) (yI - M)^-1 =
    sum_j B_j y^j, for an integer matrix M and a monic psi with psi(M) = 0.

    Horner on the matrix: B_{deg-1} = I and B_{j-1} = M B_j + psi_j I.
    The step past B_0 rebuilds psi(M), which must vanish.

    With psi None the pass is Faddeev-LeVerrier and psi is the char poly
    phi, read off as the pass goes: tr adj(yI - M) = phi' gives
    tr B_j = (j + 1) phi_(j+1), so the trace of the step gives
    phi_j = -tr(M B_j) / (n - j).  phi has integer coefficients, so
    every division is exact; a remainder raises, and the step past B_0
    is the Cayley-Hamilton check phi(M) = 0.

    When M is symmetric so is every B_j, a polynomial in M: each step
    computes the entries k >= i of row i and copies the rest from the
    rows above it.
    """
    n = len(rows)
    coeffs = [0] * n + [1] if psi is None else list(psi)
    deg = len(coeffs) - 1
    sparse = [[(j, w) for j, w in enumerate(row) if w] for row in rows]
    symmetric = list(map(list, zip(*rows))) == rows
    column = [itemgetter(i) for i in range(n)]

    def step(current: list[list[int]], j: int) -> list[list[int]]:
        nxt = []
        for i in range(n):
            if symmetric:
                lo = i
                acc_row = list(map(column[i], nxt)) + [0] * (n - i)
            else:
                lo = 0
                acc_row = [0] * n
            for t, w in sparse[i]:
                brow = current[t]
                for k in range(lo, n):
                    acc_row[k] += w * brow[k]
            nxt.append(acc_row)
        if psi is None:
            c, leftover = divmod(-sum(nxt[i][i] for i in range(n)), n - j)
            if leftover:
                raise ArithmeticError("tr(M B_j) must be divisible by n - j")
            coeffs[j] = c
        c = coeffs[j]
        for i in range(n):
            nxt[i][i] += c
        return nxt

    current = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    mats = [current]
    for j in range(deg - 1, 0, -1):
        current = step(current, j)
        mats.append(current)
    if any(any(row) for row in step(current, 0)):
        raise NotAnnihilatingError("psi(M) != 0")
    mats.reverse()
    return coeffs, mats


def _radical_resolvent(
    rows: list[list[int]],
) -> tuple[list[int], list[int], int, list[int], list[list[list[int]]]]:
    """(phi, psi, D, t, [B_0..B_{deg-1}]) of an integer matrix M: the char
    poly, its squarefree part, D = disc(psi), t = D / psi' mod psi and
    the resolvent coefficients of psi."""
    bound = _charpoly_bound(rows)
    p0 = _prime(0)
    # past one prime, a residue mod p0 with no repeated root proves
    # disc(phi) != 0, a simple spectrum: psi = phi, and the resolvent
    # pass reads phi off its traces in place of the other primes
    first = _charpoly_mod(rows, p0) if 2 * bound >= p0 else None
    if first is not None and _squarefree_mod(first, p0):
        phi, mats = _resolvent_int(rows)
        if any((a - b) % p0 for a, b in zip(phi, first)):
            raise ArithmeticError("phi from the traces differs from phi mod p0")
        psi, disc_min, t = _int_radical(phi)
        if psi != phi:
            raise AssertionError("phi squarefree mod p0 must be squarefree")
    else:
        phi = _charpoly_int(rows, bound=bound, first=first)
        psi, disc_min, t = _int_radical(phi)
        mats = _resolvent_int(rows, psi)[1]
    return phi, psi, disc_min, t, mats


# ---------------------------------------------------------------------------
# fraction-free span elimination
# ---------------------------------------------------------------------------


def _rows_in_span(rows: Iterable[Sequence[int]]) -> bool:
    """Exact consistency of the linear system with the given augmented rows.

    Each integer row holds the coefficients of one equation followed by
    its right hand side.  Duplicate rows are dropped first: the distinct
    rows span the same row space, so the answer cannot change, and a
    system built from few distinct values (a span test over 0/1 classes)
    shrinks to a handful of rows.  The elimination is fraction-free: a
    row loses its pivot column as lead * row - factor * pivot row, and is
    divided by its content, so the integers stay small.
    """
    rows = [list(row) for row in dict.fromkeys(map(tuple, rows))]
    cols = len(rows[0]) - 1
    pivot = 0
    for col in range(cols):
        hit = next((r for r in range(pivot, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[pivot], rows[hit] = rows[hit], rows[pivot]
        top = rows[pivot]
        lead = top[col]
        for r in range(pivot + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                row = [lead * a - factor * b for a, b in zip(rows[r], top)]
                g = _int_content(row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivot += 1
    return not any(row[-1] for row in rows[pivot:])
