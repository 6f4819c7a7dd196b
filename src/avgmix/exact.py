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
`_int_*` kernels.  There is one remainder sequence, the subresultant one
on a monic psi and its derivative: `_int_disc` reads D = disc(psi) off
it, with the cofactor t that scales 1/psi' mod psi and, on a repeated
root, the gcd of psi and psi'.  Next to them are the Miller-Rabin test
of 62-bit primes, whose one library caller is
`schemes.cyclotomic_scheme` (a test checks that P0 is prime),
`_rows_in_span`, the span elimination of scheme axiom (d) and
`avgmix.analysis`, `_support_components`, the one component finder on
integer rows, behind `WeightedGraph.components` and the block split of
`avgmix.discrete`, and `_check_vertices`, the one vertex check of every
function that takes a vertex.

`_radical_resolvent` is the first stage of `avgmix.mixing`: it turns an
integer matrix M into its spectral integers without representing an
eigenvalue.  `_int_radical` gives the squarefree part psi of the char
poly phi, D = disc(psi) and t = D / psi' mod psi, and one Horner pass
(`_resolvent_int`, checked by psi(M) = 0) the B_j of
Phi(M, y) = psi(y) (yI - M)^-1 = sum_j B_j y^j, one int per row.  When
twice the Hadamard bound on phi is below the prime P0 = 2^62 - 57 and M
is regular (equal row sums and diagonal) or upper Hessenberg, phi is its
Hessenberg form mod P0 (`_charpoly_mod`), signed: a regular M has a
repeated spectrum, which the pass below runs to the end, and a
Hessenberg M leaves nothing to eliminate.  Every other M reads phi off
the Faddeev-LeVerrier pass that builds the B_j, which
`_minimal_watch` can stop at the minimal polynomial mu of M: after each
coefficient, Newton's identities give the power sum p_k = tr M^k, and
Berlekamp-Massey over GF(P0) (J. L. Massey, "Shift-register synthesis
and BCH decoding", IEEE Trans. IT 1969) the shortest linear recurrence
of p_0..p_k, of length L.  Once p_k keeps it and 2L <= k <= 2n/3 (past
that, a stop's Horner pass costs more than the steps it saves), the exact
Hankel system of p_0..p_(2L-1) gives a monic candidate psi of degree L,
and a Horner pass over psi checks psi(M) = 0.  That proves psi = mu: mu
has integer coefficients and annihilates the power sums, so L <= deg mu
(mod P0 too), and psi(M) = 0 means mu divides psi.  psi's recurrence
then gives every power sum, and Newton's identities phi.  The stop's
hard checks: every division in the Hankel solve and in Newton's
identities is exact, Newton's phi matches every coefficient the pass
read, every |phi_j| is within the Hadamard bound and psi divides phi;
`avgmix.mixing._trace_form` then finds D != 0 and t psi' = D mod psi on
the trace weights.  A failed candidate
(roots that meet mod P0) is not tried again at its length; a pass not
stopped runs to the end, checked by phi(M) = 0, and a repeated spectrum
then takes a Horner pass over psi.  A defective M is never stopped, as
L <= deg psi < deg mu, and that pass refuses it.

A distance-regular M skips this stage for the quotient route of
`avgmix.mixing`, which shares the regularity test `_is_regular` and
takes its char poly from `_quotient_char_poly`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, zip_longest
from operator import mul
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


def _check_vertices(n: int, *vertices: object) -> None:
    """Reject a vertex that is not an int, a bool included (TypeError), or
    not in range(n) (IndexError): a vertex is never coerced."""
    for v in vertices:
        if type(v) is not int:
            raise TypeError(f"vertex {v!r} is not an int")
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range for n={n}")


def _support_components(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Connected components of the off-diagonal support of M + M^T for
    integer rows M: u ~ v when M[u][v] != 0 or M[v][u] != 0.  Each
    component is sorted, and they come in the order of their least vertex."""
    n = len(rows)
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, row in enumerate(rows):
        for v, x in enumerate(row):
            if x and v != u:
                adjacent[u].append(v)
                adjacent[v].append(u)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adjacent[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        out.append(sorted(comp))
    return out


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


def _int_disc(psi: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(D, t, g) for a monic integer psi of degree m >= 1: D = disc(psi),
    t with t psi' = D mod psi and deg t < m, and g the gcd of psi and
    psi', primitive with a positive leading coefficient.

    D = (-1)^(m(m-1)/2) Res(psi, psi'), read off the subresultant
    remainder sequence of psi and the primitive part of psi', which also
    carries the cofactor v of psi' in each remainder u psi + v psi'.
    The cofactors are determinants like the subresultants, so every
    division is exact, and checked.  A constant last remainder of an
    abnormal step is scaled up to the resultant, with its cofactor, and
    g = [1]; a zero one means a repeated root: D = 0, t = [], and the
    last nonzero remainder is a multiple of g.
    """
    m = len(psi) - 1
    if m == 1:
        # psi' = 1
        return 1, [1], [1]
    a = list(psi)
    b = _int_derivative(a)
    content = _int_content(b)
    b = [c // content for c in b]
    sign = -1 if m * (m - 1) // 2 % 2 else 1
    # va, vb: the cofactors of psi' / content in a and b
    va, vb = [], [1]
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
            # b is the subresultant of index deg a - 1, so Res(psi, psi'
            # / content) = b (b / h)^(deg a - 1), content^-m Res(psi, psi')
            da = len(a) - 1
            lift = b[0] ** (da - 1)
            h_last = h ** (da - 1)
            res = _int_exact_div([b[0] * lift], [h_last])[0]
            t = _int_exact_div([lift * c for c in vb], [h_last])
            scale = sign * content ** (m - 1)
            return scale * content * res, [scale * c for c in t], [1]
    unit = _int_content(b)
    if b[-1] < 0:
        unit = -unit
    return 0, [], [c // unit for c in b]


def _int_radical(phi: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """(psi, D, t) for a monic integer polynomial phi of degree >= 1: psi
    the monic squarefree part of phi, D = disc(psi), and t with
    t psi' = D mod psi, deg t < deg psi, so that t / D = 1/psi' mod psi.

    One `_int_disc` of phi gives all three when phi is squarefree; else
    its primitive gcd divides the monic phi exactly, into a monic integer
    psi, and a second one runs on psi.  `avgmix.mixing._trace_form`, the
    one reader of t, checks D != 0 and t psi' = D mod psi on the trace
    weights it builds from t.
    """
    psi = _int_trim(list(phi))
    if len(psi) < 2 or psi[-1] != 1:
        raise ValueError("expected a monic integer polynomial of degree >= 1")
    d, t, g = _int_disc(psi)
    if not d:
        psi = _int_exact_div(psi, g)
        d, t, _ = _int_disc(psi)
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
# characteristic polynomials modulo a 62-bit prime
# ---------------------------------------------------------------------------


# The 12 smallest primes as Miller-Rabin bases decide primality for every
# n < 3.18e23 (Jiang and Deng, 2014), which covers all 62-bit integers.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the largest prime below 2^62, the modulus of phi and of the watch
_P0 = 2**62 - 57


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


def _charpoly_bound(rows: list[list[int]]) -> int:
    """An integer bounding |c_k| for every coefficient of det(xI - M).

    c_(n-k) is +- the sum of the C(n, k) principal k x k minors, each at
    most B^k by Hadamard, B the largest row 2-norm of M; B^k = sqrt(N^k)
    for the integer N = B^2 is rounded up exactly with `isqrt`.
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
    """det(xI - M) mod p, ascending: row-pivoted elimination brings M to
    upper Hessenberg form H, whose leading principal char polys follow
    P_(k+1) = (x - h_kk) P_k - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) P_i.
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
        cols, us = [], []
        for r in range(m + 1, n):
            row_r = h[r]
            u = row_r[m - 1] * inv % p
            if u:
                cols.append(r)
                us.append(u)
                row_r[m - 1 :] = [
                    (a - u * b) % p for a, b in zip(row_r[m - 1 :], row_m[m - 1 :])
                ]
        # the inverse similarity: column m gains u_r times column r, read
        # only where u_r != 0
        if cols:
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, map(row.__getitem__, cols)))) % p
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


# ---------------------------------------------------------------------------
# the spectral integers of M: char poly, radical and resolvent
# ---------------------------------------------------------------------------


class _Resolvent:
    """The B_j of one Horner pass for `psi`, each row of each B_j one int.

    Row i of B_j is packed as P = sum_k x_k 2^(s k), entry k signed in
    slot k of s = `slot` bits.  `_resolvent_int` proves |x_k| < 2^(s-1),
    so adding `bias`, 2^(s-1) in every slot, makes each slot the digit
    x_k + 2^(s-1) with no carry: one shift and one mask read an entry.
    `diagonals` reads one slot per (j, u), `polys` whole rows; a 64-bit
    slot unpacks a row in C, as the two's complement words of
    (P + bias) xor bias.  `symmetric`: whether M, so every B_j, is.
    """

    __slots__ = (
        "n", "slot", "symmetric", "packed", "shifts", "bias", "mask", "half", "psi"
    )

    def __init__(self, n: int, slot: int, symmetric: bool):
        self.n = n
        self.slot = slot
        self.symmetric = symmetric
        # packed[j][i]: row i of B_j
        self.packed: list[list[int]] = []
        # the offset of slot k
        self.shifts = range(0, slot * n, slot)
        self.half = 1 << (slot - 1)
        self.mask = (1 << slot) - 1
        self.bias = self.half * (((1 << (slot * n)) - 1) // self.mask)

    def diagonal(self, rows: list[int]) -> list[int]:
        """The diagonal of a matrix given by its packed rows: slot i of row i."""
        bias, mask, half = self.bias, self.mask, self.half
        return [((p + bias) >> k & mask) - half for p, k in zip(rows, self.shifts)]

    def unpack(self, packed: int) -> list[int]:
        """Every entry of a packed row."""
        biased = packed + self.bias
        if self.slot == 64:
            # one C-level cast, about 3x faster per entry than shift and
            # mask: families_cli wall_s 13% lower (2-core VM, CPython 3.11)
            data = (biased ^ self.bias).to_bytes(8 * self.n, sys.byteorder)
            words = memoryview(data).cast("q").tolist()
            # big-endian bytes put slot 0 last
            return words[::-1] if sys.byteorder == "big" else words
        mask, half = self.mask, self.half
        return [(biased >> k & mask) - half for k in self.shifts]

    def diagonals(self) -> list[tuple[int, ...]]:
        """f_uu = sum_j B_j[u][u] y^j for every vertex u, as coefficient tuples."""
        return list(zip(*map(self.diagonal, self.packed)))

    def polys(self, u: int) -> list[tuple[int, ...]]:
        """f_uv = sum_j B_j[u][v] y^j for every v: row u of every B_j."""
        return list(zip(*[self.unpack(b[u]) for b in self.packed]))


def _resolvent_int(
    rows: list[list[int]], psi: Sequence[int] | None = None, bound: int | None = None
) -> tuple[list[int], _Resolvent]:
    """(psi, B_0..B_{deg-1} as a `_Resolvent`, which keeps psi) of
    Phi(M, y) = psi(y) (yI - M)^-1 = sum_j B_j y^j, for an integer matrix
    M and a monic psi with psi(M) = 0.

    Horner on the matrix: B_{deg-1} = I, B_{j-1} = M B_j + psi_j I, and
    the step past B_0 rebuilds psi(M), which must vanish.  Packed, row i
    of M B_j is sum_t M_it P_t over the nonzeros of row i of M, and
    psi(M) = 0 is "every packed row is 0".  The slot s >= 64 has
    2^(s-1) > L for a bound L on every entry, so unpacking is exact:

    - with psi given, L is the largest term of the chain |B_{deg-1}| = 1,
      |B_{j-1}| <= rho |B_j| + |psi_j| down to psi(M), rho the largest
      absolute row sum of M;
    - with psi None the pass is Faddeev-LeVerrier and returns the char
      poly phi: tr B_j = (j + 1) phi_(j+1), from tr adj(yI - M) = phi',
      gives phi_j = -tr(M B_j) / (n - j), an exact division, checked.
      The caller's `bound` from `_charpoly_bound` covers every |phi_j|
      (a larger one raises) and, by Hadamard, |B_j| <= C(n-1, j)
      beta^(n-1-j), beta the largest row 2-norm; L is twice it, as
      M B_j = B_{j-1} - phi_j I.  `_minimal_watch` may stop the pass at
      the minimal polynomial, whose B_j are then returned; a pass run to
      the end checks phi(M) = 0 (Cayley-Hamilton).
    """
    n = len(rows)
    if psi is None:
        coeffs = [0] * n + [1]
        limit = 2 * bound
    else:
        coeffs = list(psi)
        rho = max(sum(map(abs, row)) for row in rows)
        b = limit = 1
        for c in reversed(coeffs[:-1]):
            b = rho * b + abs(c)
            limit = max(limit, b)
    watch = _minimal_watch(rows, coeffs, bound) if psi is None else None
    deg = len(coeffs) - 1
    slot = max(64, limit.bit_length() + 1)
    res = _Resolvent(n, slot, list(map(list, zip(*rows))) == rows)
    res.psi = coeffs
    sparse = [[(t, w) for t, w in enumerate(row) if w] for row in rows]
    shifts = res.shifts

    def shift(nxt: list[int], j: int) -> list[int]:
        """nxt + psi_j I, where nxt = M B_j."""
        if psi is None:
            trace = sum(res.diagonal(nxt))
            c, leftover = divmod(-trace, n - j)
            if leftover:
                raise ArithmeticError("tr(M B_j) must be divisible by n - j")
            if abs(c) > bound:
                raise ArithmeticError("phi_j exceeds the Hadamard bound")
            coeffs[j] = c
        c = coeffs[j]
        if c:
            for i in range(n):
                nxt[i] += c << shifts[i]
        return nxt

    def step(current: list[int], j: int) -> list[int]:
        nxt = []
        for terms in sparse:
            acc = 0
            for t, w in terms:
                acc += w * current[t]
            nxt.append(acc)
        return shift(nxt, j)

    res.packed.append([1 << k for k in shifts])
    # M B_{deg-1} = M I = M, no product; with deg 1 this is psi(M)
    packed_m = [sum(w << shifts[t] for t, w in terms) for terms in sparse]
    current = shift(packed_m, deg - 1)
    for j in range(deg - 2, -1, -1):
        if watch is not None and (stop := next(watch, None)):
            return stop
        res.packed.append(current)
        current = step(current, j)
    if any(current):
        raise NotAnnihilatingError("psi(M) != 0")
    res.packed.reverse()
    return coeffs, res


def _minimal_watch(rows: list[list[int]], phi: list[int], bound: int):
    """The watch on a Faddeev-LeVerrier pass over M (module docstring), a
    generator sharing the pass's `phi`, resumed once per coefficient read:
    it yields None, or what `_certified_stop` gives, once per length."""
    n = len(phi) - 1
    sums = [n]
    # after p_0 = n: connection polynomial, the one before the last
    # length change, the discrepancy then, and the steps since
    conn, prev, length, last, gap = [1, -n % _P0], [1], 1, n, 1
    tried = 0
    # a stop at k = 2L saves n - k steps for a Horner pass of L steps,
    # the Hankel solve and Newton: past k = 2n/3 it cannot pay
    for k in range(1, 2 * n // 3 + 1):
        # Newton: p_k = -(k c_k + sum_(0<i<k) c_i p_(k-i)), c_i = phi_(n-i)
        terms = map(mul, phi[n - 1 : n - k : -1], sums[k - 1 : 0 : -1])
        sums.append(-k * phi[n - k] - sum(terms))
        d = sum(map(mul, conn, reversed(sums))) % _P0
        stop = None
        if d:
            scale = d * pow(last, -1, _P0) % _P0
            shifted = [0] * gap + [scale * c for c in prev]
            new = [(a - b) % _P0 for a, b in zip_longest(conn, shifted, fillvalue=0)]
            if 2 * length <= k:
                length, prev, last, gap = k + 1 - length, conn, d, 0
            conn = _int_trim(new)
        elif 2 * length <= k and length != tried:
            tried = length
            stop = _certified_stop(rows, phi, sums, length, k, bound)
        gap += 1
        yield stop


def _certified_stop(
    rows: list[list[int]], phi: list[int], sums: list[int], m: int, k: int, bound: int
) -> tuple[list[int], _Resolvent] | None:
    """(phi, the `_Resolvent` of psi) when the watch's degree-m candidate
    psi annihilates M, else None; k coefficients and p_0..p_k are known."""
    psi = _hankel_solve(sums, m)
    if psi is None:
        return None
    try:
        res = _resolvent_int(rows, psi)[1]
    except NotAnnihilatingError:
        return None
    n = len(phi) - 1
    p = sums[:m]
    for j in range(m, n + 1):
        p.append(-sum(map(mul, psi, p[j - m :])))
    full = _newton(p)[::-1]
    if full[n - k :] != phi[n - k :] or max(map(abs, full)) > bound:
        raise ArithmeticError("phi by Newton must match the pass, under the bound")
    _int_exact_div(full, psi)
    return full, res


def _hankel_solve(sums: Sequence[int], m: int) -> list[int] | None:
    """The monic psi of degree m with sum_l psi_l p_(i+l) = 0 for i < m,
    or None when this Hankel system is singular or has no integral
    solution.  Fraction-free Gauss-Jordan: each division by the last
    pivot is exact (entries stay minors), and checked."""
    a = [[sums[i + l] for l in range(m)] + [-sums[i + m]] for i in range(m)]
    prev = 1
    for col in range(m):
        hit = next((r for r in range(col, m) if a[r][col]), None)
        if hit is None:
            return None
        a[col], a[hit] = a[hit], a[col]
        top, lead = a[col], a[col][col]
        for r in range(m):
            if r != col:
                f = a[r][col]
                row = [lead * x - f * y for x, y in zip(a[r], top)]
                a[r] = _int_exact_div(row, [prev])
        prev = lead
    psi = [divmod(row[m], prev) for row in a]
    return None if any(r for _, r in psi) else [q for q, _ in psi] + [1]


def _newton(sums: Sequence[int]) -> list[int]:
    """c_0..c_n of phi = sum_i c_i x^(n-i) from the power sums p_0 = n,
    p_1..p_n of its roots by Newton: k c_k = -sum_(i<k) c_i p_(k-i)."""
    c = [1]
    for k in range(1, len(sums)):
        c += _int_exact_div([-sum(map(mul, c, sums[k:0:-1]))], [k])
    return c


def _is_regular(rows: list[list[int]]) -> bool:
    """Whether the integer rows have equal sums and an equal diagonal."""
    return len({*map(sum, rows)}) == 1 == len({r[i] for i, r in enumerate(rows)})


def _quotient_char_poly(rows: list[list[int]], n: int, psi: list[int]) -> list[int]:
    """phi of an n x n M with tr M^k = n (R^k)[0][0] for the tridiagonal
    integer matrix R of the given rows (a distance-regular M and its
    quotient, as in `avgmix.mixing`): Newton's identities on those power
    sums, each division exact, and psi, the minimal polynomial of both,
    divides it."""
    m = len(rows)
    lo, di, up = ([r[i + s] if 0 <= i + s < m else 0 for i, r in enumerate(rows)]
                  for s in (-1, 0, 1))
    v, sums = [1] + [0] * (m - 1), [n]
    for _ in range(n):
        # v = R^k e_0
        v = [a * x + b * y + c * z
             for a, b, c, x, y, z in zip(lo, di, up, [0, *v], v, [*v[1:], 0])]
        sums.append(n * v[0])
    phi = _newton(sums)[::-1]
    _int_exact_div(phi, psi)
    return phi


def _radical_resolvent(
    rows: list[list[int]],
) -> tuple[list[int], list[int], int, list[int], _Resolvent]:
    """(phi, psi, D, t, B_0..B_{deg-1}) of an integer matrix M: the char
    poly, its squarefree part, D = disc(psi), t = D / psi' mod psi and
    the resolvent coefficients of psi, packed as a `_Resolvent`."""
    bound = _charpoly_bound(rows)
    # the residue mod P0 for a regular or upper Hessenberg M, where it
    # beats the Faddeev-LeVerrier pass (module docstring)
    if 2 * bound < _P0 and (
        _is_regular(rows)
        or not any(any(r[: i - 1]) for i, r in enumerate(rows[2:], 2))
    ):
        phi = [c - _P0 if 2 * c > _P0 else c for c in _charpoly_mod(rows, _P0)]
        psi, disc_min, t = _int_radical(phi)
        return phi, psi, disc_min, t, _resolvent_int(rows, psi)[1]
    phi, res = _resolvent_int(rows, bound=bound)
    psi, disc_min, t = _int_radical(res.psi)
    if psi != res.psi:
        res = _resolvent_int(rows, psi)[1]
    return phi, psi, disc_min, t, res


# ---------------------------------------------------------------------------
# fraction-free span elimination
# ---------------------------------------------------------------------------


def _rows_in_span(rows: Iterable[Sequence[int]]) -> bool:
    """Exact consistency of the linear system with the given augmented
    integer rows (coefficients, then the right hand side).  Duplicates go
    first: the distinct rows span the same space, and a system of few
    distinct values (0/1 classes) shrinks to a handful.  Fraction-free:
    a row loses its pivot column as lead * row - factor * pivot row and
    is divided by its content, so the integers stay small.
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
