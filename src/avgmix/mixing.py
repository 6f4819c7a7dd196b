"""Exact average mixing matrices of continuous walks on integer symmetric matrices.

For a symmetric M with spectral decomposition M = sum_r theta_r E_r, the
average mixing matrix is the Cesaro limit of |exp(itM)|^2 entrywise,

    Mhat = sum_r E_r schur E_r.

Everything is computed without ever representing an eigenvalue.  With
psi the minimal (squarefree characteristic) polynomial of M, the entries
of E_r are values of integer polynomials at the roots of psi:
Phi(M, y) = sum_j B_j y^j satisfies Phi(M, theta_r) = psi'(theta_r) E_r,
so with w the inverse of psi' mod psi,

    Mhat[u][v] = sum_r (f_uv * w)^2 (theta_r),   f_uv(y) = sum_j B_j[u][v] y^j,

and the sum over roots is a trace form.  The implementation factors w^2
out of every entry: with tau_k = sum_r theta_r^k / psi'(theta_r)^2, the
trace of y^k w(y)^2, and T[j][k] = tau_(j+k) their Hankel matrix, the
sum over the roots of a b w^2 is the integer bilinear form

    sum_r (a b w^2)(theta_r) = sum_k (a b)_k tau_k = a T b

of the coefficient vectors of a and b, identical to reducing a b mod psi
and applying the trace because evaluation at a root is a ring
homomorphism.  Every entry of Mhat is that one form, `_TraceTable`, on
a pair of entry polynomials.

All of it runs in integers over one shared denominator.  It starts
from `exact._radical_resolvent`, which gives the char poly phi, psi,
D = disc(psi), the B_j and the cofactor t = D w, which has integer
coefficients.  Each row of each B_j comes packed into one int
(`exact._Resolvent`), and each route unpacks only what it reads.
Euler's partial fractions, sum_r g(theta_r) / psi'(theta_r) =
[y^(deg-1)] (g mod psi), give D tau_k as the top coefficient of
y^k t mod psi, so the weights tau_k are integers over a divisor of D,
and so is every entry.

Every B_j is a polynomial in M, so it lies in the algebra that M
generates, and f_uv repeats across the vertex pairs that this algebra
cannot tell apart: in a d-class association scheme (the Bose-Mesner
algebra) there are at most d + 1 distinct f_uv, whatever the
automorphism group, and a cycle on n vertices has floor(n/2) + 1.  The
table computes one row a T and one dot per distinct pair (a, b); the
Gram product of a simple spectrum works on the distinct diagonals
instead.  Three pairs cover every limit:

- (f_uv, f_vu) for sum_r E_r o conj(E_r) of a normal M, whose E_r are
  Hermitian; `_mixing_matrix` reads u <= v and mirrors the result.  A
  symmetric M has symmetric B_j, so f_vu = f_uv and row u of the B_j
  alone gives every entry (u, v >= u): each row is unpacked when the
  loop reaches it and dropped after, and no n^2 table of f_uv is held.
  A nonsymmetric M (the numerators of a discrete walk) unpacks every
  row first and reads f_vu;
- (f_uu, f_vv) in its place when D_char = disc(char poly) != 0, a simple
  spectrum: every E_r has rank one, (E_r)_uv (E_r)_vu = (E_r)_uu
  (E_r)_vv, and Mhat = F T F^T / denom over the k distinct f_uu, row i
  of F the coefficients of one of them; the f_uu are read one slot per
  (j, u), no row is unpacked.  Two kernels compute F T F^T with equal
  results.  The direct one, `_gram_direct`, takes one row f T per
  distinct f_uu and one dot per pair of them: k m + k(k+1)/2 short sums
  for m = deg psi.  The packed one, `_gram_packed`, puts the k rows in
  slots of s = bT + 2 bF + 2 bits(m) + 2 bits (bF, bT the bit lengths of
  the largest |coefficient| of the f_uu and of tau), wide enough for
  every entry of F T and of F T F^T, so one int holds each column of F,
  each column of F T is one sum of m products and each row of F T F^T
  one more: 2m + k big-integer sums.  Its ints are k s bits wide, so it
  pays only on narrow forms: `_mixing_matrix` takes it when s <= 320
  and m >= 6, the measured crossovers, and the direct one otherwise;
- (f_uv, f_uv) for the literal limit sum_r E_r o E_r, `_literal`, of
  the discrete walks in `avgmix.discrete`, which run on the same engine;
  it unpacks each row once.

The diagonal pairs (f_uu, f_uu) alone give `_largest_diagonal`, the
largest P_uu of the physical limit P, which is also its largest entry
because P is PSD; the certified Cesaro bound of `avgmix.discrete` reads
only that.

`_mixing_matrix` alone picks between the first two.  It also labels each
vertex u by its diagonal polynomial f_uu: psi(M) = 0 gives
phi(M \\ u) = (phi / psi) f_uu, so equal labels mean cospectral
vertices, and the report keeps them for `avgmix.analysis`.

`average_mixing` has a third route, for M = cI + wA with A the
adjacency matrix of a connected distance-regular graph of diameter d.
There the distance matrices A_0..A_d span an algebra that holds M
(Brouwer, Cohen and Neumaier, "Distance-Regular Graphs", ch. 4), so
every B_j and E_r lies in span{A_k}: f_uv depends only on dist(u, v),
and Mhat = sum_k (table[f_k, f_k] / denom) A_k.  The test,
`_distance_quotient`, runs only on an M that passes the regularity test
of `exact._radical_resolvent` (equal row sums, equal diagonal), so an
irregular M pays nothing else.  It reads (c_k, a_k, b_k) at one vertex
of each BFS layer of vertex 0 and builds A_(k+1) = (A A_k - a_k A_k -
b_(k-1) A_(k-1)) / c_(k+1) on rows packed in 16-bit slots.  M is taken
only when every A_(k+1) is exactly 0/1 (an exact division and a digit
mask), the A_k sum to J and the step past A_d vanishes.  Then, by
induction on k, A_k is the distance-k matrix, whose nonzeros the checks
show to have the same counts at every pair: A is distance-regular, with
no BFS from any other vertex.  On the layer vectors x_m = A_m e_0, M
acts as the tridiagonal quotient Q, Q[m][m] = c + w a_m, Q[m][m+1] =
w b_m, Q[m][m-1] = w c_m, so p(M)_u0 = p(Q)[dist(u, 0)][0] for every
polynomial p.  Q has the d + 1 distinct eigenvalues of M, as I, A, ...,
A^d are independent, so its psi, D and tau are those of M, and f_k is
entry k of row 0 of the B_j of Q^T: `_trace_form` runs on the
(d + 1) x (d + 1) Q^T, whose psi(Q^T) = 0 check gives psi(M) = 0, and
the entries pass the same invariants and certificates as every other
route.  The char poly comes from Newton's identities on
tr M^k = n (Q^k)[0][0] (`exact._quotient_char_poly`, which checks that
psi divides it), D_char = D only when d + 1 = n, and every vertex is in
class 0: a distance-regular graph is walk-regular.  Discrete walks never
take this route.
Invariants and certificates are checked on the numerators, and
the result is an `ExactMatrix` of them over the shared denominator: no
rational routine is left here.  Distinct keys only share read-only
precomputed state, so they may be computed concurrently in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import lshift, mul
from struct import unpack
from typing import NamedTuple

from .exact import (
    ExactMatrix,
    ExactPolynomial,
    _check_vertices,
    _int_derivative,
    _is_regular,
    _quotient_char_poly,
    _radical_resolvent,
    _Resolvent,
)


@dataclass(frozen=True)
class IntegralityCertificates:
    """Denominator-bound flags for an average mixing matrix.

    With D the discriminant of the minimal polynomial psi, D Mhat (so
    also D^2 Mhat) is integral for every spectrum, and D_char Mhat is
    integral whenever the spectrum is simple; all three are hard
    guarantees, checked on every result, so every flag is True.  D Mhat
    is integral by construction: each of its entries is an integer
    combination of the D tau_k, the top coefficients of the integer
    polynomials y^k t mod psi.  Independently, for k < deg psi,
    y_k = (M^k)_uv = sum_r theta_r^k (E_r)_uv, so Mhat_uv = y^T H^-1 y
    with the integer Hankel matrix H[j][k] = p_(j+k) of the power sums
    of psi; det H = D, and D Mhat_uv = y^T adj(H) y is an integer.
    """

    d2_integral: bool
    d_integral_simple: bool
    d_integral_minpoly: bool


@dataclass(frozen=True)
class AvgMixReport:
    """Average mixing matrix together with its exact spectral certificates."""

    mixing: ExactMatrix
    min_poly: ExactPolynomial
    char_poly: ExactPolynomial
    disc_min: Fraction
    disc_char: Fraction
    simple_spectrum: bool
    common_denominator: int
    certificates: IntegralityCertificates
    # equal for u and v exactly when f_uu == f_vv: cospectral vertices
    vertex_classes: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.mixing.nrows


class _TraceForm(NamedTuple):
    """The shared integer state of an integer matrix M.

    The entry (u, v) of E_r is f_uv(theta_r) w(theta_r) with
    f_uv = sum_j B_j[u][v] y^j, the B_j packed in `resolvent`, and for
    integer polynomials f, g of degree below deg psi,

        sum_r (f g w^2)(theta_r) = _TraceTable(tau)[f, g] / denom.
    """

    char_poly: list[int]
    min_poly: list[int]
    disc_char: int
    disc_min: int
    resolvent: _Resolvent
    tau: list[int]
    denom: int


def _trace_form(rows: list[list[int]]) -> _TraceForm:
    """Char poly, minimal polynomial, resolvent and trace weights of M."""
    phi, psi, disc_min, t, res = _radical_resolvent(rows)
    # the radical's t / D = w = 1/psi' in Q[y]/(psi)
    deg = len(psi) - 1
    # psi is the squarefree part of phi, so deg psi < n exactly when phi
    # has a repeated root, and otherwise psi = phi
    disc_char = disc_min if deg == len(rows) else 0
    # Euler: sum_r g(theta_r) / psi'(theta_r) = [y^(deg-1)] (g mod psi),
    # and t(theta_r) = D / psi'(theta_r), so D tau_k is the top
    # coefficient of y^k t mod psi
    r = t + [0] * (deg - len(t))
    tau_num = []
    for _ in range(2 * deg - 1):
        top = r[-1]
        tau_num.append(top)
        r = [0] + r[:-1]
        for i in range(deg):
            r[i] -= top * psi[i]
    # D tau_k = <y^k, t> for the pairing <a, b> = [y^(deg-1)] (a b mod
    # psi), which is nondegenerate (its Gram matrix on 1..y^(deg-1) is
    # triangular Hankel with 1s on the anti-diagonal), so t psi' = D mod
    # psi exactly when <y^k, t psi'> = sum_i psi'_i D tau_(k+i) is
    # D [k = deg - 1] for every k < deg
    dpsi = _int_derivative(psi)
    if not disc_min or any(
        sum(map(mul, dpsi, tau_num[k:])) != disc_min * (k == deg - 1)
        for k in range(deg)
    ):
        raise AssertionError("t psi' must be disc(psi) modulo psi")
    g = math.gcd(disc_min, *tau_num)
    denom = abs(disc_min) // g
    # keep denom positive: D < 0 for walks with complex eigenvalue pairs
    if disc_min < 0:
        g = -g
    tau_num = [c // g for c in tau_num]
    return _TraceForm(phi, psi, disc_char, disc_min, res, tau_num, denom)


class _TraceTable(dict):
    """The trace form a T b = sum_k (a b)_k tau_k of two integer
    polynomials a, b of degree below deg psi, keyed by their coefficient
    tuples (a, b), with T[j][k] = tau[j+k] the Hankel matrix of the
    trace weights.  Each distinct key costs one row a T and one dot of
    it with b.  A table lives for one call, never across calls."""

    def __init__(self, tau: list[int]):
        super().__init__()
        deg = (len(tau) + 1) // 2
        # column k of T
        self.columns = [tau[k : k + deg] for k in range(deg)]

    def row(self, a: tuple[int, ...]) -> list[int]:
        """The row a T."""
        return [sum(map(mul, a, col)) for col in self.columns]

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        a, b = key
        value = self[key] = sum(map(mul, self.row(a), b))
        return value


# The packed Gram kernel pays for its packing and unpacking only on
# forms with at least this many columns and slots at most this wide.
# Measured (min of 7 interleaved runs, 2-core VM, CPython 3.11), the
# packed/direct time on unweighted G(n, .3-.5) was 0.65 at s = 260, 0.8
# at 300, 0.97 at 340 and 1.12 at 377; at m = 2-5 it was 0.9-1.5, at
# m = 6 0.7-0.9.  Every other form takes the direct kernel.
_PACKED_MIN_DEG = 6
_PACKED_MAX_SLOT = 320


def _gram_slot(diags: list[tuple[int, ...]], tau: list[int]) -> int:
    """The slot s = bT + 2 bF + 2 bits(m) + 2 of `_gram_packed`, with bF
    and bT the bit lengths of the largest |coefficient| of the
    diagonals and of tau, and m = deg psi their length.  By the triangle
    inequality |(F T)_ic| < 2^(bF + bT + bits m) and |(F T F^T)_il| <
    2^(2 bF + bT + 2 bits m), both below 2^(s-1), so every slot of
    either product reads back exactly."""
    bf = max(map(abs, chain.from_iterable(diags))).bit_length()
    bt = max(map(abs, tau)).bit_length()
    return bt + 2 * bf + 2 * len(diags[0]).bit_length() + 2


def _gram_direct(diags: list[tuple[int, ...]], tau: list[int]) -> list[list[int]]:
    """F T F^T over the rows F of the distinct diagonals: one row f T per
    diagonal and one dot per pair of them."""
    table = _TraceTable(tau)
    dots = [[0] * len(diags) for _ in diags]
    for i, f in enumerate(diags):
        row = table.row(f)
        for j in range(i, len(diags)):
            dots[i][j] = dots[j][i] = sum(map(mul, row, diags[j]))
    return dots


def _gram_packed(
    diags: list[tuple[int, ...]], tau: list[int], slot: int
) -> list[list[int]]:
    """F T F^T as `_gram_direct`, with the k rows of F packed across
    `slot`-bit slots, slot i for diagonal i (`_gram_slot` gives a slot
    that fits): column j of F is one int, each column of R = F T one sum
    of m products, and row l of F T F^T, by symmetry column l, one sum
    f_l R, read out by the biased shift and mask of `exact._Resolvent`.
    That is 2m + k big-integer sums in place of k m rows and k(k+1)/2
    dots."""
    k, m = len(diags), len(diags[0])
    shifts = range(0, slot * k, slot)
    fcols = [sum(map(lshift, col, shifts)) for col in zip(*diags)]
    rcols = [sum(map(mul, fcols, tau[c : c + m])) for c in range(m)]
    reader = _Resolvent(k, slot, True)
    return [reader.unpack(sum(map(mul, f, rcols))) for f in diags]


def _largest_diagonal(form: _TraceForm) -> int:
    """max_u P_uu of P = sum_r E_r o conj(E_r) for a normal M, as a
    numerator over form.denom: the trace form of (f_uu, f_uu), one per
    distinct diagonal.  Each E_r is Hermitian PSD, so are the E_r o
    conj(E_r) by the Schur product theorem, and so is P: P_uv <=
    sqrt(P_uu P_vv), and max_u P_uu is also the largest entry of P."""
    table = _TraceTable(form.tau)
    p = max(table[f, f] for f in form.resolvent.diagonals())
    # P_uu = sum_r (E_r)_uu^2 with (E_r)_uu >= 0 summing to 1 over r
    if not 0 < p <= form.denom:
        raise AssertionError("the largest P_uu must lie in (0, 1]")
    return p


def _mixing_matrix(form: _TraceForm) -> tuple[ExactMatrix, list[int]]:
    """sum_r E_r o conj(E_r) for a normal M, checked: nonnegative,
    symmetric, rows summing to 1; and the vertex classes, cls[u] ==
    cls[v] exactly when f_uu == f_vv.

    Each E_r is Hermitian, so entry (u, v) is the trace form of
    (f_uv, f_vu), read for u <= v and mirrored.  On a simple spectrum
    (disc_char != 0) every E_r has rank one, (E_r)_uv (E_r)_vu =
    (E_r)_uu (E_r)_vv, and the entries are F T F^T over the distinct
    diagonals f_uu, from the packed kernel on a narrow form with
    deg psi >= 6 and from the direct one otherwise (module docstring).
    """
    res = form.resolvent
    index: dict[tuple[int, ...], int] = {}
    cls = [index.setdefault(f, len(index)) for f in res.diagonals()]
    if form.disc_char:
        diags = list(index)
        slot = _gram_slot(diags, form.tau)
        if slot <= _PACKED_MAX_SLOT and len(diags[0]) >= _PACKED_MIN_DEG:
            dots = _gram_packed(diags, form.tau, slot)
        else:
            dots = _gram_direct(diags, form.tau)
        nums = [list(map(dots[c].__getitem__, cls)) for c in cls]
    else:
        table = _TraceTable(form.tau)
        n = res.n
        nums = [[0] * n for _ in range(n)]
        polys = None if res.symmetric else list(map(res.polys, range(n)))
        for u in range(n):
            # f_uv and f_vu for every v: a symmetric M has symmetric B_j,
            # so row u is both, unpacked when the loop reaches it
            if polys is None:
                fu = gu = res.polys(u)
            else:
                fu, gu = polys[u], [f[u] for f in polys]
            for v in range(u, n):
                nums[u][v] = nums[v][u] = table[fu[v], gu[v]]
    _check_mixing_invariants(nums, form.denom)
    return ExactMatrix(nums, form.denom), cls


def _literal(form: _TraceForm) -> ExactMatrix:
    """sum_r E_r o E_r: entry (a, b) is the trace form of (f_ab, f_ab)."""
    res = form.resolvent
    table = _TraceTable(form.tau)
    nums = [[table[f, f] for f in res.polys(a)] for a in range(res.n)]
    _require_symmetric(nums, "the literal average mixing matrix must be symmetric")
    return ExactMatrix(nums, form.denom)


def _distance_quotient(rows: list[list[int]]) -> tuple[list, list[list[int]]] | None:
    """(dist, Q^T) when the integer M is cI + wA with A the adjacency
    matrix of a connected distance-regular graph of diameter d, else
    None: dist[u][v] = dist(u, v), and Q^T the transpose of the
    (d + 1) x (d + 1) quotient of M on the distance layers of vertex 0
    (module docstring)."""
    n = len(rows)
    adj = [[v for v, x in enumerate(row) if x and v != u] for u, row in enumerate(rows)]
    weights = {rows[u][v] for u in range(n) for v in adj[u]}
    if not 1 < n < 1 << 14 or len(weights) != 1:
        return None
    dist, order = [0] + [-1] * (n - 1), [0]
    for u in order:
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    last = {dist[u]: u for u in order}
    # cnt[i][j]: the neighbours in layer j of the last vertex of layer i,
    # so c_k, a_k, b_k = cnt[k][k - 1], cnt[k][k], cnt[k][k + 1]
    cnt = []
    for u in last.values():
        row = [0] * len(last)
        for v in adj[u]:
            row[dist[v]] += 1
        cnt.append(row)
    # the rows of A_k, packed in 16-bit slots: every digit below lies in
    # (-2^15, 2^15), so each integer fixes its digits
    ones = sum(1 << 16 * v for v in range(n))
    # no list below is changed in place
    prev = cover = far = [0] * n
    cur = [1 << 16 * u for u in range(n)]
    for k in last:
        cover = [x + y for x, y in zip(cover, cur)]
        far = [x + k * y for x, y in zip(far, cur)]
        # A_(k+1) = (A A_k - a_k A_k - b_(k-1) A_(k-1)) / c_(k+1), exact
        # and 0/1, with A_(-1) = A_(d+1) = 0
        a, b, c = cnt[k][k], cnt[k - 1][k], cnt[k + 1][k] if k + 1 in last else 1
        quot = [divmod(sum(map(cur.__getitem__, nbrs)) - a * x - b * y, c)
                for nbrs, x, y in zip(adj, cur, prev)]
        if any(r or q & ~ones for q, r in quot):
            return None
        prev, cur = cur, [q for q, _ in quot]
    # a disconnected A leaves cover short of J
    if any(cur) or cover != [ones] * n:
        return None
    (w,) = weights
    qt = [[rows[0][0] * (i == j) + w * cnt[j][i] for j in last] for i in last]
    return [unpack(f"<{n}H", x.to_bytes(2 * n, "little")) for x in far], qt


def average_mixing(m: ExactMatrix) -> AvgMixReport:
    """Exact average mixing matrix of an integer symmetric matrix."""
    if not m.is_square:
        raise ValueError("average mixing needs a square matrix")
    if not m.is_integral():
        raise ValueError("average mixing needs integer entries")
    if not m.is_symmetric():
        raise ValueError("average mixing needs a symmetric matrix")
    rows = [list(row) for row in m.numerators]
    quotient = _distance_quotient(rows) if _is_regular(rows) else None
    if quotient is None:
        form = _trace_form(rows)
        mixing, cls = _mixing_matrix(form)
        phi, disc_char = form.char_poly, form.disc_char
    else:
        dist, qt = quotient
        form = _trace_form(qt)
        # M-hat_uv = sum_r (E_r)_uv^2, and (E_r)_uv = f_k(theta_r) w(theta_r)
        # with f_k from row 0 of the B_j of Q^T at k = dist(u, v)
        table = _TraceTable(form.tau)
        by_distance = [table[f, f] for f in form.resolvent.polys(0)]
        nums = [list(map(by_distance.__getitem__, row)) for row in dist]
        _check_mixing_invariants(nums, form.denom)
        mixing, cls = ExactMatrix(nums, form.denom), [0] * len(rows)
        phi = _quotient_char_poly(qt, len(rows), form.min_poly)
        disc_char = form.disc_min if len(qt) == len(rows) else 0
    return AvgMixReport(
        mixing=mixing,
        min_poly=ExactPolynomial(form.min_poly),
        char_poly=ExactPolynomial(phi),
        disc_min=Fraction(form.disc_min),
        disc_char=Fraction(disc_char),
        simple_spectrum=disc_char != 0,
        common_denominator=mixing.denominator,
        certificates=_certify(mixing.denominator, form.disc_min, disc_char),
        vertex_classes=tuple(cls),
    )


def _check_mixing_invariants(nums: list[list[int]], denom: int) -> None:
    """Entries nums / denom: nonnegative, rows summing to 1, symmetric."""
    # guaranteed by the algebra; a violation means the pipeline is broken
    for row in nums:
        if min(row) < 0:
            raise AssertionError("average mixing entry below zero")
    if any(sum(row) != denom for row in nums):
        raise AssertionError("average mixing row sum differs from 1")
    _require_symmetric(nums, "average mixing matrix is not symmetric")


def _require_symmetric(nums: list[list[int]], message: str) -> None:
    # the transpose comparison of `ExactMatrix.is_symmetric`, on lists
    if list(map(list, zip(*nums))) != nums:
        raise AssertionError(message)


def _certify(denominator: int, d_min: int, d_char: int) -> IntegralityCertificates:
    """Certificates from the lcm of the reduced entry denominators: every
    entry denominator divides X exactly when that lcm divides X.  Each
    bound is guaranteed, so a failure raises.  d_char is 0 off a simple
    spectrum, where the D_char bound does not apply."""
    if (d_min * d_min) % denominator:
        raise AssertionError("D^2 Mhat must be integral")
    if d_char and d_char % denominator:
        raise AssertionError("D_char Mhat must be integral for simple spectra")
    if d_min % denominator:
        raise AssertionError("D_min Mhat must be integral")
    return IntegralityCertificates(True, True, True)


def strong_cospectral_kernel(report: AvgMixReport, u: int, v: int) -> bool:
    """Whether e_u - e_v lies in the kernel of Mhat, i.e. columns u, v agree.

    For symmetric idempotents this is exactly strong cospectrality of the
    pair: E_r e_u = +- E_r e_v for every r.
    """
    _check_vertices(report.n, u, v)
    if u == v:
        raise ValueError("strong cospectrality needs two distinct vertices")
    # Mhat is symmetric, so its columns are its rows
    return report.mixing.numerators[u] == report.mixing.numerators[v]
