"""Commutative association schemes given as 0/1 class matrices.

A candidate scheme is a list of square 0/1 matrices.  Verification
checks the four classical axioms and reports every failure it finds,
each with a concrete witness:

  (a) the identity is one of the classes and the supports partition
      all positions (the classes sum to the all-ones matrix),
  (b) the transpose of every class is again a class,
  (c) the classes commute pairwise,
  (d) every product of classes lies in their linear span.

The axioms run on int64 arrays, built once after every entry has been
checked to be 0 or 1.  That is exact: an entry of the product of two
0/1 matrices of order n lies in [0, n], and an entry of the class sum
is at most the number of classes.  Each product A_i A_j is computed
once and shared by (c) and (d).  The span test of (d) has one equation
per position, and `avgmix.exact` drops duplicate equations before its
fraction-free integer elimination: for classes that partition the
positions, at most (d+1) times the number of distinct product values
remain, not n^2.

For a verified scheme with symmetric classes the common eigenspaces are
computed numerically (the classes commute, so simultaneous refinement
terminates in exactly d+1 blocks, eigenvalues more than GUARD apart
split a block), giving multiplicities, spectral
idempotents, and the pseudocyclic test.  Cyclotomic schemes over a
prime field are built directly from power residue cosets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import ExactMatrix, _is_prime_62, _rows_in_span
from .numeric import ClusteringError

# eigenvalues of a compressed class further apart than GUARD start a new
# joint eigenspace
GUARD = 1e-6


@dataclass(frozen=True)
class SchemeViolation:
    """One axiom failure; axiom is the letter 'a', 'b', 'c', or 'd'."""

    axiom: str
    witness: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class AssociationScheme:
    """A verified scheme with its combinatorial and spectral data.

    matrices holds the classes in input order with the identity first,
    valencies the constant row sums.  multiplicities and projectors are
    present for symmetric schemes only: the identity-bearing eigenspace
    comes first, the rest in descending order of eigenvalue signature.
    """

    matrices: tuple[ExactMatrix, ...]
    valencies: tuple[int, ...]
    multiplicities: tuple[int, ...] | None
    projectors: tuple[np.ndarray, ...] | None

    @property
    def n(self) -> int:
        return self.matrices[0].nrows

    @property
    def d(self) -> int:
        return len(self.matrices) - 1

    def is_symmetric(self) -> bool:
        return all(m.is_symmetric() for m in self.matrices)


@dataclass(frozen=True)
class SchemeReport:
    ok: bool
    violations: tuple[SchemeViolation, ...]
    scheme: AssociationScheme | None


def _validate_classes(matrices: list[ExactMatrix]) -> list[np.ndarray]:
    """The classes as int64 arrays, once every entry is known to be 0 or 1."""
    if not matrices:
        raise ValueError("a scheme needs at least one class matrix")
    n = matrices[0].nrows
    arrays = []
    for m in matrices:
        if not (m.nrows == n and m.ncols == n):
            raise ValueError("class matrices must be square of equal order")
        if m.denominator != 1 or not {x for r in m.numerators for x in r} <= {0, 1}:
            raise ValueError("class matrices must have 0/1 entries")
        arrays.append(np.array(m.numerators, dtype=np.int64))
    return arrays


def _axiom_a(arrays: list[np.ndarray], out: list[SchemeViolation]) -> None:
    n = arrays[0].shape[0]
    identity = np.eye(n, dtype=np.int64)
    if not any(np.array_equal(a, identity) for a in arrays):
        out.append(SchemeViolation("a", (), "no class equals the identity"))
    for i, a in enumerate(arrays):
        if not a.any():
            out.append(SchemeViolation("a", (i,), f"class {i} is empty"))
    total = sum(arrays)
    if not (total == 1).all():
        cell = tuple(int(x) for x in np.argwhere(total != 1)[0])
        out.append(
            SchemeViolation(
                "a",
                cell,
                f"class supports do not partition: position {cell} is "
                f"covered {int(total[cell])} times",
            )
        )


def _axiom_b(arrays: list[np.ndarray], out: list[SchemeViolation]) -> None:
    for i, a in enumerate(arrays):
        if not any(np.array_equal(a.T, other) for other in arrays):
            out.append(
                SchemeViolation(
                    "b", (i,), f"the transpose of class {i} is not a class"
                )
            )


def _axiom_c(
    arrays: list[np.ndarray], out: list[SchemeViolation]
) -> list[list[np.ndarray]]:
    """Record non-commuting pairs; returns every product A_i A_j for axiom (d)."""
    products = [[a @ b for b in arrays] for a in arrays]
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            if not np.array_equal(products[i][j], products[j][i]):
                out.append(
                    SchemeViolation(
                        "c", (i, j), f"classes {i} and {j} do not commute"
                    )
                )
    return products


def _axiom_d(
    arrays: list[np.ndarray],
    products: list[list[np.ndarray]],
    out: list[SchemeViolation],
) -> None:
    # one equation per position: the class entries, then the product
    # entry, read off the positions deduplicated once for all products
    d = len(arrays)
    columns = [a.ravel() for a in arrays] + [p.ravel() for row in products for p in row]
    distinct = list(dict.fromkeys(map(tuple, np.stack(columns, axis=1).tolist())))
    for i in range(d):
        for j in range(d):
            product = products[i][j]
            col = d + i * d + j
            if not _rows_in_span(row[:d] + (row[col],) for row in distinct):
                detail = (
                    f"the product of classes {i} and {j} is not a linear "
                    f"combination of the classes"
                )
                conflict = _span_conflict(product, arrays)
                if conflict is not None:
                    detail += conflict
                out.append(SchemeViolation("d", (i, j), detail))


def _span_conflict(
    product: np.ndarray, arrays: list[np.ndarray]
) -> str | None:
    """Two cells of one class support where the product coefficient differs.

    Only meaningful when the supports are disjoint; returns None when no
    single-class conflict pins down the failure.  The cells named are the
    first, in row-major order, of the lowest and of the highest value.
    """
    n = product.shape[0]
    flat = product.ravel()
    for k, a in enumerate(arrays):
        cells = np.flatnonzero(a.ravel())
        values = flat[cells]
        if values.size and values.min() != values.max():
            lo = int(cells[np.argmin(values)])
            hi = int(cells[np.argmax(values)])
            return (
                f": on the support of class {k} it takes value "
                f"{int(flat[lo])} at {divmod(lo, n)} but "
                f"{int(flat[hi])} at {divmod(hi, n)}"
            )
    return None


def _common_eigenspaces(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal bases of the joint eigenspaces of commuting symmetric arrays."""
    n = arrays[0].shape[0]
    blocks = [np.eye(n)]
    for a in arrays:
        refined = []
        for block in blocks:
            compressed = block.T @ a @ block
            values, vectors = np.linalg.eigh((compressed + compressed.T) / 2)
            start = 0
            for stop in range(1, len(values) + 1):
                if stop == len(values) or values[stop] - values[stop - 1] > GUARD:
                    refined.append(block @ vectors[:, start:stop])
                    start = stop
        blocks = refined
    return blocks


def _spectral_data(
    classes: list[np.ndarray],
) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    arrays = [a.astype(float) for a in classes]
    n = arrays[0].shape[0]
    blocks = _common_eigenspaces(arrays)
    if len(blocks) != len(arrays):
        raise ClusteringError(
            f"expected {len(arrays)} joint eigenspaces, found {len(blocks)}"
        )
    ones = np.ones(n) / np.sqrt(n)

    def signature(block: np.ndarray) -> tuple[float, ...]:
        # snapped to a grid far below the cluster guard so that equal
        # eigenvalues compare equal and the tuple order is stable
        dim = block.shape[1]
        return tuple(
            round(float(np.trace(block.T @ a @ block)) / dim, 8)
            for a in arrays
        )

    trivial = [
        b for b in blocks if np.linalg.norm(b.T @ ones) > 1 - 1e-6
    ]
    if len(trivial) != 1:
        raise ClusteringError("the all-ones vector spans no single eigenspace")
    rest = [b for b in blocks if b is not trivial[0]]
    rest.sort(key=signature, reverse=True)
    ordered = trivial + rest
    multiplicities = tuple(b.shape[1] for b in ordered)
    projectors = tuple(b @ b.T for b in ordered)
    return multiplicities, projectors


def verify_scheme(matrices: list[ExactMatrix]) -> SchemeReport:
    """Check the scheme axioms, collecting every violation found.

    On success the returned scheme carries valencies always, and
    multiplicities with projectors when all classes are symmetric.
    """
    arrays = _validate_classes(matrices)
    violations: list[SchemeViolation] = []
    _axiom_a(arrays, violations)
    _axiom_b(arrays, violations)
    products = _axiom_c(arrays, violations)
    _axiom_d(arrays, products, violations)
    if violations:
        return SchemeReport(False, tuple(violations), None)

    # stable: identity first, the rest in input order
    identity = np.eye(arrays[0].shape[0], dtype=np.int64)
    order = sorted(
        range(len(arrays)), key=lambda i: not np.array_equal(arrays[i], identity)
    )
    valencies = []
    for i, k in enumerate(order):
        sums = set(arrays[k].sum(axis=1).tolist())
        if len(sums) != 1:
            raise AssertionError(
                f"class {i} of a verified scheme has non-constant row sums"
            )
        valencies.append(sums.pop())
    ordered = [arrays[k] for k in order]
    if all(np.array_equal(a, a.T) for a in ordered):
        multiplicities, projectors = _spectral_data(ordered)
    else:
        multiplicities, projectors = None, None
    scheme = AssociationScheme(
        tuple(matrices[k] for k in order),
        tuple(valencies),
        multiplicities,
        projectors,
    )
    return SchemeReport(True, (), scheme)


def is_pseudocyclic(scheme: AssociationScheme) -> bool:
    """All nontrivial eigenspace multiplicities equal."""
    if scheme.multiplicities is None:
        raise ValueError("pseudocyclic test needs spectral data")
    rest = scheme.multiplicities[1:]
    return len(set(rest)) <= 1


# ---------------------------------------------------------------------------
# cyclotomic schemes
# ---------------------------------------------------------------------------


def _primitive_root(q: int) -> int:
    order = q - 1
    prime_factors = set()
    rest = order
    f = 2
    while f * f <= rest:
        while rest % f == 0:
            prime_factors.add(f)
            rest //= f
        f += 1
    if rest > 1:
        prime_factors.add(rest)
    for g in range(2, q):
        if all(pow(g, order // p, q) != 1 for p in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {q}")


def cyclotomic_scheme(q: int, d: int) -> list[ExactMatrix]:
    """Classes of the d-th power residue scheme on the field of q elements.

    Class k+1 joins u to v when u - v falls in the k-th coset of the
    d-th powers.  Only the symmetric case is supported, which requires
    (q-1)/d to be even so that -1 is a d-th power.
    """
    if q >= 2**64:
        raise ValueError("the order must be below 2^64")
    # _is_prime_62 needs q > 1 (at q = 1 it never returns)
    if q < 2 or not _is_prime_62(q):
        raise ValueError("the order must be prime")
    if d < 1 or (q - 1) % d != 0:
        raise ValueError("the class count must divide q - 1")
    if ((q - 1) // d) % 2 != 0:
        raise ValueError(
            "unsupported: (q-1)/d is odd, so -1 is not a d-th power and "
            "the classes are not symmetric"
        )
    g = _primitive_root(q)
    subgroup = {pow(g, j * d, q) for j in range((q - 1) // d)}
    cosets = [
        {(pow(g, i, q) * s) % q for s in subgroup} for i in range(d)
    ]
    classes = [ExactMatrix.identity(q)]
    for coset in cosets:
        classes.append(
            ExactMatrix(
                [
                    [1 if (u - v) % q in coset else 0 for v in range(q)]
                    for u in range(q)
                ]
            )
        )
    return classes


# ---------------------------------------------------------------------------
# the Schur-idempotent identity
# ---------------------------------------------------------------------------


def koppinen_schur_check(scheme: AssociationScheme, tol: float = 1e-8) -> bool:
    """Whether sum_i A_i/(n v_i) equals sum_j (E_j o E_j)/m_j within tol.

    Both sides express the same element of the Bose-Mesner algebra, one
    in the class basis with valencies, one in the idempotent basis with
    multiplicities; the identity is a sharp consistency check of the
    computed spectral data.
    """
    if scheme.projectors is None or scheme.multiplicities is None:
        raise ValueError("the identity needs spectral data")
    n = scheme.n
    left = np.zeros((n, n))
    for matrix, valency in zip(scheme.matrices, scheme.valencies):
        left += np.array(matrix.to_float()) / (n * valency)
    right = np.zeros((n, n))
    for projector, mult in zip(scheme.projectors, scheme.multiplicities):
        right += (projector * projector) / mult
    return bool(np.max(np.abs(left - right)) <= tol)
