"""Commutative association schemes given as 0/1 class matrices.

A candidate scheme is a list of square 0/1 matrices.  Verification
checks the four classical axioms and reports every failure it finds,
each with a concrete witness:

  (a) the identity is one of the classes and the supports partition
      all positions (the classes sum to the all-ones matrix),
  (b) the transpose of every class is again a class,
  (c) the classes commute pairwise,
  (d) every product of classes lies in their linear span.

For a verified scheme with symmetric classes the common eigenspaces are
computed numerically (the classes commute, so simultaneous refinement
terminates in exactly d+1 blocks), giving multiplicities, spectral
idempotents, and the pseudocyclic test.  Cyclotomic schemes over a
prime field are built directly from power residue cosets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import ExactMatrix, matrix_in_span
from .numeric import ClusteringError

F = Fraction


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


def _validate_classes(matrices: list[ExactMatrix]) -> int:
    if not matrices:
        raise ValueError("a scheme needs at least one class matrix")
    n = matrices[0].nrows
    for m in matrices:
        if not (m.nrows == n and m.ncols == n):
            raise ValueError("class matrices must be square of equal order")
        if any(x not in (0, 1) for x in m.entries()):
            raise ValueError("class matrices must have 0/1 entries")
    return n


def _axiom_a(matrices: list[ExactMatrix], out: list[SchemeViolation]) -> None:
    n = matrices[0].nrows
    identity_hits = [i for i, m in enumerate(matrices) if m == ExactMatrix.identity(n)]
    if not identity_hits:
        out.append(SchemeViolation("a", (), "no class equals the identity"))
    for i, m in enumerate(matrices):
        if m.is_zero():
            out.append(SchemeViolation("a", (i,), f"class {i} is empty"))
    total = ExactMatrix.zeros(n, n)
    for m in matrices:
        total = total + m
    if total != ExactMatrix.ones(n):
        cell = next(
            (i, j)
            for i in range(n)
            for j in range(n)
            if total[i, j] != 1
        )
        out.append(
            SchemeViolation(
                "a",
                cell,
                f"class supports do not partition: position {cell} is "
                f"covered {total[cell]} times",
            )
        )


def _axiom_b(matrices: list[ExactMatrix], out: list[SchemeViolation]) -> None:
    for i, m in enumerate(matrices):
        t = m.transpose()
        if all(t != other for other in matrices):
            out.append(
                SchemeViolation(
                    "b", (i,), f"the transpose of class {i} is not a class"
                )
            )


def _axiom_c(
    matrices: list[ExactMatrix], out: list[SchemeViolation]
) -> list[list[ExactMatrix]]:
    """Record non-commuting pairs; returns every product A_i A_j for axiom (d)."""
    products = [[a * b for b in matrices] for a in matrices]
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            if products[i][j] != products[j][i]:
                out.append(
                    SchemeViolation(
                        "c", (i, j), f"classes {i} and {j} do not commute"
                    )
                )
    return products


def _axiom_d(
    matrices: list[ExactMatrix],
    products: list[list[ExactMatrix]],
    out: list[SchemeViolation],
) -> None:
    for i in range(len(matrices)):
        for j in range(len(matrices)):
            product = products[i][j]
            if not matrix_in_span(product, matrices):
                detail = (
                    f"the product of classes {i} and {j} is not a linear "
                    f"combination of the classes"
                )
                conflict = _span_conflict(product, matrices)
                if conflict is not None:
                    detail += conflict
                out.append(SchemeViolation("d", (i, j), detail))


def _span_conflict(
    product: ExactMatrix, matrices: list[ExactMatrix]
) -> str | None:
    """Two cells of one class support where the product coefficient differs.

    Only meaningful when the supports are disjoint; returns None when no
    single-class conflict pins down the failure.
    """
    n = product.nrows
    for k, m in enumerate(matrices):
        cells = [(i, j) for i in range(n) for j in range(n) if m[i, j] == 1]
        values = {product[c] for c in cells}
        if len(values) > 1:
            lo = min(cells, key=product.__getitem__)
            hi = max(cells, key=product.__getitem__)
            return (
                f": on the support of class {k} it takes value "
                f"{product[lo]} at {lo} but {product[hi]} at {hi}"
            )
    return None


def _common_eigenspaces(
    arrays: list[np.ndarray], guard: float
) -> list[np.ndarray]:
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
                if stop == len(values) or values[stop] - values[stop - 1] > guard:
                    refined.append(block @ vectors[:, start:stop])
                    start = stop
        blocks = refined
    return blocks


def _spectral_data(
    matrices: list[ExactMatrix], guard: float
) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    arrays = [np.array(m.to_float()) for m in matrices]
    n = arrays[0].shape[0]
    blocks = _common_eigenspaces(arrays, guard)
    if len(blocks) != len(matrices):
        raise ClusteringError(
            f"expected {len(matrices)} joint eigenspaces, found {len(blocks)}"
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


def verify_scheme(
    matrices: list[ExactMatrix], guard: float = 1e-6
) -> SchemeReport:
    """Check the scheme axioms, collecting every violation found.

    On success the returned scheme carries valencies always, and
    multiplicities with projectors when all classes are symmetric.
    """
    _validate_classes(matrices)
    violations: list[SchemeViolation] = []
    _axiom_a(matrices, violations)
    _axiom_b(matrices, violations)
    products = _axiom_c(matrices, violations)
    _axiom_d(matrices, products, violations)
    if violations:
        return SchemeReport(False, tuple(violations), None)

    ordered = sorted(
        matrices,
        key=lambda m: m != ExactMatrix.identity(m.nrows),
    )
    valencies = []
    for i, m in enumerate(ordered):
        sums = set(m.row_sums())
        if len(sums) != 1:
            raise AssertionError(
                f"class {i} of a verified scheme has non-constant row sums"
            )
        valencies.append(int(sums.pop()))
    if all(m.is_symmetric() for m in ordered):
        multiplicities, projectors = _spectral_data(ordered, guard)
    else:
        multiplicities, projectors = None, None
    scheme = AssociationScheme(
        tuple(ordered), tuple(valencies), multiplicities, projectors
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


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


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
    if not _is_prime(q):
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
