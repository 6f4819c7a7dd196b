"""Floating-point spectral decompositions and mixing curves.

This is the independent numeric route used to sanity-check the exact
pipeline: eigenvalues come from numpy's symmetric eigensolver, are
clustered into eigenspaces by a gap tolerance, and projectors are formed
from the clustered eigenvector blocks.  Mixing matrices at finite times
use the cosine expansion over projector pairs, which keeps each term
manifestly real, and time averages replace the cosines with sinc
factors integrated in closed form.

numpy is imported when this module loads, as in every module that
computes with floats.  What a call loads is decided only where it
enters: by each `avgmix.cli` subcommand and by the lazy `avgmix`
namespace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import ExactMatrix


class ClusteringError(RuntimeError):
    """Eigenvalue clustering disagrees with an exact spectrum count."""


def _as_array(m) -> np.ndarray:
    arr = np.asarray(m.to_float() if isinstance(m, ExactMatrix) else m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (ascending) with orthogonal projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    tolerance: float

    @property
    def n(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(int(round(np.trace(p))) for p in self.projectors)


def default_tolerance(m) -> float:
    arr = _as_array(m)
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    return 1e-9 * arr.shape[0] * max(scale, 1.0)


def spectral_decomposition(m, tol: float | None = None) -> SpectralDecomposition:
    """Eigenvalue clusters and projectors of a real symmetric matrix."""
    arr = _as_array(m)
    if not np.allclose(arr, arr.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix must be symmetric")
    if tol is None:
        tol = default_tolerance(arr)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    eigs, vecs = np.linalg.eigh(arr)
    clusters: list[list[int]] = [[0]]
    for idx in range(1, len(eigs)):
        if eigs[idx] - eigs[clusters[-1][-1]] <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    values = []
    projectors = []
    for idxs in clusters:
        values.append(float(np.mean(eigs[idxs])))
        block = vecs[:, idxs]
        projectors.append(block @ block.T)
    return SpectralDecomposition(tuple(values), tuple(projectors), float(tol))


def expect_cluster_count(d: SpectralDecomposition, count: int) -> None:
    """Cross-check hook: the cluster count must match an exact degree."""
    if len(d.eigenvalues) != count:
        raise ClusteringError(
            f"clustered {len(d.eigenvalues)} eigenspaces, expected {count}; "
            f"tolerance {d.tolerance} is unsuitable for this spectrum"
        )


def transition_matrix(d: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = exp(itM) = sum_r e^(i theta_r t) E_r."""
    out = np.zeros((d.n, d.n), dtype=complex)
    for theta, proj in zip(d.eigenvalues, d.projectors):
        out += np.exp(1j * theta * t) * proj
    return out


def mixing_at(d: SpectralDecomposition, t: float) -> np.ndarray:
    """Mixing matrix M(t), via the real cosine expansion over projector pairs."""
    out = np.zeros((d.n, d.n))
    for r, (theta_r, proj_r) in enumerate(zip(d.eigenvalues, d.projectors)):
        out += proj_r * proj_r
        for s in range(r + 1, len(d.eigenvalues)):
            gap = theta_r - d.eigenvalues[s]
            out += 2.0 * np.cos(gap * t) * (proj_r * d.projectors[s])
    return out


def average_upto(d: SpectralDecomposition, horizon: float) -> np.ndarray:
    """(1/T) integral of M(t) over [0, T], by the closed sinc form."""
    if horizon <= 0:
        raise ValueError("averaging horizon must be positive")
    out = np.zeros((d.n, d.n))
    for r, (theta_r, proj_r) in enumerate(zip(d.eigenvalues, d.projectors)):
        out += proj_r * proj_r
        for s in range(r + 1, len(d.eigenvalues)):
            x = (theta_r - d.eigenvalues[s]) * horizon
            out += 2.0 * (np.sin(x) / x) * (proj_r * d.projectors[s])
    return out


def numeric_avg_mixing(d: SpectralDecomposition) -> np.ndarray:
    """Limit of the time average: sum of Schur-squared projectors."""
    out = np.zeros((d.n, d.n))
    for proj in d.projectors:
        out += proj * proj
    return out


def eigenvalue_range(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a real symmetric matrix."""
    arr = _as_array(m)
    if not np.allclose(arr, arr.T, atol=1e-12, rtol=0.0):
        raise ValueError("expected a symmetric matrix")
    values = np.linalg.eigvalsh(arr)
    return float(values[0]), float(values[-1])
