"""Dense complex linear algebra for the selection and verification layers.

Everything is numpy-backed.  Certified bounds are always computed from a
fresh Hermitian eigendecomposition (hermitian_eig) rather than maintained by
rank-one updates, which removes a whole class of drift bugs from the
certified numbers; expframes.verify is the one place that computes them.
Rank-one updates are used only for scoring: the two-sided and upper greedy
loops carry their decomposition from step to step by one real eigh per
rank-one term, the Riesz loop takes one bare np.linalg.eigh per step, and
each loop ranks its candidates in closed form from that decomposition.  The
engines make no hermitian_eig call: the Riesz selection is sized from the
Parseval property, not from a decomposition.  The scores depend on spectral
projections only, so the eigenvector phase convention of hermitian_eig
matters only to its callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, ShiftInsideSpectrum

HERMITIAN_RTOL = 1e-12
EIG_RESIDUAL_RTOL = 1e-10


def _index_array(indices) -> np.ndarray:
    if isinstance(indices, range):
        return np.arange(indices.start, indices.stop, indices.step, dtype=np.int64)
    return np.fromiter(indices, dtype=np.int64)


def dft_submatrix(m: int, row_set, col_set) -> np.ndarray:
    """Submatrix of the order-m Fourier matrix, entries exp(2i*pi*j*r/m).

    Rows are indexed by j in row_set, columns by r in col_set; both must be
    duplicate-free residues in {0, ..., m-1}.
    """
    rows, cols = _index_array(row_set), _index_array(col_set)
    for name, idx in (("row", rows), ("col", cols)):
        if idx.size == 0:
            raise ValueError(f"{name} set is empty")
        if idx.min() < 0 or idx.max() >= m:
            raise ValueError(f"{name} residue out of range [0, {m - 1}]")
        if np.bincount(idx, minlength=m).max() > 1:
            raise ValueError(f"duplicate {name} residues")
    # Phases reduced mod m stay below 2*pi, so entries are accurate to a few
    # ulps at any m; the m roots of unity are computed once and gathered.
    roots = np.exp(2.0j * np.pi * np.arange(m) / m)
    return roots[np.outer(rows, cols) % m]


def gram(a: np.ndarray) -> np.ndarray:
    """Conjugate-transpose product a* a (cols x cols, Hermitian PSD)."""
    a = np.asarray(a, dtype=np.complex128)
    g = a.conj().T @ a
    return 0.5 * (g + g.conj().T)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Ascending eigenvalues with a unitary eigenvector basis.

    Eigenvectors follow a fixed sign convention (first component of modulus
    above 1e-8 times the max is rotated to the positive real axis) so that
    identical inputs give byte-identical results.  Only hermitian_eig's
    callers rely on it; the greedy loops use bare eigenvectors, whose phases
    none of their scores depend on.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1])


def _canonical_phases(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        pivot = int(np.argmax(mags > 1e-8 * mags.max())) if mags.max() > 0 else 0
        z = col[pivot]
        if abs(z) > 0:
            out[:, k] = col * (z.conjugate() / abs(z))
    return out


def hermitian_eig(h: np.ndarray) -> HermitianSpectrum:
    """Full spectrum of a Hermitian matrix, deterministic for identical input.

    Raises NotHermitian if the asymmetry exceeds HERMITIAN_RTOL relative to
    the matrix scale; the input is symmetrized before factorization.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hermitian_eig expects a square matrix")
    if not (np.all(np.isfinite(h.real)) and np.all(np.isfinite(h.imag))):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(h).max()) if h.size else 0.0)
    asym = float(np.abs(h - h.conj().T).max())
    if asym > HERMITIAN_RTOL * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITIAN_RTOL:.0e} * {scale:.3e}")
    hs = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(hs)
    vecs = _canonical_phases(vecs)
    spec = HermitianSpectrum(vals, vecs)
    hnorm = max(1.0, float(np.abs(vals).max()))
    residual = float(np.abs(hs @ vecs - vecs * vals[None, :]).max())
    if residual > EIG_RESIDUAL_RTOL * hnorm:
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    return spec


def resolvent_quadratics(a: np.ndarray, shift: float, v: np.ndarray) -> tuple[float, float]:
    """Quadratic forms of the first and second resolvent powers at a real shift.

    For shift u above the spectrum returns (v*(uI-a)^-1 v, v*(uI-a)^-2 v);
    for shift l below it returns the mirrored forms with (a-lI).  Computed
    from the eigendecomposition of a; no incremental updates.
    """
    spec = hermitian_eig(a)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != spec.eigenvalues.size:
        raise ValueError("vector length does not match matrix order")
    anorm = max(1.0, float(np.abs(spec.eigenvalues).max()))
    weights = np.abs(spec.eigenvectors.conj().T @ v) ** 2
    if shift > spec.lam_max:
        gaps = shift - spec.eigenvalues
    elif shift < spec.lam_min:
        gaps = spec.eigenvalues - shift
    else:
        raise ShiftInsideSpectrum(
            f"shift {shift} inside [{spec.lam_min}, {spec.lam_max}]"
        )
    if float(gaps.min()) < 1e-12 * anorm:
        raise ShiftInsideSpectrum(f"shift {shift} within 1e-12 margin of the spectrum")
    q1 = float(np.sum(weights / gaps))
    q2 = float(np.sum(weights / gaps**2))
    return q1, q2
