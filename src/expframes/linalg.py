"""Dense complex linear algebra for the selection and verification layers.

Everything is numpy-backed.  Certified bounds are always computed from a
fresh Hermitian eigendecomposition (hermitian_eig) rather than maintained by
rank-one updates, which removes a whole class of drift bugs from the
certified numbers; expframes.verify is the one place that computes them.
Rank-one updates are used only for scoring: each greedy loop carries the
decomposition of its running sum from step to step by one real
diagonal-plus-rank-one solve per term (LAPACK's dlaed2/dlaed3 from numpy's
bundled OpenBLAS, found through _openblas_function, or a dense eigh), and
ranks its candidates in closed form from that decomposition.  The
engines make no hermitian_eig call: the Riesz selection is sized from the
Parseval property, not from a decomposition.  Every reader of an
eigendecomposition here depends on eigenvalues or spectral projections
only, so no eigenvector phase is fixed anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NotHermitian

HERMITIAN_RTOL = 1e-12
EIG_RESIDUAL_RTOL = 1e-10


def _index_array(indices) -> np.ndarray:
    if isinstance(indices, range):
        return np.arange(indices.start, indices.stop, indices.step, dtype=np.int64)
    return np.fromiter(indices, dtype=np.int64)


@functools.cache
def _openblas_library():
    """numpy's bundled OpenBLAS through ctypes, or None without one.

    numpy's Linux wheels ship it as numpy.libs/*openblas*; the process has
    already loaded it, so this is the copy numpy itself calls.  Loaded on
    first use, so importing the package does not pay for it.
    """
    import ctypes

    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        return ctypes.CDLL(str(path))
    return None


def _openblas_function(name: str):
    """Function name of numpy's bundled OpenBLAS, or None if it has none.

    The bundled library has 64-bit integers, and its symbols carry a 64_
    suffix ("dlaed2_64_", "openblas_set_num_threads64_"), which name
    includes; the scipy-openblas builds also prefix them with "scipy_".
    The caller declares argtypes and restype.
    """
    lib = _openblas_library()
    if lib is not None:
        for symbol in ("scipy_" + name, name):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


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

    The eigenvectors are numpy's eigh columns as they come, fixed only up
    to a unit phase each (a unitary rotation within a repeated eigenvalue).
    Callers read the eigenvalues and sums over spectral projections, such
    as sum_k f(lambda_k) |u_k* v|^2, which do not depend on that choice.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1])


def hermitian_eig(h: np.ndarray) -> HermitianSpectrum:
    """Full spectrum of a Hermitian matrix with a checked residual.

    Raises ValueError unless the input is a non-empty finite square matrix,
    and NotHermitian if the asymmetry exceeds HERMITIAN_RTOL relative to the
    matrix scale; the input is symmetrized before factorization.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ValueError("hermitian_eig expects a non-empty square matrix")
    if not (np.all(np.isfinite(h.real)) and np.all(np.isfinite(h.imag))):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(h).max()))
    asym = float(np.abs(h - h.conj().T).max())
    if asym > HERMITIAN_RTOL * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITIAN_RTOL:.0e} * {scale:.3e}")
    hs = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(hs)
    spec = HermitianSpectrum(vals, vecs)
    hnorm = max(1.0, float(np.abs(vals).max()))
    residual = float(np.abs(hs @ vecs - vecs * vals[None, :]).max())
    if residual > EIG_RESIDUAL_RTOL * hnorm:
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    return spec

