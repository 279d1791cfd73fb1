"""Dense complex linear algebra for the selection and verification layers.

Everything is numpy-backed.  Certified bounds are always computed from a
fresh Hermitian eigendecomposition (hermitian_eig) rather than maintained by
rank-one updates, which removes a whole class of drift bugs from the
certified numbers; expframes.verify is the one place that computes them.
Rank-one updates are used only for scoring: each greedy loop carries the
decomposition of its running sum from step to step by one real
diagonal-plus-rank-one solve per term (LAPACK's dlaed2/dlaed3, or a dense
eigh), and ranks its candidates in closed form from that decomposition.  The
engines make no hermitian_eig call: the Riesz selection is sized from the
Parseval property, not from a decomposition.  Every reader of an
eigendecomposition here depends on eigenvalues or spectral projections
only, so no eigenvector phase is fixed anywhere.

_openblas_routines is the package's one way into numpy's bundled OpenBLAS:
it returns, typed, the rank-one merge dlaed2/dlaed3 and the secular root
finder dlaed4 that the engines call, and the get/set thread-count routines
with which the CLI runs BLAS on one thread; or None, and every caller then
takes its numpy route.

Fourier blocks F[rows, cols] all come from _fourier_block, the one place
that evaluates their entries.  It checks nothing: dft_submatrix, the public
entry point, calls it after checking both index sets, and the package calls
it directly only on residue sets that a GridSpectrum or SamplingSet
constructor has already checked (selection.fourier_system on range(m) and
a spectrum's cells, verify.sampling_bounds and verify.riesz_bounds on the
cells and residues they are given).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NotHermitian

HERMITIAN_RTOL = 1e-12
EIG_RESIDUAL_RTOL = 1e-10


def _index_array(indices) -> np.ndarray:
    if isinstance(indices, range):
        return np.arange(indices.start, indices.stop, indices.step, dtype=np.int64)
    return np.fromiter(indices, dtype=np.int64)


# The routines the package calls from numpy's bundled OpenBLAS: name, then
# argument types and result type.  The LAPACK ones take every argument by
# reference.
_OPENBLAS_SIGNATURES = {
    "dlaed2": ([ctypes.c_void_p] * 17, None),
    "dlaed3": ([ctypes.c_void_p] * 14, None),
    "dlaed4": ([ctypes.c_void_p] * 8, None),
    "get_num_threads": ([], ctypes.c_int),
    "set_num_threads": ([ctypes.c_int], None),
}


def _openblas_library():
    """numpy's bundled OpenBLAS through ctypes, or None without one.

    numpy's Linux wheels ship it as numpy.libs/*openblas*; the process has
    already loaded it, so this is the copy numpy itself calls.
    """
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        return ctypes.CDLL(str(path))
    return None


@functools.cache
def _openblas_routines() -> Optional[dict]:
    """Every routine of _OPENBLAS_SIGNATURES, typed and keyed by its name.

    None when numpy carries no bundled OpenBLAS or the library lacks any
    one of them; the callers then take their numpy routes.  Looked up on
    first use, so importing the package does not pay for it.
    """
    lib = _openblas_library()
    if lib is None:
        return None
    routines = {}
    for name, (argtypes, restype) in _OPENBLAS_SIGNATURES.items():
        # LAPACK's Fortran routines link as "dlaed2_", OpenBLAS's own C ones as
        # "openblas_set_num_threads"; the 64-bit integer build appends "64_"
        # to either, and numpy 2's scipy-openblas also prefixes "scipy_"
        link = ("openblas_" + name if name.endswith("_num_threads") else name + "_") + "64_"
        routine = getattr(lib, "scipy_" + link, None) or getattr(lib, link, None)
        if routine is None:
            return None
        routine.argtypes, routine.restype = argtypes, restype
        routines[name] = routine
    return routines


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
    return _fourier_block(m, rows, cols)


def _fourier_block(m: int, rows, cols) -> np.ndarray:
    """dft_submatrix(m, rows, cols) without its checks on the index sets.

    rows and cols are sequences of ints (a range, a tuple or an int64 array)
    that a caller has already checked to be nonempty, duplicate-free
    residues in [0, m): dft_submatrix, or a residue set's own constructor.
    """
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
    # a complex entry is finite when both its parts are
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    h_star = h.conj().T
    scale = max(1.0, float(np.abs(h).max()))
    asym = float(np.abs(h - h_star).max())
    if asym > HERMITIAN_RTOL * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITIAN_RTOL:.0e} * {scale:.3e}")
    hs = 0.5 * (h + h_star)
    vals, vecs = np.linalg.eigh(hs)
    spec = HermitianSpectrum(vals, vecs)
    hnorm = max(1.0, float(np.abs(vals).max()))
    residual = float(np.abs(hs @ vecs - vecs * vals[None, :]).max())
    if residual > EIG_RESIDUAL_RTOL * hnorm:
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    return spec

