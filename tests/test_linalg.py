import cmath
import contextlib
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expframes as ef
from expframes import linalg
from expframes.errors import NotHermitian


class ShiftInsideSpectrum(ValueError):
    """The resolvent shift lies inside (or too close to) the matrix spectrum."""


def resolvent_quadratics(a: np.ndarray, shift: float, v: np.ndarray) -> tuple[float, float]:
    """Quadratic forms of the first and second resolvent powers at a real shift.

    The score oracle of the greedy replays (tests/test_selection.py).  For
    shift u above the spectrum returns (v*(uI-a)^-1 v, v*(uI-a)^-2 v); for
    shift l below it returns the mirrored forms with (a-lI).  Computed from
    the eigendecomposition of a; no incremental updates.
    """
    spec = ef.hermitian_eig(a)
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
        raise ShiftInsideSpectrum(f"shift {shift} inside [{spec.lam_min}, {spec.lam_max}]")
    if float(gaps.min()) < 1e-12 * anorm:
        raise ShiftInsideSpectrum(f"shift {shift} within 1e-12 margin of the spectrum")
    q1 = float(np.sum(weights / gaps))
    q2 = float(np.sum(weights / gaps**2))
    return q1, q2


class TestDftSubmatrix:
    def test_two_point(self):
        f = ef.dft_submatrix(2, (0, 1), (0, 1))
        assert np.allclose(f, [[1, 1], [1, -1]], atol=1e-14)

    def test_hand_oracle_m4(self):
        # entries exp(i*pi*j*r/2) evaluated by hand for rows {0,2}, cols {0,1}
        f = ef.dft_submatrix(4, (0, 2), (0, 1))
        expected = [[cmath.exp(1j * math.pi * j * r / 2) for r in (0, 1)] for j in (0, 2)]
        assert np.allclose(f, expected, atol=1e-14)
        assert np.allclose(f, [[1, 1], [1, -1]], atol=1e-14)

    def test_unit_modulus(self):
        f = ef.dft_submatrix(12, range(12), (1, 5, 7))
        assert np.abs(np.abs(f) - 1.0).max() <= 1e-14

    def test_full_matrix_unitary(self):
        m = 4
        f = ef.dft_submatrix(m, range(m), range(m)) / math.sqrt(m)
        assert np.abs(ef.gram(f) - np.eye(m)).max() <= 1e-12

    def test_rejects_bad_residues(self):
        for rows, cols, message in (
            ((0, 4), (0,), "row residue out of range [0, 3]"),
            ((0, 1), (-1,), "col residue out of range [0, 3]"),
            ((0, 0), (1,), "duplicate row residues"),
            (range(4), (2, 1, 2), "duplicate col residues"),
            ((), (1,), "row set is empty"),
            ((1,), range(0), "col set is empty"),
        ):
            with pytest.raises(ValueError) as refused:
                ef.dft_submatrix(4, rows, cols)
            assert str(refused.value) == message

    def test_checked_and_unchecked_blocks_agree(self):
        # the unchecked builder gives the checked entry point's bytes
        rows, cols = (0, 3, 7, 12), (2, 5, 11)
        f = ef.dft_submatrix(13, rows, cols)
        assert f.tobytes() == linalg._fourier_block(13, rows, cols).tobytes()
        full = ef.dft_submatrix(13, range(13), cols)
        assert full.tobytes() == linalg._fourier_block(13, range(13), cols).tobytes()


class TestGram:
    def test_two_point_dft(self):
        assert np.allclose(ef.gram(np.array([[1, 1], [1, -1]])), 2 * np.eye(2))

    def test_identity(self):
        assert np.allclose(ef.gram(np.eye(3)), np.eye(3))

    def test_random_psd(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        g = ef.gram(a)
        assert np.abs(g - g.conj().T).max() <= 1e-13 * max(1.0, np.abs(g).max())
        lam = ef.hermitian_eig(g).lam_min
        assert lam >= -1e-12 * np.linalg.norm(a) ** 2


class TestHermitianEig:
    def test_diagonal(self):
        spec = ef.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    def test_gram_of_two_point_dft(self):
        spec = ef.hermitian_eig(ef.gram(np.array([[1, 1], [1, -1]], dtype=complex)))
        assert np.allclose(spec.eigenvalues, [2.0, 2.0])

    def test_full_fourier_unitarity(self):
        m = 8
        g = ef.gram(ef.dft_submatrix(m, range(m), range(m))) / m
        spec = ef.hermitian_eig(g)
        assert np.abs(spec.eigenvalues - 1.0).max() <= 1e-10

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian) as refused:
            ef.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert str(refused.value) == "asymmetry 1.000e+00 exceeds 1e-12 * 1.000e+00"

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_rejects_non_finite_part(self, entry, part):
        # a non-finite real or imaginary part alone (nan * 1j would spoil
        # both), off the diagonal of a matrix that is otherwise Hermitian
        bad = complex(entry, 0.5) if part == "real" else complex(0.5, entry)
        h = np.eye(3, dtype=np.complex128)
        h[0, 2], h[2, 0] = bad, bad.conjugate()
        assert np.isfinite(getattr(h[0, 2], "imag" if part == "real" else "real"))
        with pytest.raises(ValueError) as refused:
            ef.hermitian_eig(h)
        assert str(refused.value) == "matrix entries must be finite"

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (h + h.conj().T)
        spec = ef.hermitian_eig(h)
        res = np.abs(h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max()
        assert res <= 1e-10 * max(1.0, np.abs(spec.eigenvalues).max())

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = 0.5 * (h + h.conj().T)
        a = ef.hermitian_eig(h)
        b = ef.hermitian_eig(h.copy())
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_n_equals_one(self):
        spec = ef.hermitian_eig(np.array([[-3.0]]))
        assert spec.eigenvalues.tolist() == [-3.0]
        assert spec.eigenvectors.tolist() == [[1.0 + 0.0j]]

    @pytest.mark.parametrize("h", [np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(3)])
    def test_rejects_empty_or_non_square(self, h):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            ef.hermitian_eig(h)


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_trace_identity(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + h.conj().T)
    spec = ef.hermitian_eig(h)
    trace = float(np.trace(h).real)
    assert abs(spec.eigenvalues.sum() - trace) <= 1e-10 * max(1.0, abs(trace))


@settings(max_examples=25, derandomize=True)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9))
def test_column_subset_parseval(m, take):
    cols = tuple(range(min(take, m)))
    g = ef.gram(ef.dft_submatrix(m, range(m), cols))
    assert np.abs(g - m * np.eye(len(cols))).max() <= 1e-10 * m


class TestResolventQuadratics:
    def test_zero_matrix(self):
        q1, q2 = resolvent_quadratics(np.zeros((2, 2)), 1.0, np.array([1.0, 0.0]))
        assert math.isclose(q1, 1.0) and math.isclose(q2, 1.0)

    def test_diagonal_upper(self):
        # closed-form: 0.5*(1/2 + 1/1) and 0.5*(1/4 + 1/1)
        a = np.diag([1.0, 2.0])
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        q1, q2 = resolvent_quadratics(a, 3.0, v)
        assert math.isclose(q1, 0.75) and math.isclose(q2, 0.625)

    def test_diagonal_lower(self):
        q1, q2 = resolvent_quadratics(np.diag([1.0, 2.0]), 0.0, np.array([0.0, 1.0]))
        assert math.isclose(q1, 0.5) and math.isclose(q2, 0.25)

    def test_shift_inside(self):
        with pytest.raises(ShiftInsideSpectrum):
            resolvent_quadratics(np.diag([1.0, 2.0]), 1.5, np.array([1.0, 0.0]))
        with pytest.raises(ShiftInsideSpectrum):
            resolvent_quadratics(np.zeros((2, 2)), 0.0, np.array([1.0, 0.0]))


@contextlib.contextmanager
def openblas_loading(lib):
    """Run the body with the OpenBLAS lookup redone on lib (None: no library).

    The lookup's cache is cleared on entry and on exit, so the body sees a
    lookup of lib and later callers one of numpy's own library again.
    """
    linalg._openblas_routines.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_openblas_library", lambda: lib)
            yield
    finally:
        linalg._openblas_routines.cache_clear()


# Each routine's ILP64 symbol, spelled out here rather than taken from the
# lookup; numpy 2 wheels bundle scipy-openblas, which prefixes every symbol
# with "scipy_", and numpy 1 wheels export the bare names
OPENBLAS_SYMBOLS = {
    "dlaed2": "dlaed2_64_",
    "dlaed3": "dlaed3_64_",
    "dlaed4": "dlaed4_64_",
    "get_num_threads": "openblas_get_num_threads64_",
    "set_num_threads": "openblas_set_num_threads64_",
}
WHEEL_PREFIXES = pytest.mark.parametrize("prefix", ["scipy_", ""], ids=["numpy2", "numpy1"])


def fake_openblas(symbols):
    """A library object exporting each symbol as a routine that records its name."""
    return types.SimpleNamespace(**{s: types.SimpleNamespace(symbol=s) for s in symbols})


class TestOpenblasLookup:
    """linalg._openblas_routines on a stand-in library, offline."""

    @WHEEL_PREFIXES
    def test_every_routine_resolves_and_is_typed(self, prefix):
        with openblas_loading(fake_openblas(prefix + s for s in OPENBLAS_SYMBOLS.values())):
            routines = linalg._openblas_routines()
        assert tuple(linalg._OPENBLAS_SIGNATURES) == tuple(OPENBLAS_SYMBOLS)
        assert routines is not None and tuple(routines) == tuple(OPENBLAS_SYMBOLS)
        for name, (argtypes, restype) in linalg._OPENBLAS_SIGNATURES.items():
            routine = routines[name]
            assert routine.symbol == prefix + OPENBLAS_SYMBOLS[name]
            assert routine.argtypes == argtypes and routine.restype is restype

    @WHEEL_PREFIXES
    @pytest.mark.parametrize("missing", tuple(OPENBLAS_SYMBOLS))
    def test_a_missing_routine_gives_none(self, prefix, missing):
        lib = fake_openblas(prefix + s for name, s in OPENBLAS_SYMBOLS.items() if name != missing)
        with openblas_loading(lib):
            assert linalg._openblas_routines() is None

    def test_no_library_gives_none(self):
        with openblas_loading(None):
            assert linalg._openblas_routines() is None
