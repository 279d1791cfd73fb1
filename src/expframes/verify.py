"""Exact bound computation and independent validation for periodic sets.

For a grid spectrum of order m and a periodic integer set J + mZ, the lower
and upper sampling bounds are exactly the extreme eigenvalues of the scaled
Gram of the corresponding Fourier submatrix; the Riesz bounds of a periodic
exponential system over a cell union are the analogous column-Gram extremes.
Each bound comes from one fresh hermitian_eig with its residual check.  A
Riesz bound decomposes the smaller side: the normalized DFT is unitary, so
complementary blocks share their non-unit singular values, and when fewer
cells lie outside the union than there are exponentials, the Gram's
spectrum is exactly 1 minus that of a c x c matrix over the c outside
cells, plus eigenvalues equal to 1 (see riesz_bounds).  This module
computes those numbers, checks the sampling/Riesz duality (both the
classical factor-2 inequality and the sharper exact discrete identity),
and validates them independently: a closed-form quadrature Gram oracle for
finite sections, and seeded Monte-Carlo sampling of concrete band-limited
signals in the time domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import PeriodMismatch
from .linalg import dft_submatrix, gram, hermitian_eig
from .spectrum import TWO_PI, GridSpectrum, IntervalSet, complement

if TYPE_CHECKING:  # pragma: no cover
    from .construct import SamplingSet

TIGHT_TOL = 1e-10
# Truncation allowance of the Monte-Carlo sandwich at 200 periods.
MC_TAIL_EPS = 0.05


@dataclass(frozen=True)
class BoundReport:
    """Certified lower/upper bounds with exact densities.

    For sampling reports, landau_floor is the spectrum measure n/m and any
    positive lower bound forces density >= landau_floor.  For Riesz reports
    the same field holds the measure of the carrier set, and a positive lower
    bound forces density <= landau_floor instead (full column rank).
    """

    lower: float
    upper: float
    density: Fraction
    landau_floor: Fraction
    tight: bool

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "density": str(self.density),
            "landau_floor": str(self.landau_floor),
            "tight": self.tight,
        }


def sampling_bounds(g: GridSpectrum, lam: "SamplingSet") -> BoundReport:
    """Exact frame bounds of the periodic set lam for the spectrum g.

    lower/upper are the extreme eigenvalues of gram(F[J rows, I cols]) / m.
    A residue set smaller than the number of cells is rank-deficient and
    yields lower = 0.
    """
    if lam.m != g.m:
        raise PeriodMismatch(f"set period {lam.m} != spectrum order {g.m}")
    f = dft_submatrix(g.m, lam.residues, g.cells)
    spec = hermitian_eig(gram(f))
    lower = max(spec.lam_min / g.m, 0.0)
    upper = spec.lam_max / g.m
    return BoundReport(
        lower=lower,
        upper=upper,
        density=Fraction(len(lam.residues), lam.m),
        landau_floor=Fraction(g.n, g.m),
        tight=bool(abs(upper - lower) <= TIGHT_TOL),
    )


def riesz_bounds(omega: GridSpectrum, gamma: "SamplingSet") -> BoundReport:
    """Exact Riesz bounds of the periodic exponential system gamma over omega.

    Bounds are the extreme eigenvalues of the |J| x |J| Gram G of the columns
    of (1/sqrt(m)) F[omega cells, J]; the lower bound is positive exactly
    when that submatrix has full column rank.

    The decomposed matrix is the smaller side.  With c = m - |omega| cells
    outside omega and 0 < c < |J|, the columns F[:, J]/sqrt(m) of the
    unitary normalized DFT are orthonormal, so G = I - h* h with
    h = F[cells outside omega, J]/sqrt(m).  The spectrum of G is then
    1 - lambda(h h*), from one c x c hermitian_eig, plus |J| - c eigenvalues
    exactly 1: lower = 1 - lambda_max(h h*) and upper = 1.  Otherwise G
    itself is decomposed.
    """
    if gamma.m != omega.m:
        raise PeriodMismatch(f"set period {gamma.m} != spectrum order {omega.m}")
    m = omega.m
    if 0 < m - omega.n < len(gamma.residues):
        h = dft_submatrix(m, complement(omega).cells, gamma.residues) / math.sqrt(m)
        lower, upper = 1.0 - hermitian_eig(gram(h.conj().T)).lam_max, 1.0
    else:
        f = dft_submatrix(m, omega.cells, gamma.residues) / math.sqrt(m)
        spec = hermitian_eig(gram(f))
        lower, upper = spec.lam_min, spec.lam_max
    lower = max(lower, 0.0)
    return BoundReport(
        lower=lower,
        upper=upper,
        density=Fraction(len(gamma.residues), gamma.m),
        landau_floor=Fraction(omega.n, omega.m),
        tight=bool(abs(upper - lower) <= TIGHT_TOL),
    )


@dataclass(frozen=True)
class DualityReport:
    """Sampling bound B vs complement Riesz bound A.

    factor_two_pass checks the classical equivalence A/2 <= B <= 2A.
    exact_identity_pass checks the sharper discrete fact |A - B| <= 1e-9,
    which holds at the periodic grid level because complementary blocks of a
    unitary matrix share their non-unit singular values.  vacuous marks the
    full-residue case where the complement system is empty (A = +inf by
    convention).
    """

    sampling_lower: float
    riesz_lower: float
    factor_two_pass: bool
    exact_identity_pass: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "B": self.sampling_lower,
            "A": self.riesz_lower,
            "factor_two_pass": self.factor_two_pass,
            "exact_identity_pass": self.exact_identity_pass,
            "vacuous": self.vacuous,
        }


def duality_check(g: GridSpectrum, lam: "SamplingSet") -> DualityReport:
    """Compare the sampling bound of (g, lam) with the complement Riesz bound.

    The complement system is the exponentials on the unused residues over the
    complementary cell union.  Requires a proper spectrum (some cell free);
    a full residue set is reported as vacuous with A = +inf.
    """
    from .construct import SamplingSet  # deferred to avoid an import cycle

    if lam.m != g.m:
        raise PeriodMismatch(f"set period {lam.m} != spectrum order {g.m}")
    b = sampling_bounds(g, lam).lower
    used = set(lam.residues)
    rest = tuple(r for r in range(lam.m) if r not in used)
    if not rest:
        return DualityReport(b, math.inf, True, True, vacuous=True)
    a = riesz_bounds(complement(g), SamplingSet(lam.m, rest, "riesz")).lower
    factor_two = (a / 2.0 <= b + 1e-12) and (b <= 2.0 * a + 1e-12)
    return DualityReport(
        sampling_lower=b,
        riesz_lower=a,
        factor_two_pass=bool(factor_two),
        exact_identity_pass=bool(abs(a - b) <= 1e-9),
        vacuous=False,
    )


def gram_quadrature_oracle(omega: IntervalSet, frequencies: Iterable[int]) -> np.ndarray:
    """Gram matrix of integer exponentials over an interval union by quadrature.

    Entry (p, q) is (1/2pi) * integral over omega of exp(i*(f_p - f_q)*t) dt,
    evaluated in closed form per interval.  Independent of the DFT-submatrix
    route, which makes it the cross-check oracle for riesz_bounds: smallest
    eigenvalues of growing finite sections of a periodic system decrease
    monotonically to the certified bound.
    """
    freqs = np.asarray(list(frequencies), dtype=np.int64)
    if freqs.size == 0:
        raise ValueError("frequency list is empty")
    if np.unique(freqs).size != freqs.size:
        raise ValueError("duplicate frequencies")
    if freqs.size > 2000:
        raise ValueError("more than 2000 frequencies")
    diff = freqs[:, None] - freqs[None, :]
    kd = diff.astype(np.float64)
    safe = np.where(diff == 0, 1.0, kd)
    g = np.zeros(diff.shape, dtype=np.complex128)
    for lo, hi in omega.intervals:
        osc = (np.exp(1j * safe * hi) - np.exp(1j * safe * lo)) / (2j * np.pi * safe)
        g += np.where(diff == 0, (hi - lo) / TWO_PI, osc)
    return 0.5 * (g + g.conj().T)


# Raised-cosine spectral window on the base cell [0, 2pi/m]: C^1 on the line,
# so the time-domain signal decays cubically and truncated sample sums
# converge fast.
def _window_transform(xs: np.ndarray, m: int) -> np.ndarray:
    """Integral of (1/2)(1 - cos(m t)) exp(i x t) over the base cell."""
    cell = TWO_PI / m

    def primitive(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        small = np.abs(y) < 1e-6
        ysafe = np.where(small, 1.0, y)
        exact = (np.exp(1j * ysafe * cell) - 1.0) / (1j * ysafe)
        yl = y * cell
        taylor = cell * (1.0 + 1j * yl / 2.0 - yl**2 / 6.0)
        return np.where(small, taylor, exact)

    return (
        0.5 * primitive(xs)
        - 0.25 * primitive(xs + m)
        - 0.25 * primitive(xs - m)
    )


@dataclass(frozen=True)
class TestSignal:
    """Band-limited signal with raised-cosine cell profiles.

    The transform is sum_r c_r * H(t - 2pi r/m) over the cells r of the
    spectrum, with H the raised-cosine window on the base cell, so the
    transform is supported exactly on the spectrum and the squared L2 norm
    has the closed form (3 pi^2 / 2m) * sum |c_r|^2.
    """

    spectrum: GridSpectrum
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.spectrum.n,):
            raise ValueError("need one amplitude per spectrum cell")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm_squared(self) -> float:
        return 1.5 * math.pi**2 / self.spectrum.m * float(np.sum(np.abs(self.amplitudes) ** 2))

    def transform(self, ts: np.ndarray) -> np.ndarray:
        """Spectral density at points ts in [0, 2pi] (zero off the spectrum)."""
        ts = np.asarray(ts, dtype=np.float64)
        m = self.spectrum.m
        cell = TWO_PI / m
        out = np.zeros(ts.shape, dtype=np.complex128)
        for c, r in zip(self.amplitudes, self.spectrum.cells):
            local = ts - r * cell
            mask = (local >= 0.0) & (local <= cell)
            out += np.where(mask, c * 0.5 * (1.0 - np.cos(m * local)), 0.0)
        return out

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Time-domain values via the closed-form window transform."""
        xs = np.asarray(xs, dtype=np.float64)
        m = self.spectrum.m
        cells = np.asarray(self.spectrum.cells, dtype=np.float64)
        carriers = np.exp(2j * np.pi * np.outer(xs, cells) / m) @ self.amplitudes
        return _window_transform(xs, m) * carriers


def montecarlo_timedomain(
    g: GridSpectrum,
    lam: "SamplingSet",
    seed: int,
    periods: int = 200,
    signals: int = 20,
) -> dict:
    """Sample-sum to norm ratios of seeded random signals on lam.

    Draws `signals` test signals with independent complex normal cell
    amplitudes, evaluates them on the periodic set intersected with
    [-periods*m, periods*m], and returns the extreme ratios
    sum |f(lambda)|^2 / ||f||^2 together with the certified bounds and a
    sandwich flag at the 5 percent truncation allowance.
    """
    if periods < 10:
        raise ValueError("need at least 10 periods")
    if signals < 1:
        raise ValueError("need at least one signal")
    report = sampling_bounds(g, lam)
    m = g.m
    ks = np.arange(-periods, periods + 1)
    points = (np.asarray(lam.residues)[:, None] + m * ks[None, :]).reshape(-1)
    points = points[np.abs(points) <= periods * m].astype(np.float64)

    ratios = []
    for sig in range(signals):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, sig)))
        amps = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        signal = TestSignal(g, amps)
        values = signal.evaluate(points)
        ratios.append(float(np.sum(np.abs(values) ** 2)) / signal.norm_squared())
    ratio_min, ratio_max = min(ratios), max(ratios)
    sandwich = (
        ratio_min >= report.lower * (1.0 - MC_TAIL_EPS)
        and ratio_max <= report.upper * (1.0 + MC_TAIL_EPS)
    )
    return {
        "K": periods,
        "signals": signals,
        "ratio_min": ratio_min,
        "ratio_max": ratio_max,
        "lower": report.lower,
        "upper": report.upper,
        "pass": bool(sandwich),
    }


def densities(lam: "SamplingSet") -> dict:
    """Lower, upper and symmetric counting densities; all |J|/m exactly."""
    value = Fraction(len(lam.residues), lam.m)
    return {"d_minus": value, "d_plus": value, "d_sharp": value}


def periodic_section(lam: "SamplingSet", count: int) -> list[int]:
    """The count members of the periodic set nearest zero, deterministically.

    Sections taken as prefixes of this enumeration are nested, so their Gram
    matrices interlace and the smallest eigenvalue is non-increasing in the
    section size.
    """
    if count < 1:
        raise ValueError("count must be positive")
    members: list[int] = []
    shell = 0
    while len(members) < count:
        for k in ((0,) if shell == 0 else (shell, -shell)):
            for j in lam.residues:
                members.append(j + k * lam.m)
        shell += 1
    members = sorted(set(members), key=lambda x: (abs(x), x))
    return members[:count]
