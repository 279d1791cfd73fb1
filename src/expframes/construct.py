"""Assembly of certified periodic sets from the selection engines.

Given a grid spectrum, the Fourier rows (1/sqrt(m)) * (e^{2i pi j r / m})
over the spectrum cells form an equal-norm Parseval system; running a
selection engine on it and periodizing the chosen residues J to J + mZ
yields a sampling set (two-sided engine, unweighted certificate), a Bessel
set (upper engine), or a Riesz set (restricted-invertibility engine).  The
exhaustion pipeline applies the same construction stage by stage to inner
grid quantizations of an arbitrary interval union.  Each builder certifies
its set once, through expframes.verify, which imports nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import verify
from .errors import CertificateFailed, SpectrumFormatError
from .linalg import EIG_RESIDUAL_RTOL
from .selection import (
    bss_unweighted,
    fourier_system,
    lower_certificate_constant,
    riesz_floor_constant,
    rit_select,
    safe_ceil,
    upper_select,
)
from .spectrum import (
    GridSpectrum,
    IntervalSet,
    SamplingSet,
    _grid_order,
    _integer,
    complement,
    complement_residues,
    measure,
    quantize_inner,
)

CSV_COLUMNS = ("m", "n", "J", "density", "landau_floor", "lower", "upper", "C_target", "pass")


@dataclass(frozen=True)
class ConstructionReport:
    """A constructed periodic set with the bounds verify certified for it.

    kind names the builder: "sampling", "bessel" or "riesz".  bounds is
    the builder's one verify report.  constant_check holds the
    certificate target C(d) * |S| for sampling and riesz kinds, and the
    achieved empirical ratio upper/|S| for bessel kind (no target exists
    there).  A builder raises CertificateFailed rather than report a set
    that misses its target (bessel sets have none), so "pass" is always true.
    The engine's SelectionResult is not kept: sampling_set holds its
    residues, and no caller reads its barrier log.
    """

    kind: str
    spectrum: GridSpectrum
    sampling_set: SamplingSet
    param: float
    bounds: verify.BoundReport
    constant_check: float

    def to_dict(self) -> dict:
        return {
            "m": self.spectrum.m,
            "n": self.spectrum.n,
            "cells": list(self.spectrum.cells),
            "residues": list(self.sampling_set.residues),
            "kind": self.kind,
            "param": self.param,
            "lower": self.bounds.lower,
            "upper": self.bounds.upper,
            "density": str(self.bounds.density),
            "landau_floor": str(self.bounds.landau_floor),
            "constant_check": self.constant_check,
            "pass": True,
        }

    def csv_row(self) -> list:
        return [
            self.spectrum.m,
            self.spectrum.n,
            len(self.sampling_set.residues),
            float(self.bounds.density),
            float(self.bounds.landau_floor),
            self.bounds.lower,
            self.bounds.upper,
            self.constant_check,
            True,
        ]


def build_sampling(g: GridSpectrum, d: float) -> ConstructionReport:
    """Certified sampling set for the grid spectrum g at oversampling 1+d.

    Selects residues with the unweighted two-sided engine and certifies the
    frame bounds once, through verify.sampling_bounds.  Guarantees
    |J| <= ceil((1+d) n), lower bound >= C(d) * n/m with
    C(d) = lower_certificate_constant(d).  A target above 1 - EIG_RESIDUAL_RTOL
    (a full spectrum at d >~ 1.6e21) is refused with ValueError.
    """
    result = bss_unweighted(fourier_system(g), d)
    target = lower_certificate_constant(d) * g.n / g.m
    # No set's lower bound exceeds 1 (every J has Gram <= I), and verify
    # vouches for its eigenvalues only to EIG_RESIDUAL_RTOL.
    if target > 1.0 - EIG_RESIDUAL_RTOL:
        raise ValueError(f"target lower bound {target!r} exceeds 1 - {EIG_RESIDUAL_RTOL:g}")
    lam = SamplingSet(g.m, result.indices)
    cap = safe_ceil((1.0 + d) * g.n)
    if len(lam.residues) > cap:
        raise CertificateFailed(f"|J|={len(lam.residues)} exceeds ceil((1+d)n)={cap}")
    report = verify.sampling_bounds(g, lam)
    if report.lower < target:
        raise CertificateFailed(
            f"recomputed lower bound {report.lower:.6g} below target {target:.6g}"
        )
    return ConstructionReport(
        kind="sampling",
        spectrum=g,
        sampling_set=lam,
        param=d,
        bounds=report,
        constant_check=target,
    )


def build_bessel(g: GridSpectrum, k: Optional[int] = None) -> ConstructionReport:
    """Bessel set of exactly k residues (default n+1, the minimal excess).

    The upper-barrier engine keeps the certified top bound small; the report
    carries the achieved ratio upper/|S| in constant_check since no a priori
    constant is certified.  k must be an integer (numpy's included, not a
    bool or float), else ValueError.
    """
    if k is None:
        k = min(g.n + 1, g.m)
    k = _integer(k, ValueError)
    if k < g.n:
        raise ValueError(f"k={k} below the cell count n={g.n}")
    result = upper_select(fourier_system(g), k)
    lam = SamplingSet(g.m, result.indices)
    report = verify.sampling_bounds(g, lam)
    ratio = report.upper / float(measure(g))
    return ConstructionReport(
        kind="bessel",
        spectrum=g,
        sampling_set=lam,
        param=float(k),
        bounds=report,
        constant_check=ratio,
    )


def build_riesz(omega: GridSpectrum, d: float) -> ConstructionReport:
    """Certified Riesz set over the cell union omega, keeping (1-d) density.

    Selects residues with the restricted-invertibility engine and certifies
    the Riesz bounds of the exponential system over omega once, through
    verify.riesz_bounds.  Guarantees
    |J| >= ceil((1-d) n) and lower bound >= (1-sqrt(1-d))^2 * n/m.
    """
    result = rit_select(fourier_system(omega), d)
    gamma = SamplingSet(omega.m, result.indices)
    size_floor = safe_ceil((1.0 - d) * omega.n)
    if len(gamma.residues) < size_floor:
        raise CertificateFailed(
            f"|J|={len(gamma.residues)} below ceil((1-d)n)={size_floor}"
        )
    report = verify.riesz_bounds(omega, gamma)
    target = riesz_floor_constant(d) * omega.n / omega.m
    if report.lower < target:
        raise CertificateFailed(
            f"recomputed Riesz bound {report.lower:.6g} below target {target:.6g}"
        )
    return ConstructionReport(
        kind="riesz",
        spectrum=omega,
        sampling_set=gamma,
        param=d,
        bounds=report,
        constant_check=target,
    )


@dataclass(frozen=True)
class ExhaustionStage:
    """One stage of the finite exhaustion pipeline.

    Holds the construction report of the inner quantization at this grid
    order (report.spectrum) and the Riesz bounds of the complement
    exponential system, the residues outside the set over the cells outside
    the spectrum (None when either complement is empty).
    """

    report: ConstructionReport
    complement_riesz: Optional[verify.BoundReport]

    def to_dict(self) -> dict:
        lam = self.report.sampling_set
        return {
            "stage_m": self.report.spectrum.m,
            "report": self.report.to_dict(),
            "complement_residues": list(complement_residues(lam.m, lam.residues)),
            "complement_riesz": (
                None if self.complement_riesz is None else self.complement_riesz.to_dict()
            ),
        }

    def csv_row(self) -> list:
        return self.report.csv_row()


def exhaust_general(
    s: IntervalSet,
    d: float,
    schedule: Sequence[int],
    mode: str = "sampling",
) -> list[ExhaustionStage]:
    """Stagewise construction over inner grid quantizations of s.

    For each grid order in the strictly increasing schedule, quantize s from
    the inside and run build_sampling (or build_bessel with k = n+1 in
    bessel mode).  Every order obeys GridSpectrum's rule for m (an integer,
    numpy's included, of at least 1; never a bool or a float), checked
    before any stage is built; anything else raises SpectrumFormatError.
    Along a doubling schedule the quantized measures are non-decreasing.
    No limit object is extracted; the stage list is the output.
    """
    if mode not in ("sampling", "bessel"):
        raise ValueError("mode must be 'sampling' or 'bessel'")
    orders = [_grid_order(m) for m in schedule]
    if not orders:
        raise SpectrumFormatError("schedule must be nonempty")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise SpectrumFormatError("schedule must be strictly increasing")

    stages = []
    for m_k in orders:
        g = quantize_inner(s, m_k)
        if mode == "sampling":
            report = build_sampling(g, d)
        else:
            report = build_bessel(g)
        rest = complement_residues(m_k, report.sampling_set.residues)
        comp_riesz = None
        if rest and g.n < m_k:
            comp_riesz = verify.riesz_bounds(complement(g), SamplingSet(m_k, rest))
        stages.append(ExhaustionStage(report, comp_riesz))
    return stages
