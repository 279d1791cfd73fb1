"""Spectra on the circle: finite interval unions and grid-cell unions.

A grid spectrum of order m is a union of cells [2*pi*r/m, 2*pi*(r+1)/m).
Interval sets quantize to grid spectra from the inside (cells fully
contained) or the outside (cells meeting the set in positive measure).
All values are immutable; operations are pure.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyComplement, NoCellFits, SpectrumFormatError

TWO_PI = 2.0 * math.pi

# Endpoint tolerance (radians) for cell containment/intersection tests, so
# irrational interval endpoints do not flicker between inner and outer under
# roundoff.
CELL_TOL = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted half-open intervals [lo, hi) inside [0, 2*pi]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not ivs:
            raise SpectrumFormatError("interval set must be nonempty")
        ivs = tuple(sorted(ivs))
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SpectrumFormatError("interval endpoints must be finite")
            if not (0.0 <= lo < hi <= TWO_PI + CELL_TOL):
                raise SpectrumFormatError(
                    f"interval [{lo}, {hi}] out of range or empty"
                )
        for (_, hi_prev), (lo_next, _) in zip(ivs, ivs[1:]):
            if lo_next < hi_prev - CELL_TOL:
                raise SpectrumFormatError("intervals overlap")
        object.__setattr__(self, "intervals", ivs)

    def measure(self) -> float:
        """Normalized Lebesgue measure, in (0, 1]."""
        return sum(hi - lo for lo, hi in self.intervals) / TWO_PI

    def contains(self, x: float) -> bool:
        """Membership in the closure-tolerant sense of CELL_TOL."""
        return any(lo - CELL_TOL <= x < hi + CELL_TOL for lo, hi in self.intervals)


@dataclass(frozen=True)
class GridSpectrum:
    """Union of grid cells of order m, stored as sorted residues."""

    m: int
    cells: tuple[int, ...]

    def __post_init__(self):
        m = int(self.m)
        if m < 1:
            raise SpectrumFormatError("grid order m must be positive")
        cells = tuple(sorted(int(r) for r in self.cells))
        if not cells:
            raise SpectrumFormatError("grid spectrum must have at least one cell")
        if len(set(cells)) != len(cells):
            raise SpectrumFormatError("duplicate cell residues")
        if cells[0] < 0 or cells[-1] >= m:
            raise SpectrumFormatError("cell residue out of range [0, m-1]")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return len(self.cells)

    def to_interval_set(self) -> IntervalSet:
        """The exact cell union as an interval set (adjacent cells merged)."""
        merged: list[list[float]] = []
        for r in self.cells:
            lo, hi = TWO_PI * r / self.m, TWO_PI * (r + 1) / self.m
            if merged and abs(merged[-1][1] - lo) < CELL_TOL:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        return IntervalSet(tuple((lo, hi) for lo, hi in merged))


def measure(g: GridSpectrum) -> Fraction:
    """Exact normalized measure n/m of a grid spectrum."""
    return Fraction(g.n, g.m)


def complement(g: GridSpectrum) -> GridSpectrum:
    """Cell set of the complementary spectrum; measures add to 1."""
    used = set(g.cells)
    rest = tuple(r for r in range(g.m) if r not in used)
    if not rest:
        raise EmptyComplement(f"spectrum already covers all {g.m} cells")
    return GridSpectrum(g.m, rest)


def _cell_bounds(m: int, r: int) -> tuple[float, float]:
    return TWO_PI * r / m, TWO_PI * (r + 1) / m


def quantize_inner(s: IntervalSet, m: int) -> GridSpectrum:
    """Residues of all order-m cells fully contained in s (inner approximation).

    Containment is closure-inclusive within CELL_TOL, so dyadic interval
    endpoints that coincide with cell boundaries count as inside.
    """
    if m < 1:
        raise SpectrumFormatError("grid order m must be positive")
    inside = []
    for r in range(m):
        a, b = _cell_bounds(m, r)
        if any(lo <= a + CELL_TOL and b <= hi + CELL_TOL for lo, hi in s.intervals):
            inside.append(r)
    if not inside:
        raise NoCellFits(f"no cell of order {m} is contained in the interval set")
    return GridSpectrum(m, tuple(inside))


def quantize_outer(s: IntervalSet, m: int) -> GridSpectrum:
    """Residues of all order-m cells meeting s in positive measure (cover).

    The intersection threshold is CELL_TOL, shrunk for intervals close to
    the tolerance scale so every interval contributes at least one cell.
    """
    if m < 1:
        raise SpectrumFormatError("grid order m must be positive")
    hit = set()
    for lo, hi in s.intervals:
        thresh = min(CELL_TOL, 0.25 * (hi - lo))
        for r in range(m):
            a, b = _cell_bounds(m, r)
            if min(b, hi) - max(a, lo) > thresh:
                hit.add(r)
    return GridSpectrum(m, tuple(sorted(hit)))


def _integer(x) -> int:
    """x as an int; anything but a non-bool integer is refused, not converted."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise SpectrumFormatError(f"{x!r} is not an integer")
    return int(x)


def _endpoint(x) -> float:
    """x as a float; anything but a non-bool real number is refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise SpectrumFormatError(f"interval endpoint {x!r} is not a number")
    return float(x)


def _list(x, what: str) -> list:
    if not isinstance(x, (list, tuple)):
        raise SpectrumFormatError(f"{what} must be a list, got {type(x).__name__}")
    return list(x)


def parse_spectrum(text_or_obj) -> GridSpectrum | IntervalSet:
    """Parse a JSON spectrum descriptor.

    Accepts {"m": int, "cells": [ints]} for a grid spectrum or
    {"intervals": [[lo, hi], ...]} with radians in [0, 2*pi].  cells,
    intervals and each [lo, hi] pair must be lists; m and the cells must be
    integers and the endpoints numbers, booleans excluded.  Anything else
    raises SpectrumFormatError.
    """
    obj = text_or_obj
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise SpectrumFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpectrumFormatError("spectrum descriptor must be a JSON object")
    if "m" in obj and "cells" in obj:
        cells = _list(obj["cells"], "cells")
        return GridSpectrum(_integer(obj["m"]), tuple(_integer(r) for r in cells))
    if "intervals" in obj:
        pairs = []
        for item in _list(obj["intervals"], "intervals"):
            pair = _list(item, "each interval")
            if len(pair) != 2:
                raise SpectrumFormatError("intervals must be [lo, hi] pairs")
            pairs.append((_endpoint(pair[0]), _endpoint(pair[1])))
        return IntervalSet(tuple(pairs))
    raise SpectrumFormatError(
        'descriptor needs either {"m", "cells"} or {"intervals"}'
    )
