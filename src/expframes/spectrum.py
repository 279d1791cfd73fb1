"""Spectra on the circle, and periodic sets J + mZ given by their residues.

A grid spectrum of order m is a union of cells [2*pi*r/m, 2*pi*(r+1)/m);
its cells, like the residues J, form a subset of Z_m checked by one rule.
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


def _integer(x, error: type[Exception]) -> int:
    """x as an int: integers (numpy's included) only, never bools or floats."""
    if type(x) is int:  # the common case, ahead of the slower ABC test; bool is not int
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise error(f"{x!r} is not an integer")
    return int(x)


def _grid_order(m, error: type[Exception] = SpectrumFormatError) -> int:
    """A grid order m as an int; error unless it is an integer of at least 1."""
    m = _integer(m, error)
    if m < 1:
        raise error("m must be positive")
    return m


def _subset(m, residues, error: type[Exception]) -> tuple[int, tuple[int, ...]]:
    """(m, sorted residues) as ints; error if they break GridSpectrum's rule."""
    m = _grid_order(m, error)
    res = tuple(sorted(_integer(r, error) for r in residues))
    if not res:
        raise error("residue set must be nonempty")
    if len(set(res)) != len(res):
        raise error("duplicate residues")
    if res[0] < 0 or res[-1] >= m:
        raise error("residue out of range [0, m-1]")
    return m, res


def complement_residues(m: int, residues) -> tuple[int, ...]:
    """Z_m minus residues, ascending; empty when residues cover Z_m."""
    used = set(residues)
    return tuple(r for r in range(m) if r not in used)


@dataclass(frozen=True)
class GridSpectrum:
    """Union of grid cells of order m, stored as sorted residues.

    m and the cells must be integers (numpy's included), not bools or
    floats, with m >= 1 and the cells distinct and in [0, m): anything
    else raises SpectrumFormatError, never truncated.
    """

    m: int
    cells: tuple[int, ...]

    def __post_init__(self):
        m, cells = _subset(self.m, self.cells, SpectrumFormatError)
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


@dataclass(frozen=True)
class SamplingSet:
    """Periodic integer set J + mZ given by residues J of period m.

    All three densities (lower, upper, symmetric counting) equal |J|/m.
    m and the residues obey GridSpectrum's rule for m and its cells;
    anything else raises ValueError, never truncated.
    """

    m: int
    residues: tuple[int, ...]

    def __post_init__(self):
        m, res = _subset(self.m, self.residues, ValueError)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "residues", res)


def measure(g: GridSpectrum) -> Fraction:
    """Exact normalized measure n/m of a grid spectrum."""
    return Fraction(g.n, g.m)


def complement(g: GridSpectrum) -> GridSpectrum:
    """Cell set of the complementary spectrum; measures add to 1."""
    rest = complement_residues(g.m, g.cells)
    if not rest:
        raise EmptyComplement(f"spectrum already covers all {g.m} cells")
    return GridSpectrum(g.m, rest)


def _cell_bounds(m: int, r: int) -> tuple[float, float]:
    return TWO_PI * r / m, TWO_PI * (r + 1) / m


def quantize_inner(s: IntervalSet, m: int) -> GridSpectrum:
    """Residues of all order-m cells fully contained in s (inner approximation).

    Containment is closure-inclusive within CELL_TOL, so dyadic interval
    endpoints that coincide with cell boundaries count as inside.  m obeys
    GridSpectrum's rule for its order; anything else raises
    SpectrumFormatError.
    """
    m = _grid_order(m)
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
    m obeys GridSpectrum's rule for its order, as in quantize_inner.
    """
    m = _grid_order(m)
    hit = set()
    for lo, hi in s.intervals:
        thresh = min(CELL_TOL, 0.25 * (hi - lo))
        for r in range(m):
            a, b = _cell_bounds(m, r)
            if min(b, hi) - max(a, lo) > thresh:
                hit.add(r)
    return GridSpectrum(m, tuple(sorted(hit)))


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
        return GridSpectrum(obj["m"], tuple(_list(obj["cells"], "cells")))
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
