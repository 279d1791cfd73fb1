import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expframes as ef
from expframes.errors import EmptyComplement, NoCellFits, SpectrumFormatError

TWO_PI = 2.0 * math.pi


def scan_contained(s: ef.IntervalSet, m: int, r: int, samples: int = 400) -> bool:
    """Independent containment oracle: dense point scan of the cell."""
    a, b = TWO_PI * r / m, TWO_PI * (r + 1) / m
    return all(s.contains(a + (b - a) * t / samples) for t in range(samples + 1))


class TestIntervalSet:
    def test_sorting_and_measure(self):
        s = ef.IntervalSet(((2.0, 2.5), (0.3, 0.9)))
        assert s.intervals == ((0.3, 0.9), (2.0, 2.5))
        assert math.isclose(s.measure(), 1.1 / TWO_PI)

    def test_rejects_overlap(self):
        with pytest.raises(SpectrumFormatError):
            ef.IntervalSet(((0.0, 1.0), (0.5, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(SpectrumFormatError):
            ef.IntervalSet(((-0.1, 1.0),))
        with pytest.raises(SpectrumFormatError):
            ef.IntervalSet(((0.0, 7.0),))

    def test_rejects_empty(self):
        with pytest.raises(SpectrumFormatError):
            ef.IntervalSet(())
        with pytest.raises(SpectrumFormatError):
            ef.IntervalSet(((1.0, 1.0),))

    def test_touching_intervals_allowed(self):
        s = ef.IntervalSet(((0.0, 1.0), (1.0, 2.0)))
        assert math.isclose(s.measure(), 2.0 / TWO_PI)


class TestGridSpectrum:
    def test_validation(self):
        with pytest.raises(SpectrumFormatError):
            ef.GridSpectrum(4, ())
        with pytest.raises(SpectrumFormatError):
            ef.GridSpectrum(4, (0, 0))
        with pytest.raises(SpectrumFormatError):
            ef.GridSpectrum(4, (4,))

    def test_to_interval_set_merges_adjacent(self):
        s = ef.GridSpectrum(4, (0, 1)).to_interval_set()
        assert len(s.intervals) == 1
        lo, hi = s.intervals[0]
        assert math.isclose(lo, 0.0, abs_tol=1e-15) and math.isclose(hi, math.pi)


class TestQuantizeInner:
    def test_full_circle(self):
        s = ef.IntervalSet(((0.0, TWO_PI),))
        assert ef.quantize_inner(s, 4).cells == (0, 1, 2, 3)

    def test_half_circle(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        assert ef.quantize_inner(s, 4).cells == (0, 1)

    def test_two_interval_scan_oracle(self):
        s = ef.IntervalSet(((0.3, 0.9), (2.0, 2.5)))
        g = ef.quantize_inner(s, 64)
        expected = tuple(r for r in range(64) if scan_contained(s, 64, r))
        assert g.cells == expected
        assert abs(g.n / 64 - s.measure()) <= 4.0 / 64

    def test_no_cell_fits(self):
        s = ef.IntervalSet(((0.1, 0.2),))
        with pytest.raises(NoCellFits):
            ef.quantize_inner(s, 4)


class TestQuantizeOuter:
    def test_half_circle_exact(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        assert ef.quantize_outer(s, 4).cells == (0, 1)

    def test_single_cell_hit(self):
        s = ef.IntervalSet(((0.1, 0.2),))
        assert ef.quantize_outer(s, 4).cells == (0,)

    def test_covers_and_dominates_inner(self):
        s = ef.IntervalSet(((0.3, 0.9), (2.0, 2.5)))
        inner = ef.quantize_inner(s, 16)
        outer = ef.quantize_outer(s, 16)
        assert set(inner.cells) <= set(outer.cells)
        # cover: every point of s lies in some outer cell
        for lo, hi in s.intervals:
            for t in range(101):
                x = lo + (hi - lo) * t / 100
                r = min(int(x / (TWO_PI / 16)), 15)
                assert r in outer.cells


class TestComplementAndMeasure:
    def test_examples(self):
        assert ef.complement(ef.GridSpectrum(4, (0, 1))).cells == (2, 3)
        assert ef.complement(ef.GridSpectrum(2, (0,))).cells == (1,)

    def test_involution(self):
        g = ef.GridSpectrum(16, (1, 5, 6))
        assert ef.complement(ef.complement(g)) == g

    def test_empty_complement(self):
        with pytest.raises(EmptyComplement):
            ef.complement(ef.GridSpectrum(7, tuple(range(7))))

    def test_measure_examples(self):
        assert ef.measure(ef.GridSpectrum(4, (0,))) == Fraction(1, 4)
        assert ef.measure(ef.GridSpectrum(7, tuple(range(7)))) == 1
        assert ef.measure(ef.GridSpectrum(64, tuple(range(0, 64, 8)))) == Fraction(1, 8)

    def test_measures_sum_to_one(self):
        g = ef.GridSpectrum(12, (0, 3, 7))
        assert ef.measure(g) + ef.measure(ef.complement(g)) == 1


@st.composite
def interval_sets(draw):
    # endpoints on a milliradian grid keep every interval non-degenerate
    k = draw(st.integers(min_value=1, max_value=3))
    ticks = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=6282),
                min_size=2 * k, max_size=2 * k, unique=True,
            )
        )
    )
    pairs = tuple((ticks[2 * i] / 1000.0, ticks[2 * i + 1] / 1000.0) for i in range(k))
    return ef.IntervalSet(pairs)


@settings(max_examples=60, derandomize=True)
@given(interval_sets(), st.integers(min_value=1, max_value=48))
def test_inner_subset_of_outer(s, m):
    try:
        inner = set(ef.quantize_inner(s, m).cells)
    except NoCellFits:
        inner = set()
    outer = set(ef.quantize_outer(s, m).cells)
    assert inner <= outer


@settings(max_examples=40, derandomize=True)
@given(interval_sets())
def test_inner_doubling_monotone_and_convergent(s):
    prev = 0.0
    for m in (8, 16, 32, 64, 128):
        try:
            g = ef.quantize_inner(s, m)
        except NoCellFits:
            continue
        meas = g.n / m
        assert meas >= prev - 1e-15
        assert s.measure() - meas <= len(s.intervals) * 2.0 / m + 1e-12
        prev = meas


class TestParse:
    def test_grid_form(self):
        g = ef.parse_spectrum('{"m": 4, "cells": [0, 2]}')
        assert isinstance(g, ef.GridSpectrum) and g.cells == (0, 2)

    def test_interval_form(self):
        s = ef.parse_spectrum('{"intervals": [[0.3, 0.9], [2.0, 2.5]]}')
        assert isinstance(s, ef.IntervalSet) and len(s.intervals) == 2

    def test_integer_endpoints_and_python_objects(self):
        s = ef.parse_spectrum('{"intervals": [[0, 1], [2, 2.5]]}')
        assert s.intervals == ((0.0, 1.0), (2.0, 2.5))
        g = ef.parse_spectrum({"m": 8, "cells": (1, 3)})
        assert g == ef.GridSpectrum(8, (1, 3))

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"intervals": [[0.0, 1.0], [0.5, 2.0]]}',
            '{"intervals": [[0.0, 9.0]]}',
            '{"m": 4}',
            '{"m": 0, "cells": [0]}',
            '{"intervals": [[0.3, null]]}',
            '{"intervals": [["a", 1.0]]}',
            '{"m": 4.7, "cells": [0]}',
            '{"m": 4, "cells": [1.9]}',
            '{"m": true, "cells": [0]}',
            '{"m": Infinity, "cells": [0]}',
            '{"m": 4, "cells": "013"}',
            '{"m": 4, "cells": {"0": 1}}',
            '{"m": 4, "cells": 0}',
            '{"m": "8", "cells": [0]}',
            '{"m": 8.0, "cells": [0]}',
            '{"m": 8, "cells": ["1"]}',
            '{"m": 8, "cells": [false]}',
            '{"intervals": "[[0.3, 0.9]]"}',
            '{"intervals": {"0": [0.3, 0.9]}}',
            '{"intervals": [[false, true]]}',
            '{"intervals": [["0.3", "0.9"]]}',
            '{"intervals": ["ab"]}',
            '{"intervals": [{"0": 0.3, "1": 0.9}]}',
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(SpectrumFormatError):
            ef.parse_spectrum(text)
