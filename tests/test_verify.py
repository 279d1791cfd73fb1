import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expframes as ef
from expframes import verify
from expframes.errors import PeriodMismatch

TWO_PI = 2.0 * math.pi


def periodic_section(lam, count):
    """The count members of the periodic set lam nearest zero, deterministically.

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


class TestSamplingBounds:
    def test_canonical_tight(self):
        rep = ef.sampling_bounds(ef.GridSpectrum(4, (0,)), ef.SamplingSet(4, (2,)))
        assert math.isclose(rep.lower, 0.25, rel_tol=1e-12)
        assert math.isclose(rep.upper, 0.25, rel_tol=1e-12)
        assert rep.tight and rep.density == Fraction(1, 4)

    def test_tight_follows_the_bounds(self):
        rep = ef.sampling_bounds(ef.GridSpectrum(4, (0,)), ef.SamplingSet(4, (2,)))
        assert rep.tight and rep.to_dict()["tight"] is True
        loose = dataclasses.replace(rep, lower=0.0)
        assert loose.tight is False and loose.to_dict()["tight"] is False

    def test_two_cell_tight_frame(self):
        # hand oracle: gram(F[{0,2}, {0,1}]) = 2 * identity
        rep = ef.sampling_bounds(ef.GridSpectrum(4, (0, 1)), ef.SamplingSet(4, (0, 2)))
        assert math.isclose(rep.lower, 0.5, rel_tol=1e-12)
        assert math.isclose(rep.upper, 0.5, rel_tol=1e-12)

    def test_rank_deficient(self):
        rep = ef.sampling_bounds(ef.GridSpectrum(4, (0, 1)), ef.SamplingSet(4, (0,)))
        assert rep.lower == 0.0
        assert rep.density < rep.landau_floor

    def test_period_mismatch(self):
        with pytest.raises(PeriodMismatch):
            ef.sampling_bounds(ef.GridSpectrum(4, (0,)), ef.SamplingSet(8, (0,)))


class TestRieszBounds:
    def test_single_cell_single_residue(self):
        rep = ef.riesz_bounds(ef.GridSpectrum(2, (1,)), ef.SamplingSet(2, (1,)))
        assert math.isclose(rep.lower, 0.5, rel_tol=1e-12)
        assert math.isclose(rep.upper, 0.5, rel_tol=1e-12)

    def test_full_orthonormal(self):
        m = 6
        rep = ef.riesz_bounds(
            ef.GridSpectrum(m, tuple(range(m))), ef.SamplingSet(m, tuple(range(m)))
        )
        assert math.isclose(rep.lower, 1.0, rel_tol=1e-10)
        assert math.isclose(rep.upper, 1.0, rel_tol=1e-10)

    def test_two_cell_column_by_hand(self):
        # column over cells {2,3} at residue 1: (e^{i pi}, e^{3 i pi/2});
        # squared norm 2, scaled by 1/m = 1/4 gives 0.5
        rep = ef.riesz_bounds(ef.GridSpectrum(4, (2, 3)), ef.SamplingSet(4, (1,)))
        assert math.isclose(rep.lower, 0.5, rel_tol=1e-12)
        assert math.isclose(rep.upper, 0.5, rel_tol=1e-12)

    def test_overfull_system_loses_lower_bound(self):
        rep = ef.riesz_bounds(ef.GridSpectrum(4, (0,)), ef.SamplingSet(4, (0, 1)))
        assert rep.lower <= 1e-12
        assert rep.density > rep.landau_floor

    @pytest.mark.parametrize(
        "m,n_omega,n_gamma",
        [(32, 24, 12), (32, 20, 12), (32, 12, 8), (16, 16, 9), (32, 28, 30), (1024, 848, 672)],
        ids=["small-side", "sides-equal", "direct", "omega-full", "rank-deficient", "m1024"],
    )
    def test_matches_direct_gram_oracle(self, monkeypatch, m, n_omega, n_gamma):
        # c = m - |omega| cells lie outside omega; the c x c side is
        # decomposed exactly when 0 < c < |gamma|
        rng = np.random.default_rng(m * n_omega + n_gamma)
        omega = ef.GridSpectrum(m, rng.choice(m, n_omega, replace=False).tolist())
        gamma = ef.SamplingSet(m, rng.choice(m, n_gamma, replace=False).tolist())
        orders = []
        original = verify.hermitian_eig

        def spy(h):
            orders.append(h.shape[0])
            return original(h)

        monkeypatch.setattr(verify, "hermitian_eig", spy)
        rep = ef.riesz_bounds(omega, gamma)
        f = ef.dft_submatrix(m, omega.cells, gamma.residues) / math.sqrt(m)
        vals = np.linalg.eigvalsh(f.conj().T @ f)
        assert abs(rep.lower - max(vals[0], 0.0)) <= 1e-12
        assert abs(rep.upper - vals[-1]) <= 1e-12
        assert rep.tight == (abs(vals[-1] - max(vals[0], 0.0)) <= verify.TIGHT_TOL)
        c = m - n_omega
        assert orders == [c if 0 < c < n_gamma else n_gamma]


class TestDuality:
    def test_two_point_hand_case(self):
        rep = ef.duality_check(ef.GridSpectrum(2, (0,)), ef.SamplingSet(2, (0,)))
        assert math.isclose(rep.sampling_lower, 0.5, rel_tol=1e-12)
        assert math.isclose(rep.riesz_lower, 0.5, rel_tol=1e-12)
        assert rep.factor_two_pass and rep.exact_identity_pass and not rep.vacuous

    def test_four_point_case(self):
        rep = ef.duality_check(ef.GridSpectrum(4, (0, 1)), ef.SamplingSet(4, (0, 2)))
        assert math.isclose(rep.sampling_lower, 0.5, rel_tol=1e-12)
        assert math.isclose(rep.riesz_lower, 0.5, rel_tol=1e-12)
        assert rep.exact_identity_pass

    def test_vacuous_full_residues(self):
        rep = ef.duality_check(ef.GridSpectrum(4, (0, 1)), ef.SamplingSet(4, (0, 1, 2, 3)))
        assert rep.vacuous and rep.riesz_lower == math.inf


@settings(max_examples=40, derandomize=True)
@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=0, max_value=10**6),
)
def test_duality_exact_identity_random(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m))
    j_size = int(rng.integers(n, m))
    cells = tuple(sorted(rng.choice(m, size=n, replace=False).tolist()))
    residues = tuple(sorted(rng.choice(m, size=j_size, replace=False).tolist()))
    rep = ef.duality_check(ef.GridSpectrum(m, cells), ef.SamplingSet(m, residues))
    assert abs(rep.riesz_lower - rep.sampling_lower) <= 1e-9
    assert rep.factor_two_pass


@st.composite
def translated_sets(draw):
    """(g, J, c): m <= 64 drawn, then seeded cells, residue set and shift 0 < c < m."""
    m = draw(st.integers(min_value=2, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cells = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
    residues = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
    g, lam = ef.GridSpectrum(m, tuple(cells.tolist())), ef.SamplingSet(m, tuple(residues.tolist()))
    return g, lam, int(rng.integers(1, m))


@settings(max_examples=60, derandomize=True)
@given(translated_sets())
def test_sampling_bounds_invariant_under_translating_the_set(case):
    # J + c multiplies the column of cell r by e^{2i pi cr/m}, a unitary
    # diagonal that leaves the Gram's eigenvalues unchanged; their rounding
    # scales with the Gram's norm, the upper bound
    g, lam, c = case
    shifted = ef.SamplingSet(lam.m, tuple((j + c) % lam.m for j in lam.residues))
    a, b = ef.sampling_bounds(g, lam), ef.sampling_bounds(g, shifted)
    assert abs(a.lower - b.lower) <= 1e-12 * a.upper
    assert abs(a.upper - b.upper) <= 1e-12 * a.upper
    assert a.density == b.density


class TestQuadratureOracle:
    def test_full_circle_orthonormality(self):
        g = ef.gram_quadrature_oracle(ef.IntervalSet(((0.0, TWO_PI),)), range(5))
        assert np.abs(g - np.eye(5)).max() <= 1e-12

    def test_half_circle_hand_entry(self):
        g = ef.gram_quadrature_oracle(ef.IntervalSet(((0.0, math.pi),)), (0, 1))
        assert math.isclose(g[0, 0].real, 0.5, rel_tol=1e-12)
        assert math.isclose(abs(g[0, 1]), 1.0 / math.pi, rel_tol=1e-12)

    def test_hermitian(self):
        s = ef.IntervalSet(((0.3, 0.9), (2.0, 2.5)))
        g = ef.gram_quadrature_oracle(s, (-3, 0, 2, 7))
        assert np.abs(g - g.conj().T).max() <= 1e-14

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ef.gram_quadrature_oracle(ef.IntervalSet(((0.0, 1.0),)), (0, 0))

    def test_sections_monotone_to_riesz_bound(self):
        omega = ef.GridSpectrum(4, (0, 1))
        gamma = ef.SamplingSet(4, (0, 2))
        limit = ef.riesz_bounds(omega, gamma).lower
        interval = omega.to_interval_set()
        prev = math.inf
        for size in (2, 6, 10, 50, 100):
            freqs = periodic_section(gamma, size)
            val = float(np.linalg.eigvalsh(ef.gram_quadrature_oracle(interval, freqs))[0])
            assert val <= prev + 1e-9
            assert val >= limit - 1e-9
            prev = val
        assert abs(prev - limit) <= 1e-3


class TestPeriodicSection:
    def test_prefix_nesting(self):
        lam = ef.SamplingSet(6, (1, 4))
        small = periodic_section(lam, 4)
        large = periodic_section(lam, 9)
        assert set(small) <= set(large)
        assert all((x - j) % 6 == 0 for x in large for j in (1, 4) if (x - j) % 6 == 0)
        assert len(large) == 9


class TestTestSignal:
    def test_norm_matches_numerical_quadrature(self):
        g = ef.GridSpectrum(8, (1, 4))
        rng = np.random.default_rng(2)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sig = ef.TestSignal(g, amps)
        # independent oracle: trapezoid sum of 2*pi*|f_hat|^2 on a fine grid
        ts = np.linspace(0.0, TWO_PI, 200001)
        dens = np.abs(sig.transform(ts)) ** 2
        quad = TWO_PI * 0.5 * float(np.sum((dens[1:] + dens[:-1]) * np.diff(ts)))
        assert math.isclose(sig.norm_squared(), quad, rel_tol=1e-8)

    def test_transform_supported_on_cells(self):
        g = ef.GridSpectrum(8, (1, 4))
        sig = ef.TestSignal(g, np.array([1.0, 1.0j]))
        ts = np.linspace(0.0, TWO_PI, 4001)
        dens = np.abs(sig.transform(ts))
        cell = TWO_PI / 8
        outside = [
            d
            for t, d in zip(ts, dens)
            if not any(r * cell - 1e-9 <= t <= (r + 1) * cell + 1e-9 for r in (1, 4))
        ]
        assert max(outside) == 0.0

    def test_window_decay_cubic_envelope(self):
        # the closed form gives |f(x)| <= m^2 / (|x| (x^2 - m^2)) for a unit
        # amplitude, a cubic-decay envelope (lattice points vanish exactly)
        m = 4
        sig = ef.TestSignal(ef.GridSpectrum(m, (0,)), np.array([1.0]))
        xs = np.array([17.3, 33.7, 65.1, 129.9, 260.2])
        vals = np.abs(sig.evaluate(xs))
        env = m**2 / (xs * (xs**2 - m**2))
        assert np.all(vals <= env * (1.0 + 1e-9))
        assert np.abs(sig.evaluate(np.array([100.0])))[0] <= 1e-12


class TestMonteCarlo:
    def test_canonical_ratios_pin_one_over_m(self):
        out = ef.montecarlo_timedomain(
            ef.GridSpectrum(4, (0,)), ef.SamplingSet(4, (0,)), seed=5, periods=50, signals=10
        )
        assert out["pass"]
        assert abs(out["ratio_min"] - 0.25) <= 0.25 * 0.05
        assert abs(out["ratio_max"] - 0.25) <= 0.25 * 0.05

    def test_tight_frame_case(self):
        out = ef.montecarlo_timedomain(
            ef.GridSpectrum(4, (0, 1)), ef.SamplingSet(4, (0, 2)), seed=5, periods=50, signals=10
        )
        assert out["pass"]
        assert out["ratio_min"] >= 0.5 * 0.95 and out["ratio_max"] <= 0.5 * 1.05

    def test_kernel_aligned_signal_vanishes_on_sparse_set(self):
        # amplitudes in the kernel of the rank-deficient sampling map give
        # identically zero samples on the arithmetic progression
        g = ef.GridSpectrum(4, (0, 1))
        sig = ef.TestSignal(g, np.array([1.0, -1.0]))
        points = np.arange(-200, 201, 4).astype(float)
        assert np.abs(sig.evaluate(points)).max() <= 1e-12

    def test_seed_determinism(self):
        args = (ef.GridSpectrum(8, (0, 3)), ef.SamplingSet(8, (0, 4)))
        a = ef.montecarlo_timedomain(*args, seed=9, periods=20, signals=5)
        b = ef.montecarlo_timedomain(*args, seed=9, periods=20, signals=5)
        assert a == b

    def test_rejects_too_few_periods(self):
        with pytest.raises(ValueError):
            ef.montecarlo_timedomain(
                ef.GridSpectrum(4, (0,)), ef.SamplingSet(4, (0,)), seed=1, periods=5
            )
