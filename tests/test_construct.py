import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expframes as ef
from expframes import construct, selection, verify
from expframes.construct import fourier_system
from expframes.errors import CertificateFailed, KTooLarge, SpectrumFormatError
from expframes.selection import safe_ceil


class TestCanonicalExample:
    @pytest.mark.parametrize("m,j,expected", [(4, 1, 0.25), (1, 0, 1.0), (8, 5, 0.125)])
    def test_tight_bounds(self, m, j, expected):
        lam = ef.canonical_example(m, j)
        rep = ef.sampling_bounds(ef.GridSpectrum(m, (0,)), lam)
        assert math.isclose(rep.lower, expected, rel_tol=1e-12)
        assert math.isclose(rep.upper, expected, rel_tol=1e-12)
        assert rep.density == Fraction(1, m)

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            ef.canonical_example(4, 4)


class TestBuildSampling:
    def test_single_cell(self):
        rep = ef.build_sampling(ef.GridSpectrum(4, (0,)), 1.0)
        assert len(rep.sampling_set.residues) == 1
        assert math.isclose(rep.certified_lower, 0.25, rel_tol=1e-12)
        assert math.isclose(rep.certified_upper, 0.25, rel_tol=1e-12)

    def test_two_cell_certificate_with_oracle(self):
        g = ef.GridSpectrum(4, (0, 1))
        rep = ef.build_sampling(g, 1.0)
        assert len(rep.sampling_set.residues) <= 4
        target = ef.lower_certificate_constant(1.0) * 0.5
        assert rep.certified_lower >= target
        # exhaustive feasibility: the best subset at the same size dominates
        sys = fourier_system(g)
        _, best = ef.brute_force_best(sys, len(rep.sampling_set.residues), "max-of-lambda_min")
        assert best >= rep.certified_lower - 1e-12

    def test_full_spectrum_forces_all_integers(self):
        m = 6
        rep = ef.build_sampling(ef.GridSpectrum(m, tuple(range(m))), 0.7)
        assert rep.sampling_set.residues == tuple(range(m))
        assert math.isclose(rep.certified_lower, 1.0, rel_tol=1e-10)
        assert math.isclose(rep.certified_upper, 1.0, rel_tol=1e-10)

    def test_density_between_landau_and_cap(self):
        g = ef.GridSpectrum(32, (0, 5, 11, 17, 23, 29))
        d = 1.0
        rep = ef.build_sampling(g, d)
        cap = Fraction(math.ceil((1 + d) * g.n), g.m)
        assert rep.landau_floor <= rep.density <= cap

    def test_bounds_recomputed_independently(self):
        g = ef.GridSpectrum(16, (0, 3, 9))
        rep = ef.build_sampling(g, 1.5)
        f = ef.dft_submatrix(g.m, rep.sampling_set.residues, g.cells)
        spec = ef.hermitian_eig(ef.gram(f))
        assert math.isclose(spec.lam_min / g.m, rep.certified_lower, rel_tol=1e-9)
        assert math.isclose(spec.lam_max / g.m, rep.certified_upper, rel_tol=1e-9)


class TestBuildBessel:
    def test_single_cell_k2(self):
        rep = ef.build_bessel(ef.GridSpectrum(4, (0,)), 2)
        assert math.isclose(rep.certified_upper, 0.5, rel_tol=1e-12)
        assert math.isclose(rep.constant_check, 2.0, rel_tol=1e-12)

    def test_two_cell_best_pair(self):
        rep = ef.build_bessel(ef.GridSpectrum(4, (0, 1)), 2)
        assert math.isclose(rep.certified_upper, 0.5, rel_tol=1e-9)
        assert math.isclose(rep.constant_check, 1.0, rel_tol=1e-9)

    def test_full_grid(self):
        m = 5
        rep = ef.build_bessel(ef.GridSpectrum(m, tuple(range(m))), m)
        assert math.isclose(rep.certified_upper, 1.0, rel_tol=1e-10)
        assert math.isclose(rep.constant_check, 1.0, rel_tol=1e-10)

    def test_default_is_minimal_excess(self):
        g = ef.GridSpectrum(12, (0, 4))
        rep = ef.build_bessel(g)
        assert len(rep.sampling_set.residues) == g.n + 1
        assert rep.density > rep.landau_floor

    def test_k_bounds(self):
        with pytest.raises(KTooLarge):
            ef.build_bessel(ef.GridSpectrum(4, (0,)), 5)
        with pytest.raises(ValueError):
            ef.build_bessel(ef.GridSpectrum(4, (0, 1, 2)), 2)


class TestBuildRiesz:
    def test_single_cell_singleton(self):
        rep = ef.build_riesz(ef.GridSpectrum(2, (0,)), 0.75)
        assert len(rep.sampling_set.residues) >= 1
        assert rep.certified_lower >= ef.riesz_floor_constant(0.75) * 0.5

    def test_full_grid_keeps_everything_orthonormal(self):
        m = 8
        rep = ef.build_riesz(ef.GridSpectrum(m, tuple(range(m))), 0.5)
        assert len(rep.sampling_set.residues) >= math.ceil(0.5 * m)
        assert math.isclose(rep.certified_lower, 1.0, rel_tol=1e-10)

    def test_half_spectrum_certificate(self):
        rep = ef.build_riesz(ef.GridSpectrum(8, (0, 1, 2, 3)), 0.5)
        target = ef.riesz_floor_constant(0.5) * 0.5
        assert rep.certified_lower >= target
        assert len(rep.sampling_set.residues) >= 2

    def test_size_floor(self):
        g = ef.GridSpectrum(16, (0, 2, 4, 6, 8, 10, 12, 14))
        rep = ef.build_riesz(g, 0.25)
        assert len(rep.sampling_set.residues) >= math.ceil(0.75 * g.n)


class TestOneCertification:
    """verify is the only certifier: one hermitian_eig per build, of the
    final selection's Gram; the engines decompose nothing through it."""

    @pytest.fixture
    def eig_inputs(self, monkeypatch):
        seen = []
        original = ef.hermitian_eig

        def spy(h):
            seen.append(np.array(h))
            return original(h)

        monkeypatch.setattr(selection, "hermitian_eig", spy)
        monkeypatch.setattr(verify, "hermitian_eig", spy)
        return seen

    @pytest.mark.parametrize(
        "kind,g,calls",
        [
            ("sampling", ef.GridSpectrum(16, (0, 3, 5, 9)), 1),
            ("sampling", ef.GridSpectrum(32, (1, 4, 9, 16, 20, 27)), 1),
            ("sampling", ef.GridSpectrum(6, tuple(range(6))), 1),
            ("bessel", ef.GridSpectrum(16, (0, 3, 5, 9)), 1),
            ("bessel", ef.GridSpectrum(32, (1, 4, 9, 16, 20, 27)), 1),
            ("riesz", ef.GridSpectrum(16, (0, 3, 5, 9)), 1),
            ("riesz", ef.GridSpectrum(32, (1, 4, 9, 16, 20, 27)), 1),
            ("riesz", ef.GridSpectrum(8, tuple(range(8))), 1),
        ],
    )
    def test_one_decomposition_of_the_final_selection(self, eig_inputs, kind, g, calls):
        if kind == "sampling":
            rep = ef.build_sampling(g, 1.0)
        elif kind == "bessel":
            rep = ef.build_bessel(g)
        else:
            rep = ef.build_riesz(g, 0.5)
        residues = rep.sampling_set.residues
        if kind == "riesz":
            final = ef.gram(ef.dft_submatrix(g.m, g.cells, residues) / math.sqrt(g.m))
        else:
            final = ef.gram(ef.dft_submatrix(g.m, residues, g.cells))
        assert len(eig_inputs) == calls
        assert np.array_equal(eig_inputs[-1], final)

    @pytest.mark.parametrize("kind", ["sampling", "riesz"])
    def test_bound_below_target_fails_the_build(self, monkeypatch, kind):
        # the engines check no floor: verify's bound alone must fail a
        # build that misses its target, even by one ulp
        g, d = ef.GridSpectrum(16, (0, 3, 5, 9)), 0.5
        if kind == "sampling":
            name, build = "sampling_bounds", ef.build_sampling
            target = ef.lower_certificate_constant(d) * g.n / g.m
        else:
            name, build = "riesz_bounds", ef.build_riesz
            target = ef.riesz_floor_constant(d) * g.n / g.m
        original = getattr(verify, name)

        def below(*args):
            return dataclasses.replace(original(*args), lower=math.nextafter(target, 0.0))

        monkeypatch.setattr(verify, name, below)
        with pytest.raises(CertificateFailed, match="below target"):
            build(g, d)


class TestLargeGrid:
    """Health at large m and small n: every builder certifies."""

    @pytest.mark.parametrize("m,n", [(4096, 8), (2048, 32)])
    def test_builders_certify(self, m, n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(59, m, n)))
        g = ef.GridSpectrum(m, tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False))))
        sampling = ef.build_sampling(g, 1.0)
        assert sampling.certified_lower >= ef.lower_certificate_constant(1.0) * n / m
        assert len(sampling.sampling_set.residues) <= 2 * n
        bessel = ef.build_bessel(g)
        assert len(bessel.sampling_set.residues) == n + 1
        assert bessel.certified_lower > 0.0
        riesz = ef.build_riesz(g, 0.25)
        assert riesz.certified_lower >= ef.riesz_floor_constant(0.25) * n / m
        assert len(riesz.sampling_set.residues) >= math.ceil(0.75 * n)


@st.composite
def grid_spectra(draw):
    m = draw(st.integers(min_value=1, max_value=32))
    cells = draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
    return ef.GridSpectrum(m, tuple(cells))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(grid_spectra(), st.floats(min_value=0.01, max_value=20.0))
def test_builders_input_contract(g, d):
    """Every builder certifies within its size cap or floor, or refuses a
    sampling request whose step budget ceil((1+d)n) exceeds 10m; no valid
    input ends in CertificateFailed or NoFeasibleCandidate."""
    m, n = g.m, g.n
    if math.ceil((1.0 + d) * n) > 10 * m:
        with pytest.raises(ValueError, match="exceeds the 10\\*m cap"):
            ef.build_sampling(g, d)
    else:
        sampling = ef.build_sampling(g, d)
        assert len(sampling.sampling_set.residues) <= safe_ceil((1.0 + d) * n)
        assert sampling.certified_lower >= ef.lower_certificate_constant(d) * n / m
    bessel = ef.build_bessel(g)
    assert len(bessel.sampling_set.residues) == min(n + 1, m)
    assert 0.0 <= bessel.certified_lower <= bessel.certified_upper
    if d < 1.0:
        riesz = ef.build_riesz(g, d)
        assert len(riesz.sampling_set.residues) >= safe_ceil((1.0 - d) * n)
        assert riesz.certified_lower >= ef.riesz_floor_constant(d) * n / m


class TestExhaustGeneral:
    def test_dyadic_interval_exact_at_every_stage(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        stages = ef.exhaust_general(s, 1.0, (2, 4, 8))
        for st in stages:
            assert ef.measure(st.spectrum) == Fraction(1, 2)
            assert st.report.certified_lower >= ef.lower_certificate_constant(1.0) * 0.5

    def test_two_interval_monotone_and_convergent(self):
        s = ef.IntervalSet(((0.3, 0.9), (2.0, 2.5)))
        stages = ef.exhaust_general(s, 1.0, (16, 32, 64))
        prev = 0.0
        for st in stages:
            meas = float(ef.measure(st.spectrum))
            assert meas >= prev - 1e-15
            assert abs(meas - s.measure()) <= 4.0 / st.m
            prev = meas

    def test_single_stage_matches_build_sampling(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        stages = ef.exhaust_general(s, 1.0, (8,))
        direct = ef.build_sampling(ef.quantize_inner(s, 8), 1.0)
        assert stages[0].report.sampling_set == direct.sampling_set
        assert stages[0].report.to_dict() == direct.to_dict()

    def test_complement_riesz_matches_duality(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        stages = ef.exhaust_general(s, 0.6, (8, 16))
        for st in stages:
            if st.complement_riesz is None:
                continue
            assert abs(st.complement_riesz.lower - st.report.certified_lower) <= 1e-9

    @pytest.mark.parametrize("mode", ["sampling", "bessel"])
    def test_decompositions_stay_within_the_cell_count(self, monkeypatch, mode):
        # every hermitian_eig of a stage, the complement Riesz certificate
        # included, decomposes at most n x n, n the stage's cell count
        events = []
        original_eig, original_quantize = ef.hermitian_eig, construct.quantize_inner

        def eig(h):
            events.append(("eig", h.shape[0]))
            return original_eig(h)

        def quantize(s, m):
            g = original_quantize(s, m)
            events.append(("stage", g.n))
            return g

        monkeypatch.setattr(selection, "hermitian_eig", eig)
        monkeypatch.setattr(verify, "hermitian_eig", eig)
        monkeypatch.setattr(construct, "quantize_inner", quantize)
        s = ef.IntervalSet(((0.3, 0.9), (2.0, 2.5)))
        stages = ef.exhaust_general(s, 1.0, (16, 32, 64, 128, 256), mode=mode)
        assert all(st.complement_riesz is not None for st in stages)
        assert [kind for kind, _ in events] == ["stage", "eig", "eig"] * len(stages)
        for i, st in enumerate(stages):
            n = events[3 * i][1]
            assert n == st.spectrum.n
            assert events[3 * i + 1][1] <= n and events[3 * i + 2][1] <= n

    def test_bessel_mode(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        stages = ef.exhaust_general(s, 1.0, (8, 16), mode="bessel")
        for st in stages:
            assert len(st.report.sampling_set.residues) == st.spectrum.n + 1
            assert st.report.sampling_set.kind == "bessel"

    def test_schedule_validation(self):
        s = ef.IntervalSet(((0.0, math.pi),))
        with pytest.raises(SpectrumFormatError):
            ef.exhaust_general(s, 1.0, (8, 8))
        with pytest.raises(SpectrumFormatError):
            ef.exhaust_general(s, 1.0, ())


class TestSerialization:
    def test_report_round_trip_deterministic(self):
        rep = ef.build_sampling(ef.GridSpectrum(8, (0, 1)), 1.0)
        a = json.dumps(rep.to_dict())
        b = json.dumps(ef.build_sampling(ef.GridSpectrum(8, (0, 1)), 1.0).to_dict())
        assert a == b
        assert json.loads(a)["kind"] == "sampling"

    def test_csv_row_matches_columns(self):
        rep = ef.build_sampling(ef.GridSpectrum(8, (0, 1)), 1.0)
        assert len(rep.csv_row()) == len(ef.construct.CSV_COLUMNS)

    def test_sampling_set_validation(self):
        with pytest.raises(ValueError):
            ef.SamplingSet(4, (0, 0))
        with pytest.raises(ValueError):
            ef.SamplingSet(4, (4,))
        with pytest.raises(ValueError):
            ef.SamplingSet(4, (0,), "bogus")
