"""Acceptance suite: every contract criterion at its stated tolerance.

Each criterion runs once per session (shared fixture), prints a one-line
PASS/FAIL verdict, and asserts its runtime budget.  The determinism check
rebuilds everything from the same seeds and compares the serialized reports
byte for byte.
"""

import json
import math
import time

import numpy as np
import pytest

import expframes as ef
from expframes.construct import fourier_system
from expframes.selection import safe_ceil
from test_verify import periodic_section

SEED = 20250809

SAMPLING_GRID = [
    (m, div, d) for m in (32, 64, 128) for div in (16, 8, 4) for d in (0.5, 1.0, 3.0)
]
ENSEMBLE_SIZE = 200


def seeded_cells(m: int, n: int, *entropy: int) -> tuple[int, ...]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(SEED, *entropy)))
    return tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False)))


def run_canonical() -> dict:
    rows, passed = [], True
    for m in (1, 2, 4, 8, 16):
        g = ef.GridSpectrum(m, (0,))
        for j in range(m):
            rep = ef.sampling_bounds(g, ef.SamplingSet(m, (j,)))
            ok = (
                abs(rep.lower - 1.0 / m) <= 1e-12
                and abs(rep.upper - 1.0 / m) <= 1e-12
                and rep.density == ef.measure(g)
            )
            passed = passed and ok
            rows.append([m, j, rep.lower, rep.upper, str(rep.density), ok])
    return {"passed": passed, "rows": rows}


def run_sampling_ensemble() -> dict:
    """Criteria 2 and 3 on one seeded 200-case ensemble."""
    rows, cases = [], []
    passed_caps = passed_ratio = True
    for i in range(ENSEMBLE_SIZE):
        m, div, d = SAMPLING_GRID[i % len(SAMPLING_GRID)]
        n = m // div
        g = ef.GridSpectrum(m, seeded_cells(m, n, 2, i))
        rep = ef.build_sampling(g, d)
        j_size = len(rep.sampling_set.residues)
        cap = math.ceil((1.0 + d) * n)
        target = ef.lower_certificate_constant(d) * n / m
        ok_cap = j_size <= cap and rep.bounds.lower >= target
        passed_caps = passed_caps and ok_cap

        log = ef.bss_unweighted(fourier_system(g), d).barrier_log
        ok_barriers = all(s.u - s.lam_max > 0.0 and s.lam_min - s.l > 0.0 for s in log)
        if len(log) == safe_ceil((1.0 + d) * n):
            ratio = log[-1].lam_max / log[-1].lam_min
        else:  # n = m, or stopped once every residue was picked: Z_m, unit weights, identity
            ratio = 1.0
        bound = ef.condition_ratio_bound(1.0 + d) * (1.0 + 1e-9)
        ok_ratio = ratio <= bound and ok_barriers
        passed_ratio = passed_ratio and ok_ratio

        rows.append([m, n, d, j_size, rep.bounds.lower, target, ratio, ok_cap, ok_ratio])
        cases.append((m, list(g.cells), d, list(rep.sampling_set.residues)))
    return {
        "passed_certificates": passed_caps,
        "passed_ratios": passed_ratio,
        "rows": rows,
        "cases": cases,
    }


def run_brute_force_agreement() -> dict:
    rows, passed = [], True
    for m in range(2, 13):
        for n in range(1, min(4, m) + 1):
            for d in (1.0, 3.0):
                if math.comb(m, min(m, math.ceil((1.0 + d) * n))) > 10**6:
                    continue
                for variant, cells in (
                    ("contiguous", tuple(range(n))),
                    ("seeded", seeded_cells(m, n, 4, m, n)),
                ):
                    sys = fourier_system(ef.GridSpectrum(m, cells))
                    res = ef.bss_unweighted(sys, d)
                    k = len(res.indices)
                    floor = ef.hermitian_eig(ef.gram(sys.vectors[list(res.indices)].conj())).lam_min
                    _, best = ef.brute_force_best(sys, k, "max-of-lambda_min")
                    target = ef.lower_certificate_constant(d) * n / m
                    ok = floor >= target and best >= floor - 1e-12
                    passed = passed and ok
                    rows.append([m, n, d, variant, k, floor, best, ok])
    return {"passed": passed, "rows": rows}


# Fixed small systems for the quadrature-oracle cross-check: arithmetic
# progression pairs whose finite sections converge quickly.
ORACLE_PAIRS = [
    (4, (0, 1), (0, 2)),
    (6, (0, 1), (0, 3)),
    (6, (0, 1, 2), (0, 2, 4)),
    (8, (0, 1), (0, 4)),
    (8, (0, 1, 2, 3), (0, 2, 4, 6)),
    (10, (0, 1), (0, 5)),
    (12, (0, 1, 2), (0, 4, 8)),
    (12, (0, 1, 2, 3), (0, 3, 6, 9)),
    (16, (0, 1, 2, 3), (0, 4, 8, 12)),
    (16, (0, 1, 2, 3, 4, 5, 6, 7), (0, 2, 4, 6, 8, 10, 12, 14)),
]


def run_duality(cases) -> dict:
    rows, passed, checked = [], True, 0
    for m, cells, d, residues in cases:
        if len(residues) >= m:
            continue
        checked += 1
        rep = ef.duality_check(ef.GridSpectrum(m, tuple(cells)), ef.SamplingSet(m, tuple(residues)))
        ok = rep.factor_two_pass and rep.exact_identity_pass
        passed = passed and ok
        rows.append([m, len(cells), d, rep.sampling_lower, rep.riesz_lower, ok])

    oracle_rows = []
    for m, cells, residues in ORACLE_PAIRS:
        g = ef.GridSpectrum(m, cells)
        lam = ef.SamplingSet(m, residues)
        comp_cells = ef.complement(g)
        comp_res = ef.SamplingSet(m, tuple(r for r in range(m) if r not in set(residues)))
        limit = ef.riesz_bounds(comp_cells, comp_res).lower
        interval = comp_cells.to_interval_set()
        prev, monotone = math.inf, True
        for size in (10, 20, 50, 100):
            freqs = periodic_section(comp_res, size)
            val = float(np.linalg.eigvalsh(ef.gram_quadrature_oracle(interval, freqs))[0])
            monotone = monotone and val <= prev + 1e-9
            prev = val
        ok = monotone and abs(prev - limit) <= 1e-3
        passed = passed and ok
        oracle_rows.append([m, list(cells), list(residues), limit, prev, ok])
    return {"passed": passed, "checked": checked, "rows": rows, "oracle_rows": oracle_rows}


def run_restricted_invertibility() -> dict:
    rows, passed = [], True
    for m in (16, 64):
        for div in (4, 2):
            n = m // div
            for d in (0.25, 0.5, 0.75):
                for trial in range(5):
                    g = ef.GridSpectrum(m, seeded_cells(m, n, 6, m, n, int(d * 100), trial))
                    rep = ef.build_riesz(g, d)
                    floor = math.ceil((1.0 - d) * n)
                    target = ef.riesz_floor_constant(d) * n / m
                    ok = (
                        len(rep.sampling_set.residues) >= floor
                        and rep.bounds.lower >= target
                    )
                    passed = passed and ok
                    rows.append(
                        [m, n, d, trial, len(rep.sampling_set.residues), rep.bounds.lower, target, ok]
                    )
    return {"passed": passed, "rows": rows}


def run_bessel_ensemble() -> dict:
    ratios = []
    for i in range(100):
        g = ef.GridSpectrum(64, seeded_cells(64, 8, 7, i))
        rep = ef.build_bessel(g, 9)
        ratios.append(rep.constant_check)
    ordered = sorted(ratios)
    within_20 = all(r <= 20.0 for r in ratios)
    share_4 = sum(1 for r in ratios if r <= 4.0) / len(ratios)
    return {
        "passed": within_20 and share_4 >= 0.8,
        "ratios": ratios,
        "distribution": {
            "min": ordered[0],
            "median": ordered[50],
            "max": ordered[-1],
            "share_leq_4": share_4,
        },
    }


def run_exhaustion() -> dict:
    s = ef.IntervalSet(((0.3, 0.9), (2.0, 2.5)))
    d = 1.0
    stages = ef.exhaust_general(s, d, [2**p for p in range(4, 11)])
    rows, passed, prev = [], True, 0.0
    for st in stages:
        g, bounds = st.report.spectrum, st.report.bounds
        meas = float(ef.measure(g))
        cap = math.ceil((1.0 + d) * g.n) / g.m
        target = ef.lower_certificate_constant(d) * meas
        ok = (
            meas >= prev - 1e-15
            and abs(meas - s.measure()) <= 4.0 / g.m
            and bounds.lower >= target
            and float(bounds.density) <= cap
        )
        passed = passed and ok
        prev = meas
        rows.append(
            [g.m, g.n, len(st.report.sampling_set.residues), meas,
             bounds.lower, target, float(bounds.density), cap, ok]
        )
    return {"passed": passed, "rows": rows}


def run_montecarlo() -> dict:
    rows, passed = [], True
    for i in range(10):
        m = (16, 32)[i % 2]
        n = m // 8 if i % 3 else m // 4
        g = ef.GridSpectrum(m, seeded_cells(m, max(1, n), 9, i))
        rep = ef.build_sampling(g, 1.0)
        lam = rep.sampling_set
        mc50 = ef.montecarlo_timedomain(g, lam, seed=SEED + i, periods=50, signals=20)
        mc200 = ef.montecarlo_timedomain(g, lam, seed=SEED + i, periods=200, signals=20)
        tighten = (
            mc200["ratio_min"] >= mc50["ratio_min"] - 1e-12
            and mc200["ratio_max"] >= mc50["ratio_max"] - 1e-12
        )
        ok = mc200["pass"] and mc50["pass"] and tighten
        passed = passed and ok
        rows.append([m, list(lam.residues), mc50["ratio_min"], mc50["ratio_max"],
                     mc200["ratio_min"], mc200["ratio_max"], mc200["lower"], mc200["upper"], ok])
    return {"passed": passed, "rows": rows}


def build_reports() -> dict:
    reports = {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        payload = fn(*args)
        reports[name] = {"elapsed": time.perf_counter() - start, "payload": payload}

    timed("canonical", run_canonical)
    timed("sampling_ensemble", run_sampling_ensemble)
    timed("brute_force", run_brute_force_agreement)
    timed("duality", run_duality, reports["sampling_ensemble"]["payload"]["cases"])
    timed("restricted_invertibility", run_restricted_invertibility)
    timed("bessel_ensemble", run_bessel_ensemble)
    timed("exhaustion", run_exhaustion)
    timed("montecarlo", run_montecarlo)
    return reports


@pytest.fixture(scope="module")
def reports():
    return build_reports()


def _verdict(num, label, ok, elapsed):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]")


def test_criterion_01_canonical_identity(reports):
    r = reports["canonical"]
    ok = r["payload"]["passed"]
    _verdict(1, "canonical tight bounds 1/m", ok, r["elapsed"])
    assert ok
    assert r["elapsed"] < 1.0


def test_criterion_02_sampling_certificates(reports):
    r = reports["sampling_ensemble"]
    ok = r["payload"]["passed_certificates"]
    _verdict(2, "sampling ensemble certificates", ok, r["elapsed"])
    assert ok
    assert len(r["payload"]["rows"]) == ENSEMBLE_SIZE
    assert r["elapsed"] < 60.0


def test_criterion_03_weighted_ratio_and_barriers(reports):
    r = reports["sampling_ensemble"]
    ok = r["payload"]["passed_ratios"]
    _verdict(3, "weighted condition ratio + barrier logs", ok, r["elapsed"])
    assert ok


def test_criterion_04_brute_force_agreement(reports):
    r = reports["brute_force"]
    ok = r["payload"]["passed"]
    _verdict(4, "exhaustive oracle agreement", ok, r["elapsed"])
    assert ok
    assert r["elapsed"] < 60.0


def test_criterion_05_duality(reports):
    r = reports["duality"]
    ok = r["payload"]["passed"]
    _verdict(5, "duality identity + quadrature oracle", ok, r["elapsed"])
    assert ok
    assert r["payload"]["checked"] > 0
    assert len(r["payload"]["oracle_rows"]) == 10


def test_criterion_06_restricted_invertibility(reports):
    r = reports["restricted_invertibility"]
    ok = r["payload"]["passed"]
    _verdict(6, "restricted invertibility certificates", ok, r["elapsed"])
    assert ok
    assert r["elapsed"] < 30.0


def test_criterion_07_bessel_ensemble(reports):
    r = reports["bessel_ensemble"]
    ok = r["payload"]["passed"]
    dist = r["payload"]["distribution"]
    _verdict(7, f"bessel ratios (max {dist['max']:.2f}, <=4 share {dist['share_leq_4']:.2f})",
             ok, r["elapsed"])
    assert ok
    assert r["elapsed"] < 30.0


def test_criterion_08_exhaustion_pipeline(reports):
    r = reports["exhaustion"]
    ok = r["payload"]["passed"]
    _verdict(8, "finite exhaustion stages", ok, r["elapsed"])
    assert ok
    assert r["elapsed"] < 120.0


def test_criterion_09_montecarlo_sandwich(reports):
    r = reports["montecarlo"]
    ok = r["payload"]["passed"]
    _verdict(9, "Monte-Carlo sandwich + tightening", ok, r["elapsed"])
    assert ok
    assert r["elapsed"] < 60.0


def test_criterion_10_determinism(reports):
    again = build_reports()
    ok = True
    for name, entry in reports.items():
        first = json.dumps(entry["payload"], sort_keys=False)
        second = json.dumps(again[name]["payload"], sort_keys=False)
        ok = ok and first == second
    _verdict(10, "byte-identical reports on rerun", ok, sum(e["elapsed"] for e in again.values()))
    assert ok
