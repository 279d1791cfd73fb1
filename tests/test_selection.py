import collections
import ctypes
import itertools
import math
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest

import expframes as ef
from expframes import linalg, selection
from expframes.construct import build_riesz, fourier_system
from expframes.errors import (
    InvalidD,
    KTooLarge,
    NotParseval,
    TooManySubsets,
)
from test_linalg import openblas_loading, resolvent_quadratics


def fresh_spectrum(sys, res):
    """hermitian_eig of a selection's unweighted outer sum, from its indices alone."""
    return ef.hermitian_eig(ef.gram(sys.vectors[list(res.indices)].conj()))


def weighted_spectrum(sys, res):
    """hermitian_eig of a two-sided run's weighted sum, sum of step.weight v v* over its log.

    An empty log (the n = m shortcut) stands for unit weights on its indices.
    """
    if not res.barrier_log:
        return fresh_spectrum(sys, res)
    log = res.barrier_log
    scaled = np.sqrt([s.weight for s in log])[:, None] * sys.vectors[[s.index for s in log]].conj()
    return ef.hermitian_eig(ef.gram(scaled))


def gram_of(sys, rows):
    """Hermitian Gram matrix <v_a, v_b> of the given rows."""
    return ef.gram(sys.vectors[list(rows)].conj().T)


def fresh_gram_spectrum(sys, res):
    """hermitian_eig of the coefficient Gram of a Riesz selection."""
    return ef.hermitian_eig(gram_of(sys, res.indices))


def eig2_min(a: float, b: float, c: complex) -> float:
    """Closed-form smallest eigenvalue of the 2x2 Hermitian [[a, c], [c*, b]]."""
    return (a + b) / 2.0 - math.sqrt(((a - b) / 2.0) ** 2 + abs(c) ** 2)


class TestConstants:
    def test_ratio_bound_q2(self):
        # ((sqrt2+1)/(sqrt2-1))^2 = (3+2*sqrt2)^2 = 17 + 12*sqrt2
        assert math.isclose(ef.condition_ratio_bound(2.0), 17.0 + 12.0 * math.sqrt(2.0))

    def test_lower_constant_identities(self):
        # ((sqrt2-1)/(sqrt2+1))^2 = (3-2*sqrt2)^2 = 17 - 12*sqrt2
        assert math.isclose(ef.lower_certificate_constant(1.0), 17.0 - 12.0 * math.sqrt(2.0))
        assert math.isclose(ef.lower_certificate_constant(3.0), 1.0 / 9.0)

    def test_riesz_floor_identities(self):
        # (1-sqrt(1/2))^2 = 3/2 - sqrt2
        assert math.isclose(ef.riesz_floor_constant(0.5), 1.5 - math.sqrt(2.0))
        assert math.isclose(ef.riesz_floor_constant(0.75), 0.25)


class TestVectorSystem:
    def test_parseval_validation(self):
        # equal-norm rows whose outer sum is the all-ones matrix, not I
        sys = ef.VectorSystem(np.full((4, 2), 0.5))
        assert sys.equal_norm and not sys.parseval
        with pytest.raises(NotParseval):
            ef.bss_select(sys, 2.0)
        with pytest.raises(NotParseval):
            ef.rit_select(sys, 0.5)

    def test_equal_norm_validation(self):
        # Parseval rows of squared norms 1, 1/2, 1/2 against n/m = 2/3
        vecs = np.array([[1.0, 0.0], [0.0, math.sqrt(0.5)], [0.0, math.sqrt(0.5)]])
        sys = ef.VectorSystem(vecs)
        assert sys.parseval and not sys.equal_norm
        with pytest.raises(ValueError, match="equal-norm"):
            ef.bss_unweighted(sys, 1.0)
        with pytest.raises(ValueError, match="equal-norm"):
            ef.rit_select(sys, 0.5)

    def test_equality_and_hash_are_identity(self):
        # a field-wise == would compare arrays and raise on their truth value
        g = ef.GridSpectrum(8, (0, 3))
        a, b = fourier_system(g), fourier_system(g)
        assert a == a and a != b and a != ef.VectorSystem(a.vectors)
        assert hash(a) == hash(a) and len({a, b}) == 2

    @pytest.mark.parametrize("m,n", [(1, 1), (4, 1), (8, 3), (32, 31), (1024, 176), (4096, 8)])
    def test_fourier_rows_qualify(self, m, n):
        # fourier_system runs none of the checks: its rows must pass them all
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(59, m, n)))
        cells = tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False)))
        sys = fourier_system(ef.GridSpectrum(m, cells))
        assert sys.parseval and sys.equal_norm and sys.m == m and sys.n == n
        assert not sys.vectors.flags.writeable
        checked = ef.VectorSystem(sys.vectors)
        assert checked.parseval and checked.equal_norm
        expected = ef.dft_submatrix(m, range(m), cells) / math.sqrt(m)
        assert sys.vectors.dtype == expected.dtype and sys.vectors.shape == expected.shape
        assert sys.vectors.tobytes() == expected.tobytes() == checked.vectors.tobytes()


def seeded_coverage_cases(route):
    """128 seeded (system, d) at m <= 32; at least 20 cover every row early."""
    for i in range(128):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(67, i)))
        m = (4, 8, 16, 32)[i % 4]
        n = int(rng.integers(1, m))
        cells = tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False)))
        d = math.exp(rng.uniform(math.log(0.01), math.log(9.0)))
        sys = fourier_system(ef.GridSpectrum(m, cells))
        yield (ef.VectorSystem(sys.vectors) if route == "dense" else sys), d


class TestBssSelect:
    def test_rank_one_rescaled_to_one(self):
        sys = fourier_system(ef.GridSpectrum(4, (0,)))
        res = ef.bss_select(sys, 2.0)
        assert len(res.indices) <= math.ceil(2.0)
        spec = weighted_spectrum(sys, res)
        # rescaled by its fresh lambda_min, the rank-one sum is exactly 1
        assert math.isclose(spec.lam_max / spec.lam_min, 1.0, rel_tol=1e-12)
        assert math.isclose(spec.lam_min, res.barrier_log[-1].lam_min, rel_tol=1e-12)

    def test_step_budget_covering_all_rows(self):
        # ceil(q*n) = m: the loop may pick every row; certificates still hold
        sys = fourier_system(ef.GridSpectrum(4, (0, 1)))
        res = ef.bss_select(sys, 2.0)
        assert len(res.indices) <= math.ceil(2.0 * 2)
        spec = weighted_spectrum(sys, res)
        assert math.isclose(spec.lam_min, res.barrier_log[-1].lam_min, rel_tol=1e-9)
        assert spec.lam_max / spec.lam_min <= ef.condition_ratio_bound(2.0) * (1 + 1e-9)

    def test_real_run_certificate_and_log(self):
        sys = fourier_system(ef.GridSpectrum(8, (0, 1)))
        res = ef.bss_select(sys, 2.0)
        bound = ef.condition_ratio_bound(2.0)
        assert len(res.indices) <= 4
        spec = weighted_spectrum(sys, res)
        assert spec.lam_max / spec.lam_min <= bound * (1.0 + 1e-9)
        assert res.barrier_log
        # barriers strictly bracket the spectrum after every step
        for step in res.barrier_log:
            assert step.u - step.lam_max > 0.0
            assert step.lam_min - step.l > 0.0
            assert step.weight > 0.0
        # shifted potentials never increase
        phis_u = [s.phi_u for s in res.barrier_log]
        phis_l = [s.phi_l for s in res.barrier_log]
        assert all(b <= a + 1e-9 for a, b in zip(phis_u, phis_u[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(phis_l, phis_l[1:]))

    def test_self_consistency_of_reported_extremes(self):
        sys = fourier_system(ef.GridSpectrum(12, (0, 2, 7)))
        res = ef.bss_select(sys, 1.8)
        # the loop's last extremes are the fresh extremes of the weighted
        # sum rebuilt from the log; rescaled by 1/lam_min, its top is the ratio
        last = res.barrier_log[-1]
        spec = weighted_spectrum(sys, res)
        assert math.isclose(spec.lam_min, last.lam_min, rel_tol=1e-9)
        assert math.isclose(spec.lam_max / spec.lam_min, last.lam_max / last.lam_min, rel_tol=1e-9)
        assert spec.lam_max / spec.lam_min <= ef.condition_ratio_bound(1.8) * (1.0 + 1e-9)

    def test_identity_system_full_selection(self):
        sys = ef.VectorSystem(np.eye(4))
        res = ef.bss_select(sys, 1.5)
        assert res.indices == (0, 1, 2, 3) and res.barrier_log == ()
        spec = weighted_spectrum(sys, res)
        assert math.isclose(spec.lam_max / spec.lam_min, 1.0)

    @pytest.mark.parametrize("route", ["grid", "dense"])
    def test_stops_at_the_covering_step(self, route):
        # the step that picks the last of the m rows ends the run, which then
        # returns Z_m; every other run takes all safe_ceil(q n) steps
        covered = 0
        for sys, d in seeded_coverage_cases(route):
            n, m = sys.n, sys.m
            res = ef.bss_select(sys, 1.0 + d)
            log = res.barrier_log
            picks = [step.index for step in log]
            steps = selection.safe_ceil((1.0 + d) * n)
            if len(log) < steps:
                covered += 1
                assert res.indices == tuple(range(m))
                assert len(set(picks[:-1])) == m - 1 and picks[-1] not in picks[:-1]
            else:
                assert len(log) == steps and res.indices == tuple(sorted(set(picks)))
                assert len(set(picks[:-1])) < m
        assert covered >= 20

    def test_rejects_bad_input(self):
        sys = ef.VectorSystem(np.eye(3) * 0.5)
        with pytest.raises(NotParseval):
            ef.bss_select(sys, 2.0)
        with pytest.raises(ValueError):
            ef.bss_select(fourier_system(ef.GridSpectrum(4, (0,))), 1.0)

    def test_determinism_byte_identical(self):
        sys = fourier_system(ef.GridSpectrum(16, (1, 4, 9, 12)))
        a, b = ef.bss_select(sys, 1.7), ef.bss_select(sys, 1.7)
        assert a == b

    def test_trajectory_replayed_through_resolvent_quadratics(self):
        # independent replication: rebuild the running sum from the log and
        # recompute every step's scores from a fresh decomposition per form
        g = ef.GridSpectrum(12, (0, 2, 7))
        sys = fourier_system(g)
        q = 1.8
        res = ef.bss_select(sys, q)
        n, m = sys.n, sys.m
        sq = math.sqrt(q)
        delta_u, delta_l = (sq + 1.0) / (sq - 1.0), 1.0
        eps_u = (sq - 1.0) / (sq * (sq + 1.0))
        u, l = n / eps_u, -n * sq
        a = np.zeros((n, n), dtype=complex)
        for step in res.barrier_log:
            u_next, l_next = u + delta_u, l + delta_l
            evals = np.linalg.eigvalsh(a)
            phi_u = float(np.sum(1.0 / (u - evals)))
            phi_l = float(np.sum(1.0 / (evals - l)))
            phi_u_next = float(np.sum(1.0 / (u_next - evals)))
            phi_l_next = float(np.sum(1.0 / (evals - l_next)))
            margins, upper_scores, lower_scores = [], [], []
            for i in range(m):
                v = sys.vectors[i]
                q1u, q2u = resolvent_quadratics(a, u_next, v)
                q1l, q2l = resolvent_quadratics(a, l_next, v)
                upper = q2u / (phi_u - phi_u_next) + q1u
                lower = q2l / (phi_l_next - phi_l) - q1l
                margins.append(lower - upper)
                upper_scores.append(upper)
                lower_scores.append(lower)
            # the engine's tie rule: margins within TIE_RTOL of the best, on
            # the scale of the scores they are differences of, go to the
            # smallest index (step 0 is an exact m-way tie)
            scale = max(abs(x) + abs(y) for x, y in zip(upper_scores, lower_scores))
            cutoff = max(margins) - selection.TIE_RTOL * scale
            best = next(i for i, margin in enumerate(margins) if margin >= cutoff)
            assert best == step.index
            t = 2.0 / (upper_scores[best] + lower_scores[best])
            assert math.isclose(t, step.weight, rel_tol=1e-9)
            assert upper_scores[best] <= 1.0 / t <= lower_scores[best] * (1 + 1e-12)
            v = sys.vectors[best]
            a = a + t * np.outer(v, v.conj())
            u, l = u_next, l_next


class TestBssUnweighted:
    def test_canonical_single_cell(self):
        sys = fourier_system(ef.GridSpectrum(4, (0,)))
        for d in (0.5, 1.0, 3.0):
            res = ef.bss_unweighted(sys, d)
            floor = fresh_spectrum(sys, res).lam_min
            assert math.isclose(floor, 0.25, rel_tol=1e-12)
            assert floor >= ef.lower_certificate_constant(d) * 0.25

    def test_two_cell_certificate(self):
        sys = fourier_system(ef.GridSpectrum(4, (0, 1)))
        res = ef.bss_unweighted(sys, 1.0)
        target = ef.lower_certificate_constant(1.0) * 0.5
        assert fresh_spectrum(sys, res).lam_min >= target
        assert res.indices == ef.bss_select(sys, 2.0).indices

    def test_random_small_with_brute_force_feasibility(self):
        g = ef.GridSpectrum(12, (1, 5, 10))
        sys = fourier_system(g)
        res = ef.bss_unweighted(sys, 3.0)
        assert len(res.indices) <= 12
        target = ef.lower_certificate_constant(3.0) * 3 / 12
        floor = fresh_spectrum(sys, res).lam_min
        assert floor >= target
        _, best = ef.brute_force_best(sys, len(res.indices), "max-of-lambda_min")
        assert best >= floor - 1e-12

    def test_size_floor(self):
        # fewer than n rows would be rank-deficient, contradicting the floor
        sys = fourier_system(ef.GridSpectrum(16, (0, 3, 8, 11)))
        res = ef.bss_unweighted(sys, 0.6)
        assert len(res.indices) >= sys.n

    def test_rejects_non_positive_d(self):
        with pytest.raises(ValueError):
            ef.bss_unweighted(fourier_system(ef.GridSpectrum(4, (0,))), 0.0)

    @pytest.mark.parametrize("route", ["grid", "dense"])
    def test_same_set_as_weighted_run(self, route):
        # the unweighted engine is the two-sided run read without weights
        for sys, d in seeded_coverage_cases(route):
            assert ef.bss_unweighted(sys, d) == ef.bss_select(sys, 1.0 + d)


class TestRitSelect:
    def test_identity_system(self):
        sys = ef.VectorSystem(np.eye(6))
        res = ef.rit_select(sys, 0.5)
        assert len(res.indices) >= 3
        assert math.isclose(fresh_gram_spectrum(sys, res).lam_min, 1.0, rel_tol=1e-12)

    def test_half_spectrum(self):
        sys = fourier_system(ef.GridSpectrum(8, (0, 1, 2, 3)))
        res = ef.rit_select(sys, 0.5)
        assert len(res.indices) >= 2
        spec = fresh_gram_spectrum(sys, res)
        assert spec.lam_min >= ef.riesz_floor_constant(0.5) * 0.5
        # the loop's decomposition after the last pick has the same extremes
        assert math.isclose(res.barrier_log[-1].lam_min, spec.lam_min, rel_tol=1e-9)
        assert math.isclose(res.barrier_log[-1].lam_max, spec.lam_max, rel_tol=1e-9)

    def test_singleton_case_exhaustive(self):
        # every singleton Gram equals n/m = 1/3, above 0.25 * (1/3)
        sys = fourier_system(ef.GridSpectrum(6, (0, 1)))
        res = ef.rit_select(sys, 0.75)
        assert len(res.indices) >= 1
        floor = ef.riesz_floor_constant(0.75) * 2 / 6
        for j in range(6):
            gram = gram_of(sys, [j])
            assert gram[0, 0].real >= floor
        assert fresh_gram_spectrum(sys, res).lam_min >= floor

    def test_log_tracks_barrier(self):
        sys = fourier_system(ef.GridSpectrum(16, (0, 1, 2, 3, 4, 5, 6, 7)))
        res = ef.rit_select(sys, 0.25)
        assert len(res.barrier_log) == len(res.indices)
        floors = [s.l for s in res.barrier_log]
        assert all(f > 0 for f in floors)

    def test_invalid_d(self):
        sys = fourier_system(ef.GridSpectrum(4, (0,)))
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidD):
                ef.rit_select(sys, bad)

    def test_rejects_non_parseval(self):
        # equal-norm rows whose outer sum is 2x the all-ones matrix, not I
        sys = ef.VectorSystem(np.full((4, 2), 0.5))
        with pytest.raises(NotParseval):
            ef.rit_select(sys, 0.5)


class TestUpperSelect:
    def test_rank_one(self):
        sys = fourier_system(ef.GridSpectrum(4, (0,)))
        res = ef.upper_select(sys, 1)
        assert len(res.indices) == 1
        assert math.isclose(fresh_spectrum(sys, res).lam_max, 0.25, rel_tol=1e-12)

    def test_two_cell_pair_matches_brute_force(self):
        sys = fourier_system(ef.GridSpectrum(4, (0, 1)))
        res = ef.upper_select(sys, 2)
        # oracle: exhaustive minimum of lambda_max over all 6 pairs
        _, best = ef.brute_force_best(sys, 2, "min-of-lambda_max")
        assert math.isclose(best, 0.5, rel_tol=1e-12)
        assert math.isclose(fresh_spectrum(sys, res).lam_max, best, rel_tol=1e-9)

    def test_full_selection(self):
        sys = fourier_system(ef.GridSpectrum(6, tuple(range(6))))
        res = ef.upper_select(sys, 6)
        assert res.indices == tuple(range(6))
        assert math.isclose(fresh_spectrum(sys, res).lam_max, 1.0, rel_tol=1e-10)

    @pytest.mark.parametrize("case", ["dense-not-parseval", "fourier"])
    def test_k_equal_to_m_takes_every_row_without_a_run(self, monkeypatch, case):
        if case == "fourier":
            sys = fourier_system(ef.GridSpectrum(8, (1, 4, 6)))
        else:
            sys = restart_system()

        def no_run(*args):
            raise AssertionError("k = m needs no greedy run")

        monkeypatch.setattr(selection, "_upper_run", no_run)
        res = ef.upper_select(sys, sys.m)
        assert res.indices == tuple(range(sys.m)) and res.barrier_log == ()
        # refused, as every k that is not an integer is
        with pytest.raises(ValueError) as exc:
            ef.upper_select(sys, float(sys.m))
        assert str(exc.value) == f"{float(sys.m)!r} is not an integer"

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            ef.upper_select(fourier_system(ef.GridSpectrum(4, (0,))), 5)

    def test_small_seeded_ensemble_ratio(self):
        for i in range(8):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(31, i)))
            cells = tuple(sorted(int(r) for r in rng.choice(32, size=4, replace=False)))
            sys = fourier_system(ef.GridSpectrum(32, cells))
            res = ef.upper_select(sys, 5)
            assert len(res.indices) == 5
            assert fresh_spectrum(sys, res).lam_max <= 20.0 * (4 / 32)


class TestBruteForce:
    def test_six_pair_hand_enumeration(self):
        sys = fourier_system(ef.GridSpectrum(4, (0, 1)))
        vecs = sys.vectors
        # independent oracle: closed-form 2x2 eigenvalues over all pairs
        best_hand, best_j = -1.0, None
        for pair in itertools.combinations(range(4), 2):
            s = sum(np.outer(vecs[i], vecs[i].conj()) for i in pair)
            lam = eig2_min(s[0, 0].real, s[1, 1].real, s[0, 1])
            if lam > best_hand + 1e-15:
                best_hand, best_j = lam, pair
        j, val = ef.brute_force_best(sys, 2, "max-of-lambda_min")
        assert j == best_j == (0, 2)
        assert math.isclose(val, best_hand, rel_tol=1e-12)
        assert math.isclose(val, 0.5, rel_tol=1e-12)

    def test_full_subset_is_parseval(self):
        sys = fourier_system(ef.GridSpectrum(5, (0, 2)))
        j, val = ef.brute_force_best(sys, 5, "max-of-lambda_min")
        assert j == tuple(range(5))
        assert math.isclose(val, 1.0, rel_tol=1e-10)
        j2, val2 = ef.brute_force_best(sys, 5, "min-of-lambda_max")
        assert math.isclose(val2, 1.0, rel_tol=1e-10)

    def test_oracle_dominates_engine(self):
        sys = fourier_system(ef.GridSpectrum(6, (0, 3)))
        res = ef.bss_unweighted(sys, 1.0)
        _, best = ef.brute_force_best(sys, len(res.indices), "max-of-lambda_min")
        floor = fresh_spectrum(sys, res).lam_min
        assert best >= floor - 1e-12
        assert floor >= ef.lower_certificate_constant(1.0) * 2 / 6

    def test_too_many_subsets(self):
        sys = ef.VectorSystem(np.eye(40))
        with pytest.raises(TooManySubsets):
            ef.brute_force_best(sys, 20, "max-of-lambda_min")

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            ef.brute_force_best(fourier_system(ef.GridSpectrum(4, (0,))), 1, "nope")


# --- closed-form candidate scoring --------------------------------------------
#
# The upper and Riesz engines score every candidate from one decomposition per
# step.  The oracle below takes the direct route: one eigvalsh per candidate on
# the explicitly bordered matrix.


def oracle_upper_scores(a, vectors, u_next):
    """Per-candidate feasibility and post-step upper potential by eigvalsh."""
    feasible, phi = [], []
    for v in vectors:
        trial = a + np.outer(v, v.conj())
        vals = np.linalg.eigvalsh(0.5 * (trial + trial.conj().T))
        ok = bool(vals[-1] < u_next)
        feasible.append(ok)
        phi.append(float(np.sum(1.0 / (u_next - vals))) if ok else math.inf)
    return np.array(feasible), np.array(phi)


def oracle_riesz_floor(sys, chosen, i):
    return float(np.linalg.eigvalsh(gram_of(sys, list(chosen) + [i]))[0])


def oracle_upper_run(sys, k, u0):
    """The per-candidate upper greedy with the engines' tie rule."""
    delta, u = u0 / k, u0
    a = np.zeros((sys.n, sys.n), dtype=complex)
    chosen = []
    for _ in range(k):
        u_next = u + delta
        feasible, phi = oracle_upper_scores(a, sys.vectors, u_next)
        cand = [i for i in range(sys.m) if feasible[i] and i not in chosen]
        if not cand:
            return None
        best = min(phi[i] for i in cand)
        pick = next(i for i in cand if phi[i] <= best * (1.0 + selection.TIE_RTOL))
        v = sys.vectors[pick]
        a = a + np.outer(v, v.conj())
        chosen.append(pick)
        u = u_next
    return chosen


def assert_tie_rule(scores, index, maximize):
    """index is the smallest free index within the tie tolerance of the best.

    scores maps each free index to its oracle score.  The oracle and the
    closed forms agree to ~1e-14, far inside TIE_RTOL, so a margin of 1e-13
    on either side keeps this check independent of rounding.
    """
    best = max(scores.values()) if maximize else min(scores.values())
    rel = selection.TIE_RTOL + 1e-13
    sign = -1.0 if maximize else 1.0
    assert sign * (scores[index] - best) <= rel * abs(best)
    for j, s in scores.items():
        if j < index:
            assert sign * (s - best) > (selection.TIE_RTOL - 1e-13) * abs(best)


def restart_system():
    # large rows: the first two barrier starts leave no feasible candidate
    rng = np.random.default_rng(0)
    return ef.VectorSystem(1.5 * (rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))))


def seeded_fourier(i, m):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(47, i)))
    n = int(rng.integers(2, m // 2 + 1))
    cells = tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False)))
    return fourier_system(ef.GridSpectrum(m, cells))


def full_states(sys, a):
    """The greedy's eigen-state of a, decomposed afresh, in both full-rank forms.

    The first holds all n columns of U, the second the rows' projections
    W = U* V^T on them, whatever form the engines take for sys.
    """
    lam, vecs = np.linalg.eigh(a)
    basis, rows = selection._EigState(sys), selection._EigState(sys)
    basis.lam = rows.lam = lam
    basis._w, basis.vecs = None, vecs
    rows._w, rows.vecs = vecs.conj().T @ sys.vectors.T, None
    return basis, rows


def replay_upper(sys, res):
    """Check every logged upper step, scored from U and from W, against the eigvalsh oracle."""
    a = np.zeros((sys.n, sys.n), dtype=complex)
    chosen = []
    for step in res.barrier_log:
        o_feasible, o_phi = oracle_upper_scores(a, sys.vectors, step.u)
        free = [i for i in range(sys.m) if i not in chosen]
        for state in full_states(sys, a):
            phi = selection._upper_scores(state, step.u)
            feasible = phi < np.inf
            assert list(feasible[free]) == list(o_feasible[free])
            for i in free:
                if o_feasible[i]:
                    assert math.isclose(phi[i], o_phi[i], rel_tol=1e-10)
        assert_tie_rule({i: o_phi[i] for i in free if o_feasible[i]}, step.index, False)
        assert math.isclose(step.phi_u, o_phi[step.index], rel_tol=1e-10)
        v = sys.vectors[step.index]
        a = a + np.outer(v, v.conj())
        chosen.append(step.index)
        vals = np.linalg.eigvalsh(a)
        assert math.isclose(step.lam_max, vals[-1], rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(step.lam_min, vals[0], rel_tol=1e-10, abs_tol=1e-12)


def replay_riesz(sys, res):
    """Check every logged Riesz step's candidate floors against eigvalsh."""
    chosen = []
    for step in res.barrier_log:
        free = [i for i in range(sys.m) if i not in chosen]
        oracle = {i: oracle_riesz_floor(sys, chosen, i) for i in free}
        if chosen:
            spec = ef.hermitian_eig(gram_of(sys, chosen))
            cross = sys.vectors[chosen] @ sys.vectors[free].conj().T
            w2 = np.abs(spec.eigenvectors.conj().T @ cross) ** 2
            norm2 = np.sum(np.abs(sys.vectors[free]) ** 2, axis=1)
            floors = selection._riesz_floors(spec.eigenvalues, w2, norm2)
            for i, f in zip(free, floors):
                assert abs(f - oracle[i]) <= 1e-10
        assert_tie_rule(oracle, step.index, True)
        assert abs(step.l - oracle[step.index]) <= 1e-10
        chosen.append(step.index)
        vals = np.linalg.eigvalsh(gram_of(sys, chosen))
        assert abs(step.lam_min - vals[0]) <= 1e-10
        assert abs(step.lam_max - vals[-1]) <= 1e-10


class TestClosedFormScoring:
    @pytest.mark.parametrize("i", range(6))
    def test_upper_matches_oracle_every_step(self, i):
        sys = seeded_fourier(i, (8, 16, 32)[i % 3])
        res = ef.upper_select(sys, min(sys.n + 1 + i % 2, sys.m))
        replay_upper(sys, res)

    @pytest.mark.parametrize("i", [*range(6), "m128-every-4th"])
    def test_riesz_matches_oracle_every_step(self, i):
        if i == "m128-every-4th":
            # screened steps whose dlaed4 batches merge and deflate poles
            sys, d = fourier_system(ef.GridSpectrum(128, tuple(range(0, 128, 4)))), 0.25
        else:
            sys, d = seeded_fourier(i, (8, 16, 32)[i % 3]), (0.25, 0.5)[i % 2]
        res = ef.rit_select(sys, d)
        replay_riesz(sys, res)

    def test_upper_restart_matches_oracle(self, monkeypatch):
        sys = restart_system()
        runs = []
        original = selection._upper_run

        def recording(s, k, u0):
            out = original(s, k, u0)
            runs.append((u0, out))
            return out

        monkeypatch.setattr(selection, "_upper_run", recording)
        res = ef.upper_select(sys, 4)
        assert len(runs) >= 2 and runs[0][1] is None
        for u0, out in runs:
            expected = oracle_upper_run(sys, 4, u0)
            assert (None if out is None else [step.index for step in out]) == expected
        replay_upper(sys, res)

    def test_orthogonal_rows_zero_weights(self):
        # two copies of a scaled basis: a free row orthogonal to every chosen
        # row has all secular weights exactly 0, and its floor is min(lam_1, rho2)
        sys = ef.VectorSystem(np.vstack([np.eye(3), np.eye(3)]) / math.sqrt(2.0))
        with np.errstate(all="raise"):
            floors = selection._riesz_floors(np.ones(3), np.zeros((3, 3)), np.ones(3))
            res = ef.rit_select(sys, 0.5)
            up = ef.upper_select(sys, 3)
        assert list(floors) == [1.0, 1.0, 1.0]
        assert res.indices == (0, 1)
        assert all(math.isclose(step.l, 0.5, rel_tol=1e-15) for step in res.barrier_log)
        replay_riesz(sys, res)
        assert up.indices == (0, 1, 2)
        replay_upper(sys, up)

    def test_clustered_gram_poles(self):
        # contiguous rows over contiguous cells: a Gram with a cluster of
        # near-zero eigenvalues and exact multiplicities elsewhere
        sys = fourier_system(ef.GridSpectrum(32, tuple(range(12))))
        for chosen in (list(range(8)), list(range(0, 32, 4))):
            free = [i for i in range(32) if i not in chosen]
            spec = ef.hermitian_eig(gram_of(sys, chosen))
            cross = sys.vectors[chosen] @ sys.vectors[free].conj().T
            w2 = np.abs(spec.eigenvectors.conj().T @ cross) ** 2
            floors = selection._riesz_floors(spec.eigenvalues, w2, np.full(len(free), 12 / 32))
            for i, f in zip(free, floors):
                assert abs(f - oracle_riesz_floor(sys, chosen, i)) <= 1e-10


class TestFourierRoute:
    @pytest.mark.parametrize("m,n", [(4, 1), (32, 31), (256, 64), (1024, 176), (4096, 8)])
    def test_grid_forms_match_generic_route(self, m, n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(53, m, n)))
        cells = tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False)))
        grid = fourier_system(ef.GridSpectrum(m, cells))
        generic = ef.VectorSystem(grid.vectors)
        # only fourier_system's systems take the FFT route; rows passed in,
        # even these same rows, measured Parseval and equal-norm, take the dense one
        assert grid._cell_diffs is not None
        assert generic._cell_diffs is None
        assert generic.parseval and generic.equal_norm
        with pytest.raises(TypeError):  # no grid claim on rows passed in
            ef.VectorSystem(grid.vectors, grid=(m, cells))
        x = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        h1, h2 = x[0] + x[0].conj().T, x[1] + x[1].conj().T
        for b in (h1, h1 + 1j * h2):
            ref = generic.quad_forms(b)
            assert np.abs(grid.quad_forms(b) - ref).max() <= 1e-12 * np.abs(ref).max()
        # h1 + i h2 packs the two Hermitian families as real and imaginary parts
        packed = grid.quad_forms(h1 + 1j * h2)
        for part, h in ((packed.real, h1), (packed.imag, h2)):
            ref = generic.quad_forms(h).real
            assert np.abs(part - ref).max() <= 1e-12 * np.abs(ref).max()


    @pytest.mark.parametrize("m,n", [(8, 3), (256, 64), (1024, 176)])
    def test_one_bincount_matches_two(self, m, n):
        # the interleaved gather sums each bin in the same order as one
        # bincount per part, so the forms are bit-identical
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(89, m, n)))
        r = np.sort(rng.choice(m, n, replace=False))
        grid = fourier_system(ef.GridSpectrum(m, tuple(int(c) for c in r)))
        diffs = ((r[None, :] - r[:, None]) % m).ravel()
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for b in (x + x.conj().T, (x + x.conj().T).T):  # C and Fortran order
            flat = b.ravel()
            real, imag = np.bincount(diffs, flat.real, m), np.bincount(diffs, flat.imag, m)
            ref = np.fft.ifft(real + 1j * imag)
            assert np.array_equal(grid.quad_forms(b).view(np.float64), ref.view(np.float64))


class TestDeterministicTies:
    @pytest.mark.parametrize("i", range(8))
    def test_residue_zero_always_selected(self, i):
        sys = seeded_fourier(i, (8, 16, 32, 64)[i % 4])
        up = ef.upper_select(sys, min(sys.n + 1, sys.m))
        rit = ef.rit_select(sys, (0.25, 0.5, 0.75)[i % 3])
        assert 0 in up.indices and 0 in rit.indices
        assert up.barrier_log[0].index == 0 and rit.barrier_log[0].index == 0

    @pytest.mark.parametrize("i", range(8))
    def test_bss_residue_zero_always_selected(self, i):
        # A = 0 and equal norms make step 0 an exact m-way tie; the dense
        # route's rounding spreads those scores, so it must apply the rule too
        sys = seeded_fourier(i, (8, 16, 32, 64)[i % 4])
        dense = ef.VectorSystem(sys.vectors)
        for system in (sys, dense):
            weighted = ef.bss_select(system, (1.5, 2.0, 3.0)[i % 3])
            unweighted = ef.bss_unweighted(system, (0.5, 1.0, 2.0)[i % 3])
            assert 0 in weighted.indices and 0 in unweighted.indices
            assert weighted.barrier_log[0].index == 0 and unweighted.barrier_log[0].index == 0

    @pytest.mark.parametrize("i", range(8))
    def test_routes_pick_the_same_sets(self, i):
        # the grid and dense routes round differently; the tie rule absorbs it
        sys = seeded_fourier(i, (8, 16, 32, 64)[i % 4])
        dense = ef.VectorSystem(sys.vectors)
        q, k = (1.5, 2.0, 3.0)[i % 3], min(sys.n + 1, sys.m)
        assert ef.bss_select(sys, q).indices == ef.bss_select(dense, q).indices
        assert ef.upper_select(sys, k).indices == ef.upper_select(dense, k).indices

    @pytest.mark.parametrize("q", [1.01, 1.02])
    def test_bss_tie_scale_covers_eigenvalue_error(self, q):
        # after row 0, A = t v0 v0* has rank one and rows 1, 3, 4, 5, 7 share
        # |v_j* v0|^2: an exact 5-way tie.  Eigenvalue rounding at the scale
        # of the weight t spreads the computed margins by ~1e-12 of the
        # scores, so the tie scale must cover that error too
        sys = fourier_system(ef.GridSpectrum(8, (0, 1, 5)))
        dense = ef.VectorSystem(sys.vectors)
        for system in (sys, dense):
            log = ef.bss_select(system, q).barrier_log
            assert [step.index for step in log[:3]] == [0, 1, 4]

    def test_infeasible_tie_pick_falls_to_smallest_feasible(self):
        # at d = 1e-4 the step-1 tie band spans every margin; its smallest
        # index, row 0, has U > L, so the smallest feasible index, row 1, wins
        sys = fourier_system(ef.GridSpectrum(8, (1, 3)))
        log = ef.bss_unweighted(sys, 1e-4).barrier_log
        assert [step.index for step in log] == [0, 1, 2]

    def test_pick_scale_sets_the_tolerance(self):
        # the tolerance is relative to the best score: near 0, a 1e-11 gap
        # is not a tie
        margins = np.array([-1e-11, 0.0, -1.0])
        assert selection._pick(margins, True) == 1

    def test_pick_prefers_smallest_index_within_tolerance(self):
        scores = np.array([1.0 + 5e-13, 1.0, 1.0 - 5e-13, 2.0])
        assert selection._pick(scores, maximize=False) == 0
        assert selection._pick(scores, maximize=True) == 3
        assert selection._pick(np.array([1.0, 1.0 + 1e-9]), maximize=True) == 1


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def eig_update_case(case, n=8):
    """(lam, U, v): a decomposition of A and the vector of the rank-one step."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(61, n)))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    if case == "zero-start":
        return np.zeros(n), np.eye(n, dtype=complex), v
    if case == "repeated":
        lam = np.repeat([0.0, 1.0, 2.5], [3, 3, n - 6])
        return lam, random_unitary(rng, n), v
    # zero coordinates: U is a phase diagonal, so z = U* v is exactly 0
    # wherever v is, both inside and outside a repeated eigenvalue
    lam = np.repeat([0.5, 2.0], [n // 2, n - n // 2])
    v[[0, 1, n - 1]] = 0.0
    return lam, np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n))), v


def eig_update(lam, vecs, v, t):
    """(lam', U') of U diag(lam) U* + t vv* with U = vecs, by _rank_one_update.

    The update rotates a copy of U^T in place, the one array it is given, as
    _EigState.add does at full rank, and the merge runs in a fresh workspace.
    """
    rows = np.ascontiguousarray(vecs.T)
    z = (v.conj() @ rows.T).conj()
    new_lam = selection._rank_one_update(lam, rows, z, t, selection._Merge(lam.size))
    return new_lam, rows.T


class TestEigUpdate:
    @pytest.mark.parametrize("case", ["zero-start", "repeated", "zero-coordinates"])
    @pytest.mark.parametrize("t", [1.0, 1e3])
    def test_decomposes_the_updated_sum(self, case, t):
        lam, vecs, v = eig_update_case(case)
        ref = (vecs * lam) @ vecs.conj().T + t * np.outer(v, v.conj())
        new_lam, new_vecs = eig_update(lam, vecs, v, t)
        assert np.all(np.diff(new_lam) >= 0.0)
        residual = (new_vecs * new_lam) @ new_vecs.conj().T - ref
        assert np.linalg.norm(residual, 2) <= 1e-13 * np.linalg.norm(ref, 2)
        unitarity = new_vecs.conj().T @ new_vecs - np.eye(lam.size)
        assert np.abs(unitarity).max() <= 1e-13

    def test_bss_loop_spectrum_matches_fresh_eigvalsh(self, monkeypatch):
        # 128 rank-one updates at (256, 64) against one eigvalsh of the
        # weighted sum reassembled from the log
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(67, 256, 64)))
        sys = fourier_system(ef.GridSpectrum(256, tuple(sorted(rng.choice(256, 64, replace=False)))))
        updates = []
        add = selection._EigState.add

        def recording(state, v, t):
            add(state, v, t)
            updates.append(state.lam.copy())

        monkeypatch.setattr(selection._EigState, "add", recording)
        res = ef.bss_select(sys, 2.0)
        assert len(updates) == len(res.barrier_log) == 128
        a = np.zeros((64, 64), dtype=complex)
        for step in res.barrier_log:
            v = sys.vectors[step.index]
            a += step.weight * np.outer(v, v.conj())
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(updates[-1], ref, rtol=1e-12, atol=0.0)


def run_with_rank_min_n(monkeypatch, rank_min_n, run):
    """run() with the eigen-state's crossover at rank_min_n."""
    with monkeypatch.context() as patch:
        patch.setattr(selection, "RANK_MIN_N", rank_min_n)
        return run()


# all-even cells at m = 64: rows j and j + 32 coincide, and the 24 rows the
# greedies pick first span only 23 directions
EVEN_CELLS = (0, 4, 6, 10, 14, 16, 18, 22, 24, 26, 28, 32, 34, 36, 38, 40, 42, 44, 50, 52, 54,
              56, 60, 62)


def rank_aware_systems():
    systems = [
        pytest.param(seeded_fourier(i, (8, 16, 32, 64, 128)[i % 5]), id=f"seeded-{i}")
        for i in range(10)
    ]
    return systems + [
        pytest.param(fourier_system(ef.GridSpectrum(8, (0, 2, 4, 6))), id="coincident-8"),
        pytest.param(fourier_system(ef.GridSpectrum(64, EVEN_CELLS)), id="even-64"),
        pytest.param(restart_system(), id="dense-rows"),  # not Parseval: upper_select only
    ]


class TestRankAwareState:
    """The partial-basis eigen-state against the full-rank loop."""

    @pytest.mark.parametrize("sys", rank_aware_systems())
    def test_same_picks_and_spectra_as_full_rank_loop(self, monkeypatch, sys):
        qs = (1.05, 2.0, 4.0) if sys.parseval else ()
        runs = [lambda q=q: ef.bss_select(sys, q) for q in qs if q * sys.n <= 10 * sys.m]
        runs.append(lambda: ef.upper_select(sys, min(sys.n + 1, sys.m)))
        for run in runs:
            # the reference loop: every step at full rank, n columns from step 0
            ref = run_with_rank_min_n(monkeypatch, sys.n + 1, run).barrier_log
            got = run_with_rank_min_n(monkeypatch, 1, run).barrier_log
            assert [step.index for step in got] == [step.index for step in ref]
            for a, b in zip(got, ref):
                scale = max(1.0, abs(b.lam_max))
                assert abs(a.lam_min - b.lam_min) <= 1e-11 * scale
                assert abs(a.lam_max - b.lam_max) <= 1e-11 * scale

    def test_coincident_row_is_deflated(self, monkeypatch):
        # rows 1 and 5 are equal, so the second adds no direction
        monkeypatch.setattr(selection, "RANK_MIN_N", 1)
        grid = fourier_system(ef.GridSpectrum(8, (0, 2, 4, 6)))
        sys = ef.VectorSystem(np.vstack([grid.vectors, np.zeros(4)]))  # row 8 is zero
        assert np.array_equal(sys.vectors[1], sys.vectors[5])
        state = selection._EigState(sys)
        state.add(8, 1.0)  # a zero row adds nothing
        assert state.vecs.shape == (4, 0) and np.array_equal(state.lam, np.zeros(4))
        state.add(1, 1.0)
        state.add(5, 2.0)
        assert state.vecs.shape == (4, 1)
        assert np.array_equal(state.lam[:3], np.zeros(3))
        assert math.isclose(state.lam[3], 3.0 * 0.5, rel_tol=1e-14)
        state.add(2, 1.0)  # a new direction
        assert state.vecs.shape == (4, 2)

    def test_engines_take_the_deflation_branch(self, monkeypatch):
        sys = fourier_system(ef.GridSpectrum(64, EVEN_CELLS))
        ranks = []
        add = selection._EigState.add

        def recording(state, v, t):
            before = state.vecs.shape[1]
            add(state, v, t)
            ranks.append((before, state.vecs.shape[1]))

        monkeypatch.setattr(selection._EigState, "add", recording)
        monkeypatch.setattr(selection, "RANK_MIN_N", 1)
        for run in (lambda: ef.bss_select(sys, 2.0), lambda: ef.upper_select(sys, 25)):
            ranks.clear()
            run()
            assert (23, 23) in ranks and ranks[-1][1] == 24

    @pytest.mark.parametrize(
        "n,start",
        [(3, "range"), (24, "range"), (3, "full"), (24, "full")],
        ids=["3", "24", "3-full", "24-full"],
    )
    def test_partial_basis_holds_the_sum(self, monkeypatch, n, start):
        # the range state from RANK_MIN_N on, the full-rank start U = I below
        monkeypatch.setattr(selection, "RANK_MIN_N", 1 if start == "range" else n + 1)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(83, n)))
        m = 4 * n
        sys = fourier_system(ef.GridSpectrum(m, tuple(sorted(rng.choice(m, n, replace=False)))))
        state = selection._EigState(sys)
        a = np.zeros((n, n), dtype=complex)
        for step, j in enumerate(rng.choice(m, n + 2, replace=False)):
            t = float(rng.uniform(0.5, 2.0))
            state.add(j, t)
            a += t * np.outer(sys.vectors[j], sys.vectors[j].conj())
            vecs, lam = state.vecs, state.lam
            r = vecs.shape[1]
            assert r == (min(step + 1, n) if start == "range" else n)
            # every update writes the basis into the state's one buffer
            assert np.shares_memory(vecs, state._rows)
            assert np.all(np.diff(lam) >= 0.0) and np.all(lam[: n - r] == 0.0)
            assert np.abs(vecs.conj().T @ vecs - np.eye(r)).max() <= 1e-13
            held = (vecs * lam[n - r :]) @ vecs.conj().T
            assert np.abs(held - a).max() <= 1e-13 * np.abs(a).max()
            # forms of U diag(c) U* with U = [null-space basis, vecs], the
            # null eigenvalues sharing c[0], on the dense route
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            c[: n - r] = c[0]
            q, _ = np.linalg.qr(np.concatenate((vecs, rng.normal(size=(n, n - r))), axis=1))
            u = np.concatenate((q[:, r:], vecs), axis=1)
            ref = ef.VectorSystem(sys.vectors).quad_forms((u * c) @ u.conj().T)
            assert np.abs(state.forms(c) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_crossover(self):
        # the range basis from RANK_MIN_N on; below it W where m < 3n, else U
        n0 = selection.RANK_MIN_N
        for n, m, r in ((n0 - 1, 3 * n0 - 3, n0 - 1), (n0, 2 * n0, 0), (n0, 4 * n0, 0)):
            state = selection._EigState(fourier_system(ef.GridSpectrum(m, tuple(range(n)))))
            assert state._w is None and state.vecs.shape == (n, r)
        grid = ef.GridSpectrum(3 * n0 - 4, tuple(range(n0 - 1)))
        state = selection._EigState(fourier_system(grid))
        assert state.vecs is None and state._w.shape == (n0 - 1, 3 * n0 - 4)


def route_systems():
    """Fourier and dense systems on each side of m = 3n, all below RANK_MIN_N.

    The orders sit below and above LAED_MIN_N, so both rank-one solves run;
    two Fourier systems have coincident rows.
    """
    cases = [
        pytest.param(fourier_system(ef.GridSpectrum(8, (0, 2, 4, 6))), id="coincident-8"),
        pytest.param(fourier_system(ef.GridSpectrum(64, EVEN_CELLS)), id="even-64"),
    ]
    for m, n in ((8, 3), (9, 3), (47, 16), (48, 16), (40, 24), (96, 24), (64, 60)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(101, m, n)))
        cells = tuple(sorted(int(c) for c in rng.choice(m, n, replace=False)))
        rows = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        cases += [
            pytest.param(fourier_system(ef.GridSpectrum(m, cells)), id=f"fourier-{m}-{n}"),
            pytest.param(ef.VectorSystem(rows), id=f"dense-{m}-{n}"),
        ]
    return cases


def spectral_coefficients(lam, top):
    """c_k = f(lam_k) for a complex f that is smooth on [0, top]."""
    s = 1.0 + 2.0 * top
    return 1.0 / (s - lam) + 1j / (s + lam) ** 2


def seeded_adds(sys, count, entropy):
    """(row, weight) pairs of a seeded run of adds; rows may repeat."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(entropy, sys.m, sys.n)))
    return [(int(j), float(t)) for j, t in zip(rng.integers(0, sys.m, count),
                                               rng.uniform(0.1, 10.0, count))]


class TestFullRankRoutes:
    """The eigen-state's full-rank forms, U and W, against a fresh dense eigh."""

    @pytest.mark.parametrize("sys", route_systems())
    def test_forms_match_fresh_eigh(self, sys):
        m, n = sys.m, sys.n
        state = selection._EigState(sys)
        # the one choice of form: the row projections exactly when m < 3n
        assert (state._w is not None) == (m < 3 * n) == (state.vecs is None)
        a = np.zeros((n, n), dtype=complex)
        for j, t in seeded_adds(sys, 2 * n, 103):
            state.add(j, t)
            v = sys.vectors[j]
            a += t * np.outer(v, v.conj())
            mu, u = np.linalg.eigh(a)
            assert np.all(np.diff(state.lam) >= 0.0)
            assert np.abs(state.lam - mu).max() <= 1e-12 * mu[-1]
            f_a = (u * spectral_coefficients(mu, mu[-1])) @ u.conj().T
            ref = np.einsum("ja,ab,jb->j", sys.vectors.conj(), f_a, sys.vectors)
            got = state.forms(spectral_coefficients(state.lam, mu[-1]))
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [32, 80], ids=["rows", "basis"])
    def test_states_advancing_alternately_match_lone_runs(self, m):
        # two states of one order, each with its own merge workspace, advance
        # in turn; each must take exactly the steps it takes alone
        n = 20
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(107, m)))
        systems = [
            fourier_system(ef.GridSpectrum(m, tuple(sorted(rng.choice(m, n, replace=False)))))
            for _ in range(2)
        ]

        def step(state, j, t):
            state.add(j, t)
            return state.lam.copy(), state.forms(spectral_coefficients(state.lam, state.lam[-1]))

        runs = [seeded_adds(sys, 2 * n, 107 + i) for i, sys in enumerate(systems)]
        alone = []
        for sys, run in zip(systems, runs):
            state = selection._EigState(sys)
            alone.append([step(state, j, t) for j, t in run])
        states = [selection._EigState(sys) for sys in systems]
        assert (states[0]._w is not None) == (m < 3 * n)
        assert states[0]._merge is not states[1]._merge
        for k in range(2 * n):
            for i, state in enumerate(states):
                lam, forms = step(state, *runs[i][k])
                assert np.array_equal(lam, alone[i][k][0])
                assert np.array_equal(forms, alone[i][k][1])


def solve_by(route, lam, w):
    """A route's decomposition of diag(lam) + w w^T; the LAPACK route must not refuse.

    The LAPACK route runs in a fresh workspace of lam's order.
    """
    if route == "laed":
        out = selection._laed_eigh(lam, w, selection._Merge(lam.size))
    else:
        out = selection._dense_eigh(lam, w)
    assert out is not None
    return out


def assert_rank_one_solution(lam, w, out):
    new_lam, q = out
    ref = np.diag(lam) + np.outer(w, w)
    assert np.all(np.diff(new_lam) >= 0.0)
    residual = (q * new_lam) @ q.T - ref
    assert np.linalg.norm(residual, 2) <= 1e-13 * np.linalg.norm(ref, 2)
    assert np.abs(q.T @ q - np.eye(lam.size)).max() <= 1e-13


def rank_one_input(rng, n, kind, lam_scale, w_scale):
    """(lam ascending, w) for diag(lam) + w w^T, of a kind that stresses deflation."""
    if kind == "zero-start":  # one distinct eigenvalue: all but one deflate
        lam = np.zeros(n)
    elif kind == "repeated":
        lam = np.sort(rng.choice([0.0, 1.0, 2.5], n)) * lam_scale
    else:
        lam = np.sort(rng.normal(size=n)) * lam_scale
    w = rng.normal(size=n) * w_scale
    if kind == "zero-coordinates":
        w[rng.random(n) < 0.4] = 0.0
        w[0] = w_scale
    return lam, w


@pytest.fixture
def laed_unavailable():
    """The OpenBLAS lookup finds nothing, as on a numpy without its bundled copy."""
    with openblas_loading(None):
        yield


def openblas_routines():
    """The OpenBLAS lookup's routines; skips the test when numpy bundles no OpenBLAS.

    A bundled library whose routines the lookup does not find fails the
    test instead: the engines would silently take their numpy routes.
    """
    if linalg._openblas_library() is None:
        pytest.skip("numpy carries no bundled OpenBLAS")
    routines = linalg._openblas_routines()
    assert routines is not None
    return routines


class TestRankOneRoutes:
    """The two routes of the rank-one solve, called directly."""

    @pytest.mark.parametrize("route", ["laed", "dense"])
    @pytest.mark.parametrize("case", ["zero-start", "repeated", "zero-coordinates"])
    @pytest.mark.parametrize("t", [1.0, 1e3])
    def test_eig_update_cases(self, route, case, t):
        if route == "laed":
            openblas_routines()
        lam, vecs, v = eig_update_case(case)
        w = math.sqrt(t) * np.abs(vecs.conj().T @ v)
        assert_rank_one_solution(lam, w, solve_by(route, lam, w))

    @pytest.mark.parametrize("route", ["laed", "dense"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 15, 16, 17, 33, 64, 120, 200])
    def test_sizes_scales_and_deflation(self, route, n):
        if route == "laed":
            openblas_routines()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(71, n)))
        for kind in ("zero-start", "repeated", "zero-coordinates", "distinct"):
            for lam_scale in (1e-8, 1.0, 1e3):
                for w_scale in (1e-8, 1e-3, 1.0, 1e3):
                    lam, w = rank_one_input(rng, n, kind, lam_scale, w_scale)
                    assert_rank_one_solution(lam, w, solve_by(route, lam, w))

    @pytest.mark.parametrize("n", [2, 3])
    def test_column_types_fit_below_four(self, n):
        # dlaed2 writes 4 column-type counts even when n < 4; a workspace
        # of n entries overruns the heap, which took the interpreter down
        openblas_routines()
        probe = (
            "import numpy as np\n"
            "from expframes import selection\n"
            "rng = np.random.default_rng(0)\n"
            "for _ in range(2000):\n"
            f"    lam, w = np.sort(rng.normal(size={n})), rng.normal(size={n})\n"
            f"    new_lam, q = selection._laed_eigh(lam, w, selection._Merge({n}))\n"
            "    ref = np.diag(lam) + np.outer(w, w)\n"
            "    assert np.abs((q * new_lam) @ q.T - ref).max() <= 1e-13 * np.abs(ref).max()\n"
            "print('ok')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ef.__file__).resolve().parents[1])}
        done = subprocess.run(
            [executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    @pytest.mark.parametrize("n", [2, selection.LAED_MIN_N - 1, selection.LAED_MIN_N, 40])
    def test_zero_vector_leaves_the_decomposition(self, n):
        # upper_select can pick a zero row of a dense Parseval system
        rng = np.random.default_rng(n)
        vecs = random_unitary(rng, n)
        for lam in (np.sort(rng.random(n)), np.sort(rng.choice([0.0, 1.0], n))):
            new_lam, new_vecs = eig_update(lam, vecs, np.zeros(n, dtype=complex), 2.0)
            assert np.array_equal(new_lam, lam) and np.array_equal(new_vecs, vecs)
            assert selection._laed_eigh(lam, np.zeros(n), selection._Merge(n)) is None

    @pytest.mark.parametrize(
        "orders",
        [(2,), (3,), (selection.LAED_MIN_N,), (41,), (2, 3, 16, 40, 41, 17, 2)],
        ids=["2", "3", str(selection.LAED_MIN_N), "41", "orders-2-to-41"],
    )
    def test_reused_workspace_matches_fresh_calls(self, orders):
        # one workspace of the largest order, poisoned with nan and -1 first,
        # serves every input, of any order up to its own, as a fresh one of
        # the input's order does: each call resets all that the routines read
        openblas_routines()
        merge = selection._Merge(max(orders))
        merge.flt.fill(np.nan)
        merge.ints.fill(-1)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(109, *orders)))
        for n in orders:
            for kind in ("zero-start", "repeated", "zero-coordinates", "distinct"):
                for lam_scale, w_scale in ((1e-8, 1.0), (1.0, 1e-3), (1e3, 1e3)):
                    lam, w = rank_one_input(rng, n, kind, lam_scale, w_scale)
                    ref_lam, ref_q = solve_by("laed", lam, w)
                    got = selection._laed_eigh(lam, w, merge)
                    assert got is not None
                    assert np.array_equal(got[0], ref_lam) and np.array_equal(got[1], ref_q)

    def test_lookup_not_found_takes_eigh(self, laed_unavailable):
        n = selection.LAED_MIN_N + 4
        lam, w = rank_one_input(np.random.default_rng(3), n, "distinct", 1.0, 1.0)
        assert linalg._openblas_routines() is None
        assert selection._laed_eigh(lam, w, selection._Merge(n)) is None
        got = selection._rank_one_eigh(lam, w, selection._Merge(n))
        ref = selection._dense_eigh(lam, w)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("failing", ["dlaed2", "dlaed3"])
    def test_info_nonzero_takes_eigh(self, monkeypatch, failing):
        def info_one(*args):  # INFO is the last argument of both routines
            ctypes.c_int64.from_address(args[-1]).value = 1

        monkeypatch.setitem(openblas_routines(), failing, info_one)
        n = selection.LAED_MIN_N + 4
        lam, w = rank_one_input(np.random.default_rng(5), n, "distinct", 1.0, 1.0)
        assert selection._laed_eigh(lam, w, selection._Merge(n)) is None
        got = selection._rank_one_eigh(lam, w, selection._Merge(n))
        ref = selection._dense_eigh(lam, w)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_fast_route_taken_from_the_crossover(self, monkeypatch):
        # without this, a renamed OpenBLAS symbol would silently fall back;
        # openblas_routines fails, not skips, where the library has no dlaed2
        openblas_routines()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(selection.np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        rng = np.random.default_rng(9)
        for n in (selection.LAED_MIN_N - 1, selection.LAED_MIN_N, 176):
            lam, vecs = np.sort(rng.random(n)), random_unitary(rng, n)
            eig_update(lam, vecs, rng.normal(size=n) + 1j * rng.normal(size=n), 1.0)
        assert calls == [(selection.LAED_MIN_N - 1,) * 2]

    @pytest.mark.parametrize("m,n", [(64, 16), (256, 64), (1024, 176)])
    def test_laed_and_eigh_pick_the_same_sets(self, monkeypatch, m, n):
        openblas_routines()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(73, m, n)))
        sys = fourier_system(ef.GridSpectrum(m, tuple(sorted(rng.choice(m, n, replace=False)))))
        picked = {}
        for route, min_n in (("laed", 2), ("dense", n + 1)):
            monkeypatch.setattr(selection, "LAED_MIN_N", min_n)
            picked[route] = (ef.bss_select(sys, 2.0).indices, ef.upper_select(sys, n + 1).indices)
        assert picked["laed"] == picked["dense"]


def eager_rit_picks(sys, d):
    """Picks of the Riesz greedy as it ran before the range state.

    The reference loop: a k x m matrix of the chosen rows' inner products,
    one complex eigh of the selected Gram per step, and the floor of every
    free row at every step, picked by the engines' tie rule.
    """
    m, n = sys.m, sys.n
    k = max(1, selection.safe_ceil((1.0 - d) * n))
    vectors = sys.vectors
    vectors_c = vectors.conj()
    norm2 = np.einsum("ij,ij->i", vectors, vectors_c).real
    cross = np.empty((k, m), dtype=complex)
    free = np.ones(m, dtype=bool)
    chosen = []
    for step in range(k):
        cand = np.flatnonzero(free)
        if step == 0:
            floors = norm2[cand]
        else:
            w2 = np.abs(vecs.conj().T @ cross[:step, cand]) ** 2
            floors = selection._riesz_floors(lam, w2, norm2[cand])
        best = int(cand[selection._pick(floors, maximize=True)])
        free[best] = False
        chosen.append(best)
        cross[step] = vectors_c @ vectors[best]
        lam, vecs = np.linalg.eigh(cross[: step + 1, chosen])
    return chosen


def rit_reference_cases():
    """(system, d): arithmetic-progression and seeded cells on grids up to m = 128."""
    cases = []
    for m in (16, 32, 64, 128):
        for step, offset in ((2, 0), (3, 1), (4, 0), (5, 2), (7, 1)):
            cells = tuple(range(offset, m, step))
            cases += [(fourier_system(ef.GridSpectrum(m, cells)), d) for d in (0.25, 0.6)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(97,)))
    for _ in range(24):
        m = int(rng.choice((8, 16, 32, 64, 96, 128)))
        n = int(rng.integers(1, m))
        cells = tuple(sorted(int(c) for c in rng.choice(m, n, replace=False)))
        d = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.999))))
        cases.append((fourier_system(ef.GridSpectrum(m, cells)), d))
    return cases


# a cli-mix Riesz request whose floors tie exactly at lam_1 = 0.75 in step 3:
# rows 3 and 7 both reach it, thr sits 1e-12 below lam_1, and the screen's
# quadratic form then has entries up to lam_1/(lam_1 - thr) = 1e12, so a
# screen that ignores their rounding drops row 3
TIE_CELLS = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15)
TIE_D = 0.6066665557516873


def count_floor_routes(monkeypatch):
    """Per step of rit_select, rows solved by each floor route and dlaed4 calls.

    "laed4" counts the rows _laed4_floors solved (None, the fallback, counts
    none), "calls" the dlaed4 calls and "vectorized" the rows _riesz_floors
    solved.
    """
    routes = {key: collections.Counter() for key in ("laed4", "calls", "vectorized")}
    now = [0]
    rit_floors, riesz_floors = selection._rit_floors, selection._riesz_floors
    laed4_floors, routines = selection._laed4_floors, linalg._openblas_routines()
    laed4 = None if routines is None else routines["dlaed4"]

    def at_step(state, step, *args):
        now[0] = step
        return rit_floors(state, step, *args)

    def vectorized(lam, w2, rho2, start=None):
        routes["vectorized"][now[0]] += w2.shape[1]
        return riesz_floors(lam, w2, rho2, start)

    def through_laed4(lam, w2, rho2):
        out = laed4_floors(lam, w2, rho2)
        routes["laed4"][now[0]] += 0 if out is None else w2.shape[1]
        return out

    def call(*args):
        routes["calls"][now[0]] += 1
        return laed4(*args)

    monkeypatch.setattr(selection, "_rit_floors", at_step)
    monkeypatch.setattr(selection, "_riesz_floors", vectorized)
    monkeypatch.setattr(selection, "_laed4_floors", through_laed4)
    if routines is not None:
        monkeypatch.setitem(routines, "dlaed4", call)
    return routes


# (RIT_BATCH, RIT_WORK): a batch of 1 or 2 with no work floor screens every
# step of these small systems that has more than 2 or 4 free rows; the
# defaults screen only the later steps at m = 128
SCREENS = [(1, 0), (2, 0), (selection.RIT_BATCH, selection.RIT_WORK)]


class TestRitScreen:
    """The range-state Riesz loop, screened or not, against the eager loop."""

    @pytest.mark.parametrize("batch,work", SCREENS)
    def test_same_picks_as_eager_loop(self, monkeypatch, batch, work):
        monkeypatch.setattr(selection, "RIT_BATCH", batch)
        monkeypatch.setattr(selection, "RIT_WORK", work)
        differ = []
        for sys, d in rit_reference_cases():
            got = [step.index for step in ef.rit_select(sys, d).barrier_log]
            if got != eager_rit_picks(sys, d):
                differ.append((sys.m, sys.n, d))
        assert differ == []

    @pytest.mark.parametrize("batch,work", SCREENS)
    def test_exact_tie_at_the_smallest_pole(self, monkeypatch, batch, work):
        monkeypatch.setattr(selection, "RIT_BATCH", batch)
        monkeypatch.setattr(selection, "RIT_WORK", work)
        routes = count_floor_routes(monkeypatch)
        sys = fourier_system(ef.GridSpectrum(16, TIE_CELLS))
        log = ef.rit_select(sys, TIE_D).barrier_log
        assert [step.index for step in log] == eager_rit_picks(sys, TIE_D) == [0, 2, 1, 3, 4, 6]
        assert math.isclose(log[3].l, 0.75, rel_tol=1e-14)
        assert math.isclose(log[2].lam_min, 0.75, rel_tol=1e-14)
        # the screened settings solve through dlaed4; at the defaults no
        # step of m = 16 is screened
        has_laed4 = linalg._openblas_routines() is not None
        assert (sum(routes["laed4"].values()) > 0) == (work == 0 and has_laed4)

    @pytest.mark.parametrize("m,n,d", [(512, 64, 0.25), (256, 64, 0.25), (256, 32, 0.5)])
    def test_benchmark_sizes_match_eager_loop(self, m, n, d):
        # the Riesz sizes of the bessel-riesz workload, under the default screen
        for seed in (1, 2):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(103, seed, m, n)))
            cells = tuple(sorted(int(c) for c in rng.choice(m, n, replace=False)))
            sys = fourier_system(ef.GridSpectrum(m, cells))
            got = [step.index for step in ef.rit_select(sys, d).barrier_log]
            assert got == eager_rit_picks(sys, d)

    @pytest.mark.parametrize("batch,work", SCREENS[::2])
    def test_orthogonal_rows(self, monkeypatch, batch, work):
        # free rows orthogonal to every pick have zero secular weights
        monkeypatch.setattr(selection, "RIT_BATCH", batch)
        monkeypatch.setattr(selection, "RIT_WORK", work)
        sys = ef.VectorSystem(np.vstack([np.eye(3), np.eye(3)]) / math.sqrt(2.0))
        for d in (0.01, 0.5):
            log = ef.rit_select(sys, d).barrier_log
            assert [step.index for step in log] == eager_rit_picks(sys, d)

    def test_screen_solves_few_rows(self, monkeypatch):
        # the bessel-riesz request (512, 64, 0.25): the floors solved are a
        # small share of the free rows summed over the steps; a screened step
        # solves its rows through dlaed4, one call per row, and an unscreened
        # step solves every free row through the vectorized solver
        openblas_routines()
        m = 512
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(101, m, 64)))
        sys = fourier_system(ef.GridSpectrum(m, tuple(sorted(rng.choice(m, 64, replace=False)))))
        routes = count_floor_routes(monkeypatch)
        log = ef.rit_select(sys, 0.25).barrier_log
        assert len(log) == 48
        steps = range(1, len(log))  # the rank of the picks' sum is the step
        screened = [s for s in steps if m - s > 2 * selection.RIT_BATCH
                    and (m - s) * s >= selection.RIT_WORK]
        assert 0 < len(screened) < len(steps)
        for s in steps:
            if s in screened:
                assert routes["vectorized"][s] == 0
                assert routes["calls"][s] == routes["laed4"][s] >= selection.RIT_BATCH
            else:
                assert routes["laed4"][s] == routes["calls"][s] == 0
                assert routes["vectorized"][s] == m - s
        solved = sum(routes["laed4"].values()) + sum(routes["vectorized"].values())
        assert solved < 0.25 * sum(m - s for s in steps)

    def test_warm_start_keeps_the_floors(self):
        # floors of a smaller selection bound the floors of a larger one
        # (Cauchy interlacing); started there, the solver finds the same roots
        sys = fourier_system(ef.GridSpectrum(32, tuple(range(0, 32, 3))))
        chosen, free = [0, 5, 9, 14, 21], [i for i in range(32) if i not in (0, 5, 9, 14, 21)]
        norm2 = np.full(len(free), 11 / 32)

        def floors(rows, start=None):
            spec = ef.hermitian_eig(gram_of(sys, rows))
            cross = sys.vectors[rows] @ sys.vectors[free].conj().T
            w2 = np.abs(spec.eigenvectors.conj().T @ cross) ** 2
            return selection._riesz_floors(spec.eigenvalues, w2, norm2, start)

        bounds = floors(chosen[:-1])
        cold, warm = floors(chosen), floors(chosen, bounds)
        assert np.all(bounds >= cold - 1e-15)
        assert np.abs(warm - cold).max() <= 1e-15
        for i, f in zip(free, warm):
            assert abs(f - oracle_riesz_floor(sys, chosen, i)) <= 1e-12


def laed4_floors(sys, chosen, free):
    """The dlaed4 route's floors of the free rows, from the engine's range state."""
    state = selection._EigState(sys, _range_only=True)
    for i in chosen:
        state.add(i, 1.0)
    r = state.vecs.shape[1]
    w2 = np.abs(state.vecs.T @ sys.vectors[free].conj().T) ** 2
    norm2 = np.sum(np.abs(sys.vectors[free]) ** 2, axis=1)
    floors = selection._laed4_floors(state.lam[sys.n - r :], w2, norm2)
    assert floors is not None
    return floors


def assert_oracle_floors(sys, chosen, free, floors):
    for i, f in zip(free, floors):
        assert abs(f - oracle_riesz_floor(sys, chosen, i)) <= 1e-12


class TestLaed4Floors:
    """The screened steps' solver, one dlaed4 call per row, against eigvalsh."""

    @pytest.fixture(autouse=True)
    def laed4(self):
        openblas_routines()

    def test_rows_in_the_span_and_orthogonal_rows(self):
        # two copies of a scaled basis, rows 0 and 1 picked: rows 3 and 4 lie
        # in their span (no residual, floor 0), rows 2 and 5 are orthogonal to
        # both (every weight on lam deflates; the floor is min(lam_1, rho2))
        sys = ef.VectorSystem(np.vstack([np.eye(3), np.eye(3)]) / math.sqrt(2.0))
        free = [2, 3, 4, 5]
        with np.errstate(all="raise"):
            floors = laed4_floors(sys, [0, 1], free)
        assert floors[1] == floors[2] == 0.0
        assert np.allclose(floors[[0, 3]], 0.5, rtol=1e-15, atol=0.0)
        assert_oracle_floors(sys, [0, 1], free, floors)

    def test_full_rank_picks_leave_floor_zero(self):
        # n rows in general position span C^n: every free row is in the span
        sys = fourier_system(ef.GridSpectrum(16, (1, 4, 6, 11)))
        chosen, free = [0, 3, 5, 9], [i for i in range(16) if i not in (0, 3, 5, 9)]
        with np.errstate(all="raise"):  # rho2 - sum w2 rounds below 0 here
            floors = laed4_floors(sys, chosen, free)
        assert np.all(floors >= 0.0)
        assert_oracle_floors(sys, chosen, free, floors)

    def test_coincident_poles_at_the_tie(self):
        # after the tie system's first three picks rows 3 and 7 both have
        # floor lam_1 = 0.75 exactly: their weight on that pole deflates
        sys = fourier_system(ef.GridSpectrum(16, TIE_CELLS))
        chosen = [0, 2, 1]
        free = [i for i in range(16) if i not in chosen]
        floors = laed4_floors(sys, chosen, free)
        assert_oracle_floors(sys, chosen, free, floors)
        for i in (3, 7):
            assert math.isclose(floors[free.index(i)], 0.75, rel_tol=1e-14)

    def test_repeated_poles_are_merged(self, monkeypatch):
        # every eighth row over cells 0..11 of m = 32: the picks' sum has
        # eigenvalues 0.25 and 0.5, four times each, and dlaed4 wants
        # strictly increasing poles, so each repeated one is merged first
        routines, orders = openblas_routines(), []
        laed4 = routines["dlaed4"]

        def checking(n, i, d, *rest):
            order = ctypes.c_int64.from_address(n).value
            poles = np.ctypeslib.as_array((ctypes.c_double * order).from_address(d))
            assert np.all(np.diff(poles) > 0.0)
            orders.append(order)
            return laed4(n, i, d, *rest)

        monkeypatch.setitem(routines, "dlaed4", checking)
        sys = fourier_system(ef.GridSpectrum(32, tuple(range(12))))
        chosen = list(range(0, 32, 4))
        free = [i for i in range(32) if i not in chosen]
        assert_oracle_floors(sys, chosen, free, laed4_floors(sys, chosen, free))
        assert len(orders) == len(free) and max(orders) == 3  # poles 0, 0.25, 0.5

    def test_clustered_poles(self):
        sys = fourier_system(ef.GridSpectrum(32, tuple(range(12))))
        chosen = list(range(8))
        free = [i for i in range(32) if i not in chosen]
        assert_oracle_floors(sys, chosen, free, laed4_floors(sys, chosen, free))

    @pytest.mark.parametrize("i", range(4))
    def test_seeded_selections(self, i):
        sys = seeded_fourier(i, (32, 64)[i % 2])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(107, i)))
        chosen = [int(c) for c in rng.choice(sys.m, int(rng.integers(1, sys.n + 1)), replace=False)]
        free = [j for j in range(sys.m) if j not in chosen]
        assert_oracle_floors(sys, chosen, free, laed4_floors(sys, chosen, free))

    def test_info_nonzero_takes_the_vectorized_solve(self, monkeypatch):
        def info_one(*args):  # INFO is the last argument
            ctypes.c_int64.from_address(args[-1]).value = 1

        sys = fourier_system(ef.GridSpectrum(128, tuple(range(0, 128, 5))))
        expected = eager_rit_picks(sys, 0.25)
        monkeypatch.setitem(openblas_routines(), "dlaed4", info_one)
        routes = count_floor_routes(monkeypatch)
        monkeypatch.setattr(selection, "RIT_WORK", 0)
        assert [step.index for step in ef.rit_select(sys, 0.25).barrier_log] == expected
        assert sum(routes["laed4"].values()) == 0
        assert sum(routes["calls"].values()) > 0


def test_no_laed4_takes_the_vectorized_solve(laed_unavailable, monkeypatch):
    # a BLAS without dlaed4: every screened solve falls back, same picks
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(101, 512, 64)))
    sys = fourier_system(ef.GridSpectrum(512, tuple(sorted(rng.choice(512, 64, replace=False)))))
    assert linalg._openblas_routines() is None
    expected = eager_rit_picks(sys, 0.25)
    routes = count_floor_routes(monkeypatch)
    got = [step.index for step in ef.rit_select(sys, 0.25).barrier_log]
    assert got == expected
    assert sum(routes["laed4"].values()) == sum(routes["calls"].values()) == 0
    assert sum(routes["vectorized"].values()) < 0.25 * sum(512 - s for s in range(1, len(got)))


class TestRitSize:
    def test_rounded_top_eigenvalue_does_not_add_a_row(self):
        # ||T||^2 evaluates to 4 - 4e-16 here, so a plain ceiling of
        # (1-d)*m/||T||^2 = 1 + 2e-16 would select 2 rows instead of 1
        sys = fourier_system(ef.GridSpectrum(8, (2, 4)))
        res = ef.rit_select(sys, 0.5)
        assert len(res.indices) == math.ceil(0.5 * 2) == 1
        assert len(build_riesz(ef.GridSpectrum(8, (2, 4)), 0.5).sampling_set.residues) == 1


def solve_orders(sys, log):
    """Order of each step's rank-one solve: the rank of the sum after the pick.

    Below RANK_MIN_N the eigen-state holds all n columns from the start.
    From RANK_MIN_N on it starts empty, and the first pick is decomposed in
    closed form, with no solve.
    """
    n = sys.n
    if n < selection.RANK_MIN_N:
        return [n] * len(log)
    picks = [step.index for step in log]
    return [int(np.linalg.matrix_rank(sys.vectors[picks[: s + 1]])) for s in range(1, len(picks))]


def seeded_system(m, n):
    """The Fourier system of n seeded random cells of Z_m."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(113, m, n)))
    return fourier_system(ef.GridSpectrum(m, tuple(sorted(rng.choice(m, n, replace=False)))))


class TestWorkCount:
    """Decompositions per call, counted instead of timed.

    One decomposition per pick in each greedy loop.  Every loop updates the
    eigen-state of its running sum by one real rank-one solve per pick
    (_EigState.add), through whichever route ran: LAPACK's rank-one merge
    ("laed", counted when it returns a result) or a real eigh; no loop
    makes a complex eigh call.  A pick into an empty state, A = 0, is
    decomposed in closed form instead ("closed").  Each eigen-state of order
    LAED_MIN_N or more builds one merge workspace ("workspaces"), in which
    all its merges run; no other is built.  While the running sum
    has rank r < n (from RANK_MIN_N on, and at every n in the Riesz loop),
    the solve has order r + 1, or r when the pick adds no direction; at
    full rank, and below RANK_MIN_N, it has order n.  The engines certify
    nothing and size the Riesz selection without a decomposition, so they
    make no hermitian_eig call, and no candidate gets its own eigvalsh call.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        keys = ("eig", "eigh", "eigh_real", "eigh_complex", "eigvalsh", "laed", "closed", "steps",
                "workspaces")
        tally = dict.fromkeys(keys + ("runs",), 0)
        tally["orders"] = []
        add = selection._EigState.add

        def counting_add(state, j, t):
            tally["closed"] += state._w is None and state.vecs.shape[1] == 0
            return add(state, j, t)

        monkeypatch.setattr(selection._EigState, "add", counting_add)
        rank_one = selection._rank_one_eigh
        monkeypatch.setattr(
            selection,
            "_rank_one_eigh",
            lambda lam, w, merge: tally["orders"].append(lam.size) or rank_one(lam, w, merge),
        )

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                tally[key] += 1
                if key == "eigh":
                    tally["eigh_complex" if np.iscomplexobj(args[0]) else "eigh_real"] += 1
                return fn(*args, **kwargs)

            return wrapped

        def counting_laed(lam, w, merge):
            out = laed(lam, w, merge)
            tally["laed"] += out is not None
            return out

        laed = selection._laed_eigh
        monkeypatch.setattr(selection, "_laed_eigh", counting_laed)

        monkeypatch.setattr(selection, "hermitian_eig", counting("eig", selection.hermitian_eig))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(
                selection.np.linalg, name, counting(name, getattr(selection.np.linalg, name))
            )
        monkeypatch.setattr(selection, "_upper_scores", counting("steps", selection._upper_scores))
        monkeypatch.setattr(selection, "_upper_run", counting("runs", selection._upper_run))
        monkeypatch.setattr(selection, "_Merge", counting("workspaces", selection._Merge))
        return tally

    RUNS = {
        "riesz": lambda sys: ef.rit_select(sys, 0.25),
        "two-sided": lambda sys: ef.bss_select(sys, 2.0),
        "upper": lambda sys: ef.upper_select(sys, sys.n + 1),
    }

    @pytest.mark.parametrize("engine", sorted(RUNS))
    @pytest.mark.parametrize("small", [False, True], ids=["merging", "below-merge-order"])
    def test_one_workspace_serves_every_merge_order(self, counts, engine, small):
        # the Riesz state merges at orders 2..24, the others' range states at
        # 2..n and then n: every merge from LAED_MIN_N on runs in the one
        # workspace of order n that the state built.  Below LAED_MIN_N no
        # merge runs, and no workspace is built.
        n0 = selection.LAED_MIN_N
        if small:
            sys = seeded_system(64, n0 - 1)
        elif engine == "riesz":
            sys = seeded_system(256, 32)
        else:
            sys = seeded_system(4 * selection.RANK_MIN_N, selection.RANK_MIN_N)
        self.RUNS[engine](sys)
        orders = counts["orders"]
        assert counts["runs"] <= 1  # no restart of the upper greedy
        assert counts["laed"] == sum(k >= n0 for k in orders)
        if small:
            assert orders and counts["workspaces"] == 0
        else:
            assert min(orders) < n0 < max(orders)
            assert counts["workspaces"] == 1

    @pytest.mark.parametrize("case", ["fourier", "restart"])
    def test_upper_select(self, counts, case):
        self.check_upper_select(counts, case)

    @pytest.mark.parametrize("case", ["fourier", "restart"])
    def test_upper_select_partial_basis(self, counts, monkeypatch, case):
        monkeypatch.setattr(selection, "RANK_MIN_N", 1)
        self.check_upper_select(counts, case)

    @staticmethod
    def check_upper_select(counts, case):
        if case == "fourier":
            sys, k = fourier_system(ef.GridSpectrum(64, tuple(range(0, 64, 5)))), 14
        else:
            sys, k = restart_system(), 4
        res = ef.upper_select(sys, k)
        restarts = counts["runs"] - 1
        assert counts["eigvalsh"] == 0
        assert counts["eig"] == counts["eigh_complex"] == 0
        # one rank-one solve per pick but the closed-form ones; a failed run
        # scores one step it cannot pick
        solves = counts["eigh_real"] + counts["laed"]
        assert solves == len(counts["orders"]) == counts["steps"] - restarts - counts["closed"]
        if case == "restart":
            assert restarts >= 1
        # the last run's solves, one per logged pick but a closed-form first
        last = solve_orders(sys, res.barrier_log)
        assert counts["orders"][len(counts["orders"]) - len(last) :] == last

    def test_rit_select(self, counts):
        # n = 22 < RANK_MIN_N: the Riesz state still holds only the range
        sys = fourier_system(ef.GridSpectrum(64, tuple(range(0, 64, 3))))
        res = ef.rit_select(sys, 0.25)
        log = res.barrier_log
        assert counts["eigvalsh"] == 0
        assert counts["eig"] == counts["eigh_complex"] == 0
        # one rank-one solve per pick after the first, which is closed form
        assert counts["closed"] == 1
        assert counts["eigh_real"] + counts["laed"] == len(log) - 1
        picks = [step.index for step in log]
        ranks = [int(np.linalg.matrix_rank(sys.vectors[picks[: s + 1]])) for s in range(len(picks))]
        assert ranks == list(range(1, len(log) + 1))
        assert counts["orders"] == ranks[1:]

    def test_bss_select(self, counts):
        self.check_bss_select(counts)

    def test_bss_select_partial_basis(self, counts, monkeypatch):
        monkeypatch.setattr(selection, "RANK_MIN_N", 1)
        self.check_bss_select(counts)

    @staticmethod
    def check_bss_select(counts):
        sys = fourier_system(ef.GridSpectrum(64, tuple(range(0, 64, 3))))
        res = ef.bss_select(sys, 2.0)
        assert counts["eigvalsh"] == 0
        assert counts["eig"] == counts["eigh_complex"] == 0
        assert counts["eigh_real"] + counts["laed"] == len(res.barrier_log) - counts["closed"]
        assert counts["orders"] == solve_orders(sys, res.barrier_log)

    def test_bss_select_rank_deficient_at_the_default_crossover(self, counts):
        # n = RANK_MIN_N: the first pick is closed form, then steps 2..n
        # solve orders 2, ..., n
        n = selection.RANK_MIN_N
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(79, n)))
        cells = tuple(sorted(rng.choice(4 * n, n, replace=False)))
        sys = fourier_system(ef.GridSpectrum(4 * n, cells))
        res = ef.bss_select(sys, 1.5)
        assert counts["orders"] == solve_orders(sys, res.barrier_log)
        assert counts["closed"] == 1
        assert counts["orders"][: n - 1] == list(range(2, n + 1))

    def test_bss_unweighted_stops_at_full_coverage(self, counts):
        # a cli-mix sampling request whose greedy picks all 32 rows by step 32
        # of its 163
        cells = (0, 1, 3, 4, 5, 7, 8, 10, 11, 12, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24,
                 25, 26, 28, 30, 31)
        d = 5.483235128541909
        res = ef.bss_unweighted(fourier_system(ef.GridSpectrum(32, cells)), d)
        log = res.barrier_log
        assert res.indices == tuple(range(32))
        assert counts["eig"] == counts["eigh_complex"] == 0
        solves = counts["eigh_real"] + counts["laed"]
        assert solves == len(log) < selection.safe_ceil((1.0 + d) * 25)
        picked_before = {step.index for step in log[:-1]}
        assert len(picked_before) == 31 and log[-1].index not in picked_before

    def test_bss_unweighted_covering_on_last_step_runs_every_step(self, counts):
        # ceil(4 * 16) = 64 = m steps, each picking a new row: the run covers
        # only on its last step, so nothing is saved and the ratio guard runs
        cells = (0, 5, 6, 7, 10, 13, 20, 31, 33, 34, 39, 41, 47, 51, 54, 56)
        sys = fourier_system(ef.GridSpectrum(64, cells))
        res = ef.bss_unweighted(sys, 3.0)
        assert res.indices == tuple(range(64))
        solves = counts["eigh_real"] + counts["laed"]
        assert len(res.barrier_log) == solves == selection.safe_ceil(4.0 * 16)
        assert res.barrier_log == ef.bss_select(sys, 4.0).barrier_log
