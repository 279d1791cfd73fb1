import itertools
import json
import math

import numpy as np
import pytest

import expframes as ef
from expframes import selection
from expframes.construct import build_riesz, fourier_system
from expframes.errors import (
    InvalidD,
    KTooLarge,
    NotParseval,
    TooManySubsets,
)


def fresh_spectrum(sys, res):
    """hermitian_eig of a selection's (weighted) outer sum, from its indices alone."""
    return ef.hermitian_eig(sys.outer_sum(res.indices, res.weights or None))


def fresh_gram_spectrum(sys, res):
    """hermitian_eig of the coefficient Gram of a Riesz selection."""
    return ef.hermitian_eig(sys.gram_of(res.indices))


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
        with pytest.raises(NotParseval):
            ef.VectorSystem(np.array([[1.0, 0.0], [0.0, 0.5]]), parseval=True)

    def test_equal_norm_validation(self):
        vecs = np.array([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            ef.VectorSystem(vecs, equal_norm=True)

    def test_fourier_rows_qualify(self):
        sys = fourier_system(ef.GridSpectrum(8, (0, 3, 5)))
        assert sys.parseval and sys.equal_norm and sys.m == 8 and sys.n == 3


class TestBssSelect:
    def test_rank_one_rescaled_to_one(self):
        sys = fourier_system(ef.GridSpectrum(4, (0,)))
        res = ef.bss_select(sys, 2.0)
        assert len(res.indices) <= math.ceil(2.0)
        spec = fresh_spectrum(sys, res)
        assert math.isclose(spec.lam_min, 1.0, rel_tol=1e-12)
        assert math.isclose(spec.lam_max, 1.0, rel_tol=1e-12)

    def test_step_budget_covering_all_rows(self):
        # ceil(q*n) = m: the loop may pick every row; certificates still hold
        sys = fourier_system(ef.GridSpectrum(4, (0, 1)))
        res = ef.bss_select(sys, 2.0)
        assert len(res.indices) <= math.ceil(2.0 * 2)
        spec = fresh_spectrum(sys, res)
        assert math.isclose(spec.lam_min, 1.0, rel_tol=1e-9)
        assert spec.lam_max / spec.lam_min <= ef.condition_ratio_bound(2.0) * (1 + 1e-9)

    def test_real_run_certificate_and_log(self):
        sys = fourier_system(ef.GridSpectrum(8, (0, 1)))
        res = ef.bss_select(sys, 2.0)
        bound = ef.condition_ratio_bound(2.0)
        assert len(res.indices) <= 4
        spec = fresh_spectrum(sys, res)
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
        # the loop's last extremes, rescaled by 1/lam_min, are the fresh
        # extremes of the rescaled weighted sum
        last = res.barrier_log[-1]
        spec = fresh_spectrum(sys, res)
        assert math.isclose(spec.lam_min, 1.0, rel_tol=1e-9)
        assert math.isclose(spec.lam_max, last.lam_max / last.lam_min, rel_tol=1e-9)
        assert spec.lam_max <= ef.condition_ratio_bound(1.8) * (1.0 + 1e-9)

    def test_identity_system_full_selection(self):
        sys = ef.VectorSystem(np.eye(4), parseval=True, equal_norm=True)
        res = ef.bss_select(sys, 1.5)
        assert res.indices == (0, 1, 2, 3)
        assert max(res.weights) / min(res.weights) == 1.0
        spec = fresh_spectrum(sys, res)
        assert math.isclose(spec.lam_max / spec.lam_min, 1.0)

    def test_rejects_bad_input(self):
        sys = ef.VectorSystem(np.eye(3) * 0.5)
        with pytest.raises(NotParseval):
            ef.bss_select(sys, 2.0)
        with pytest.raises(ValueError):
            ef.bss_select(fourier_system(ef.GridSpectrum(4, (0,))), 1.0)

    def test_determinism_byte_identical(self):
        sys = fourier_system(ef.GridSpectrum(16, (1, 4, 9, 12)))
        a = json.dumps(ef.bss_select(sys, 1.7).to_dict())
        b = json.dumps(ef.bss_select(sys, 1.7).to_dict())
        assert a == b

    def test_trajectory_replayed_through_resolvent_quadratics(self):
        # independent replication: rebuild the running sum from the log and
        # recompute every step's scores with the public resolvent operation
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
                q1u, q2u = ef.resolvent_quadratics(a, u_next, v)
                q1l, q2l = ef.resolvent_quadratics(a, l_next, v)
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
            assert res.weights == ()
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


class TestRitSelect:
    def test_identity_system(self):
        sys = ef.VectorSystem(np.eye(6), parseval=True, equal_norm=True)
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
            gram = sys.gram_of([j])
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
        sys = ef.VectorSystem(np.full((4, 2), 0.5), equal_norm=True)
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
    return float(np.linalg.eigvalsh(sys.gram_of(list(chosen) + [i]))[0])


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


def replay_upper(sys, res):
    """Check every logged upper step against the eigvalsh oracle."""
    a = np.zeros((sys.n, sys.n), dtype=complex)
    chosen = []
    for step in res.barrier_log:
        feasible, phi = selection._upper_scores(sys, *np.linalg.eigh(a), step.u)
        o_feasible, o_phi = oracle_upper_scores(a, sys.vectors, step.u)
        free = [i for i in range(sys.m) if i not in chosen]
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
            spec = ef.hermitian_eig(sys.gram_of(chosen))
            cross = sys.vectors[chosen] @ sys.vectors[free].conj().T
            w2 = np.abs(spec.eigenvectors.conj().T @ cross) ** 2
            norm2 = np.sum(np.abs(sys.vectors[free]) ** 2, axis=1)
            floors = selection._riesz_floors(spec.eigenvalues, w2, norm2)
            for i, f in zip(free, floors):
                assert abs(f - oracle[i]) <= 1e-10
        assert_tie_rule(oracle, step.index, True)
        assert abs(step.l - oracle[step.index]) <= 1e-10
        chosen.append(step.index)
        vals = np.linalg.eigvalsh(sys.gram_of(chosen))
        assert abs(step.lam_min - vals[0]) <= 1e-10
        assert abs(step.lam_max - vals[-1]) <= 1e-10


class TestClosedFormScoring:
    @pytest.mark.parametrize("i", range(6))
    def test_upper_matches_oracle_every_step(self, i):
        sys = seeded_fourier(i, (8, 16, 32)[i % 3])
        res = ef.upper_select(sys, min(sys.n + 1 + i % 2, sys.m))
        replay_upper(sys, res)

    @pytest.mark.parametrize("i", range(6))
    def test_riesz_matches_oracle_every_step(self, i):
        sys = seeded_fourier(i, (8, 16, 32)[i % 3])
        res = ef.rit_select(sys, (0.25, 0.5)[i % 2])
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
        sys = ef.VectorSystem(
            np.vstack([np.eye(3), np.eye(3)]) / math.sqrt(2.0), parseval=True, equal_norm=True
        )
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
            spec = ef.hermitian_eig(sys.gram_of(chosen))
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
        assert grid.grid == (m, cells) and generic.grid is None
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

    def test_grid_mismatch_raises(self):
        rows = fourier_system(ef.GridSpectrum(8, (0, 3, 5))).vectors
        for grid in ((8, (0, 3, 6)), (8, (0, 5, 3)), (16, (0, 3, 5)), (8, (0, 3)), (8, (0, 3, 8))):
            with pytest.raises(ValueError):
                ef.VectorSystem(rows, grid=grid)
        with pytest.raises(ValueError):
            ef.VectorSystem(rows.conj(), grid=(8, (0, 3, 5)))
        assert ef.VectorSystem(rows, grid=(8, [0, 3, 5])).grid == (8, (0, 3, 5))


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
        dense = ef.VectorSystem(sys.vectors, parseval=True, equal_norm=True)
        for system in (sys, dense):
            weighted = ef.bss_select(system, (1.5, 2.0, 3.0)[i % 3])
            unweighted = ef.bss_unweighted(system, (0.5, 1.0, 2.0)[i % 3])
            assert 0 in weighted.indices and 0 in unweighted.indices
            assert weighted.barrier_log[0].index == 0 and unweighted.barrier_log[0].index == 0

    @pytest.mark.parametrize("i", range(8))
    def test_routes_pick_the_same_sets(self, i):
        # the grid and dense routes round differently; the tie rule absorbs it
        sys = seeded_fourier(i, (8, 16, 32, 64)[i % 4])
        dense = ef.VectorSystem(sys.vectors, parseval=True, equal_norm=True)
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
        dense = ef.VectorSystem(sys.vectors, parseval=True, equal_norm=True)
        for system in (sys, dense):
            log = ef.bss_select(system, q).barrier_log
            assert [step.index for step in log[:3]] == [0, 1, 4]

    def test_pick_scale_sets_the_tolerance(self):
        # margins are differences of scores near 1e3: a 1e-11 gap is rounding
        margins = np.array([-1e-11, 0.0, -1.0])
        assert selection._pick(margins, True) == 1
        assert selection._pick(margins, True, 2e3) == 0

    def test_pick_prefers_smallest_index_within_tolerance(self):
        scores = np.array([1.0 + 5e-13, 1.0, 1.0 - 5e-13, 2.0])
        assert selection._pick(scores, maximize=False) == 0
        assert selection._pick(scores, maximize=True) == 3
        assert selection._pick(np.array([1.0, 1.0 + 1e-9]), maximize=True) == 1
        assert selection._pick(np.array([]), maximize=True) == -1


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


class TestEigUpdate:
    @pytest.mark.parametrize("case", ["zero-start", "repeated", "zero-coordinates"])
    @pytest.mark.parametrize("t", [1.0, 1e3])
    def test_decomposes_the_updated_sum(self, case, t):
        lam, vecs, v = eig_update_case(case)
        ref = (vecs * lam) @ vecs.conj().T + t * np.outer(v, v.conj())
        new_lam, new_vecs = selection._eig_update(lam, vecs, v, t)
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
        original = selection._eig_update

        def recording(*args):
            updates.append(original(*args))
            return updates[-1]

        monkeypatch.setattr(selection, "_eig_update", recording)
        res = ef.bss_select(sys, 2.0)
        assert len(updates) == len(res.barrier_log) == 128
        a = np.zeros((64, 64), dtype=complex)
        for step in res.barrier_log:
            v = sys.vectors[step.index]
            a += step.weight * np.outer(v, v.conj())
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(updates[-1][0], ref, rtol=1e-12, atol=0.0)


class TestRitSize:
    def test_rounded_top_eigenvalue_does_not_add_a_row(self):
        # ||T||^2 evaluates to 4 - 4e-16 here, so a plain ceiling of
        # (1-d)*m/||T||^2 = 1 + 2e-16 would select 2 rows instead of 1
        sys = fourier_system(ef.GridSpectrum(8, (2, 4)))
        res = ef.rit_select(sys, 0.5)
        assert len(res.indices) == math.ceil(0.5 * 2) == 1
        assert len(build_riesz(ef.GridSpectrum(8, (2, 4)), 0.5).sampling_set.residues) == 1


class TestWorkCount:
    """Decompositions per call, counted instead of timed.

    Every decomposition goes through np.linalg.eigh: one per pick in each
    greedy loop.  The two-sided and upper loops update their decomposition
    by one real eigh per rank-one step (_eig_update), so they make no
    complex eigh call at all.  The engines certify nothing and size the
    Riesz selection without a decomposition, so they make no hermitian_eig
    call, and no candidate gets its own eigvalsh call.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        tally = dict.fromkeys(
            ("eig", "eigh", "eigh_real", "eigh_complex", "eigvalsh", "steps", "runs"), 0
        )

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                tally[key] += 1
                if key == "eigh":
                    tally["eigh_complex" if np.iscomplexobj(args[0]) else "eigh_real"] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(selection, "hermitian_eig", counting("eig", selection.hermitian_eig))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(
                selection.np.linalg, name, counting(name, getattr(selection.np.linalg, name))
            )
        monkeypatch.setattr(selection, "_upper_scores", counting("steps", selection._upper_scores))
        monkeypatch.setattr(selection, "_upper_run", counting("runs", selection._upper_run))
        return tally

    @pytest.mark.parametrize("case", ["fourier", "restart"])
    def test_upper_select(self, counts, case):
        if case == "fourier":
            sys, k = fourier_system(ef.GridSpectrum(64, tuple(range(0, 64, 5)))), 14
        else:
            sys, k = restart_system(), 4
        ef.upper_select(sys, k)
        restarts = counts["runs"] - 1
        assert counts["eigvalsh"] == 0
        assert counts["eig"] == counts["eigh_complex"] == 0
        # one update per pick; a failed run scores one step it cannot pick
        assert counts["eigh_real"] == counts["steps"] - restarts
        if case == "restart":
            assert restarts >= 1

    def test_rit_select(self, counts):
        res = ef.rit_select(fourier_system(ef.GridSpectrum(64, tuple(range(0, 64, 3)))), 0.25)
        assert counts["eigvalsh"] == 0
        assert counts["eig"] == 0
        assert counts["eigh"] == len(res.barrier_log)

    def test_bss_select(self, counts):
        res = ef.bss_select(fourier_system(ef.GridSpectrum(64, tuple(range(0, 64, 3)))), 2.0)
        assert counts["eigvalsh"] == 0
        assert counts["eig"] == counts["eigh_complex"] == 0
        assert counts["eigh_real"] == len(res.barrier_log)
