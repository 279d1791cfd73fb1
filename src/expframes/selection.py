"""Deterministic row-selection engines for Parseval vector systems.

Four selectors over a finite system {v_i} in complex n-space:

* bss_select      -- two-sided barrier greedy with positive weights; the
                     selected weighted sum has condition ratio at most the
                     twice-Ramanujan bound ((sqrt(q)+1)/(sqrt(q)-1))^2 at
                     oversampling q, with |J| <= ceil(q*n).
* bss_unweighted  -- drops the weights for equal-norm systems; the
                     unweighted sum keeps the eigenvalue floor C(d) * n/m.
* rit_select      -- restricted-invertibility style lower-barrier greedy:
                     picks ceil((1-d)*n) rows whose Gram stays above
                     (1-sqrt(1-d))^2 * n/m.
* upper_select    -- upper-barrier greedy picking exactly k rows with a small
                     top eigenvalue (Bessel-type bound).

The greedy loops keep one eigendecomposition per step and score every
candidate in closed form from it (barrier shifts for the two-sided engine,
Sherman-Morrison for the upper potential, a secular equation for the
bordered Gram floor).  Each step picks, then updates or decomposes, then
logs.  The two-sided and upper engines add one rank-one term per step and
update their decomposition by one real eigh (_eig_update) instead of
decomposing the running sum; the Riesz engine decomposes its growing Gram
with a bare np.linalg.eigh.  The scores depend only on the spectral
projections, not on eigenvector phases, and only steer the greedy.  The
two-sided and upper engines read their scores as quadratic forms of one
n x n matrix (VectorSystem.quad_forms), which a Fourier grid system
evaluates with one FFT.  The engines only select: they certify nothing, and
the bounds of a built set are computed once, by expframes.verify.
brute_force_best is the exhaustive oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from .errors import (
    CertificateFailed,
    InvalidD,
    KTooLarge,
    NoFeasibleCandidate,
    NotParseval,
    TooManySubsets,
)
# No engine decomposes through hermitian_eig; the name stays a module
# attribute because bench/tracing.py wraps it here to count such calls.
from .linalg import hermitian_eig  # noqa: F401

PARSEVAL_RTOL = 1e-10
EQUAL_NORM_RTOL = 1e-10
# Forgiveness for floating-point noise in the U <= L feasibility comparison;
# the builders' bounds are still recomputed exactly afterwards.
FEASIBILITY_SLACK = 1e-9
RATIO_SLACK = 1e-9
# Greedy engines: candidate scores within this relative distance of the best
# are ties, broken to the smallest index.  The two-sided engine's margins are
# differences of scores, so its scale is the largest |U| + |L| plus the
# scores' sensitivity to eigenvalue rounding (see bss_select); without that
# term the margins of an exact tie were seen 1.8e-12 of |U| + |L| apart.
TIE_RTOL = 1e-12
# Riesz secular solver: Gram eigenvalues this close (relative) to the
# smallest share one pole, and the iteration cap (a few iterations is usual).
SECULAR_MERGE_RTOL = 1e-14
SECULAR_MAX_ITER = 100
# Largest deviation of a grid system's rows, scaled by sqrt(m) to unit
# modulus, from exact Fourier rows.
GRID_ATOL = 1e-10


def safe_ceil(x: float) -> int:
    """Ceiling with a 1e-9 backoff, so float dust cannot bump an exact integer."""
    return math.ceil(x - 1e-9)


def condition_ratio_bound(q: float) -> float:
    """Certified lambda_max/lambda_min bound of the two-sided selection."""
    s = math.sqrt(q)
    return ((s + 1.0) / (s - 1.0)) ** 2


def lower_certificate_constant(d: float) -> float:
    """Unweighted eigenvalue floor constant ((sqrt(1+d)-1)/(sqrt(1+d)+1))^2."""
    s = math.sqrt(1.0 + d)
    return ((s - 1.0) / (s + 1.0)) ** 2


def riesz_floor_constant(d: float) -> float:
    """Restricted-invertibility floor constant (1-sqrt(1-d))^2 for d in (0,1)."""
    return (1.0 - math.sqrt(1.0 - d)) ** 2


@dataclass(frozen=True)
class VectorSystem:
    """Finite family of m vectors in complex n-space, stored as rows.

    With parseval=True the rows must resolve the identity (sum of v v* = I);
    with equal_norm=True every squared norm must equal n/m.  grid=(m, cells)
    declares the rows to be the normalized Fourier rows
    v_j = (1/sqrt(m)) (e^{2i pi j r/m})_{r in cells}, j = 0..m-1, which lets
    quad_forms use an FFT.  All checks run at construction time.
    """

    vectors: np.ndarray
    parseval: bool = False
    equal_norm: bool = False
    grid: Optional[tuple[int, tuple[int, ...]]] = None
    # Grid systems: (r_b - r_a) mod m for every entry (a, b) of an n x n matrix.
    _cell_diffs: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vectors must form a nonempty 2-d array (m, n)")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("vector entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)
        m, n = arr.shape
        if self.parseval:
            s = arr.T @ arr.conj()
            err = float(np.linalg.norm(s - np.eye(n)))
            if err > PARSEVAL_RTOL * math.sqrt(n):
                raise NotParseval(f"identity residual {err:.3e} exceeds tolerance")
        if self.equal_norm:
            norms2 = np.sum(np.abs(arr) ** 2, axis=1)
            target = n / m
            err = float(np.abs(norms2 - target).max())
            if err > EQUAL_NORM_RTOL * max(1.0, target):
                raise ValueError(f"row norm deviation {err:.3e} exceeds tolerance")
        if self.grid is not None:
            self._check_grid(arr)

    def _check_grid(self, arr: np.ndarray) -> None:
        """Validate grid=(m, cells) against the rows and index the cell differences."""
        m, cells = int(self.grid[0]), tuple(int(r) for r in self.grid[1])
        object.__setattr__(self, "grid", (m, cells))
        if (m, len(cells)) != arr.shape:
            raise ValueError(f"grid ({m}, {len(cells)} cells) does not match rows {arr.shape}")
        r = np.asarray(cells, dtype=np.int64)
        roots = np.exp(2.0j * np.pi * np.arange(m) / m)
        err = float(np.abs(math.sqrt(m) * arr - roots[np.outer(np.arange(m), r) % m]).max())
        if err > GRID_ATOL:
            raise ValueError(f"rows deviate from the grid's Fourier rows by {err:.3e}")
        object.__setattr__(self, "_cell_diffs", ((r[None, :] - r[:, None]) % m).ravel())

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def quad_forms(self, b: np.ndarray) -> np.ndarray:
        """Complex quadratic forms v_j* b v_j of every row j, for any n x n b.

        A grid system gathers b's entries along each cell difference
        d = r_b - r_a mod m and takes one inverse FFT of length m, since
        v_j* b v_j = (1/m) sum_d e^{2i pi j d/m} sum_{r_b - r_a = d} b[a, b]:
        O(n^2 + m log m).  Any other system takes the dense O(n^2 m) route.
        For Hermitian b the forms are real; b = H1 + i H2 with H1, H2
        Hermitian returns both families at once as real and imaginary parts.
        """
        if self._cell_diffs is None:
            return ((self.vectors.conj() @ b) * self.vectors).sum(axis=1)
        flat = np.asarray(b, dtype=np.complex128).ravel()
        real = np.bincount(self._cell_diffs, flat.real, self.m)
        imag = np.bincount(self._cell_diffs, flat.imag, self.m)
        return np.fft.ifft(real + 1j * imag)

    def outer_sum(self, indices: Iterable[int], weights: Optional[Iterable[float]] = None) -> np.ndarray:
        """Hermitian n x n sum of (weighted) outer products over the indices."""
        idx = list(indices)
        sel = self.vectors[idx]
        if weights is None:
            a = sel.T @ sel.conj()
        else:
            w = np.asarray(list(weights), dtype=np.float64)
            a = (sel.T * w) @ sel.conj()
        return 0.5 * (a + a.conj().T)

    def gram_of(self, indices: Iterable[int]) -> np.ndarray:
        """Hermitian |J| x |J| Gram matrix <v_a, v_b> of the selected rows."""
        sel = self.vectors[list(indices)]
        g = sel @ sel.conj().T
        return 0.5 * (g + g.conj().T)


@dataclass(frozen=True)
class BarrierStep:
    """One greedy step: barrier positions, potentials and the chosen index."""

    step: int
    u: Optional[float]
    l: Optional[float]
    phi_u: Optional[float]
    phi_l: Optional[float]
    index: int
    weight: float
    lam_min: float
    lam_max: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "u": self.u,
            "l": self.l,
            "phi_u": self.phi_u,
            "phi_l": self.phi_l,
            "index": self.index,
            "weight": self.weight,
            "lam_min": self.lam_min,
            "lam_max": self.lam_max,
        }


@dataclass(frozen=True)
class SelectionResult:
    """Chosen index set, weights and the engine's parameter.

    weights is empty for the unweighted engines, otherwise parallel to
    indices.  No bound is carried: the builders certify a selection once,
    through expframes.verify, and barrier_log holds only the loop's own
    per-step trajectory.  barrier_log is empty when a degenerate shortcut
    returned the full index set.
    """

    indices: tuple[int, ...]
    weights: tuple[float, ...]
    target_q: float
    barrier_log: tuple[BarrierStep, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "weights": list(self.weights),
            "q": self.target_q,
            "steps": [s.to_dict() for s in self.barrier_log],
        }


def _full_selection(sys: VectorSystem, q: float, weighted: bool) -> SelectionResult:
    """Degenerate regime: return every index (unit weights when weighted)."""
    idx = tuple(range(sys.m))
    return SelectionResult(idx, (1.0,) * sys.m if weighted else (), q)


def bss_select(sys: VectorSystem, q: float) -> SelectionResult:
    """Two-sided weighted barrier selection at oversampling q > 1.

    Runs ceil(q*n) greedy steps.  At each step the upper barrier u and lower
    barrier l advance by fixed increments; a candidate i is feasible when its
    upper score U(v_i) does not exceed its lower score L(v_i), and the added
    weight is the reciprocal midpoint 2/(U+L).  The schedule

        delta_l = 1, eps_l = 1/sqrt(q), l0 = -n*sqrt(q),
        delta_u = (sqrt(q)+1)/(sqrt(q)-1),
        eps_u = (sqrt(q)-1)/(sqrt(q)*(sqrt(q)+1)), u0 = n/eps_u

    keeps both potentials bounded and yields a final condition ratio of at
    most condition_ratio_bound(q).  Weights are rescaled at the end so the
    weighted sum's lambda_min is 1.  Indices may be picked repeatedly;
    weight then accumulates and |indices| counts distinct picks.

    Ties: a candidate's margin L - U is a difference, so its rounding scales
    with the scores, not with the margin.  An eigenvalue's rounding error
    is about eps * max|lam|, and max|lam| grows with the weights; it moves
    a score by up to eps times

        s = max_i ||v_i||^2 * max|lam| * max_k (|g_u'(lam_k)| + |g_l'(lam_k)|).

    Margins within TIE_RTOL * (max_i(|U(v_i)| + |L(v_i)|) + s) of the best
    are tied, and the smallest index among them wins.  Step 0 is an exact
    m-way tie on every equal-norm system, so row 0 is always selected.

    The loop keeps A = U diag(lam) U* and updates it by one rank-one step per
    pick (_eig_update); both scores of every candidate are the real and
    imaginary parts of the quadratic forms of U diag(g_u + i g_l) U*.  A
    step costs one real n x n eigh, two n x n products, then
    O(n^2 + m log m) on a Fourier grid system.  The ratio guard and the
    weight scale read the loop's last eigenvalues; no bound is returned.

    Raises NoFeasibleCandidate if no index satisfies U <= L (a parameter or
    numerical fault; the engine never relaxes the condition silently), and
    CertificateFailed if the loop's final ratio exceeds the bound.
    """
    if not sys.parseval:
        raise NotParseval("bss_select requires a Parseval system")
    if not q > 1.0:
        raise ValueError("oversampling q must exceed 1")
    m, n = sys.m, sys.n
    # Compared before the ceiling, which overflows when q*n is infinite.
    if q * n > 10 * m:
        shown = math.ceil(q * n) if math.isfinite(q * n) else "inf"
        raise ValueError(f"step budget ceil(q*n)={shown} exceeds the 10*m cap")
    steps = math.ceil(q * n)
    if n == m:
        # The identity is the unique Parseval completion; unit weights keep it.
        return _full_selection(sys, q, weighted=True)

    sq = math.sqrt(q)
    delta_l, delta_u = 1.0, (sq + 1.0) / (sq - 1.0)
    eps_u = (sq - 1.0) / (sq * (sq + 1.0))
    lower, upper = -n * sq, n / eps_u

    lam, vecs = np.zeros(n), np.eye(n, dtype=np.complex128)  # A = 0
    phi_u, phi_l = n / upper, -n / lower
    norm2_max = float(np.max(np.einsum("ij,ij->i", sys.vectors, sys.vectors.conj()).real))
    weights: dict[int, float] = {}
    log: list[BarrierStep] = []

    for step in range(steps):
        u_next, l_next = upper + delta_u, lower + delta_l
        gaps_u = u_next - lam
        gaps_l = lam - l_next
        if gaps_u.min() <= 0.0 or gaps_l.min() <= 0.0:
            raise NoFeasibleCandidate(f"barrier crossed the spectrum at step {step}")
        inv_u, inv_l = 1.0 / gaps_u, 1.0 / gaps_l
        denom_u = phi_u - float(np.sum(inv_u))
        denom_l = float(np.sum(inv_l)) - phi_l
        if denom_u <= 0.0 or denom_l <= 0.0:
            raise NoFeasibleCandidate(f"potential shift degenerate at step {step}")

        # U(v) = v*(u'-A)^-2 v / denom_u + v*(u'-A)^-1 v and its lower mirror,
        # both as quadratic forms of one packed matrix.
        g_u = inv_u**2 / denom_u + inv_u
        g_l = inv_l**2 / denom_l - inv_l
        forms = sys.quad_forms((vecs * (g_u + 1j * g_l)) @ vecs.conj().T)
        score_u, score_l = forms.real, forms.imag
        margin = score_l - score_u
        # Tie scale: the size of the scores plus their sensitivity s to the
        # eigenvalues' rounding (see "Ties" above).
        dg_u = 2.0 * inv_u**3 / denom_u + inv_u**2
        dg_l = -2.0 * inv_l**3 / denom_l + inv_l**2
        sens = norm2_max * max(abs(lam[0]), abs(lam[-1])) * float(np.max(dg_u + np.abs(dg_l)))
        chosen = _pick(margin, True, float(np.max(np.abs(score_u) + np.abs(score_l))) + sens)
        slack = FEASIBILITY_SLACK * max(1.0, abs(score_u[chosen]), abs(score_l[chosen]))
        if margin[chosen] < -slack:
            raise NoFeasibleCandidate(
                f"no index with U <= L at step {step} (best margin {margin[chosen]:.3e})"
            )
        t = 2.0 / (score_u[chosen] + score_l[chosen])
        if not (t > 0.0 and math.isfinite(t)):
            raise NoFeasibleCandidate(f"non-positive weight at step {step}")

        weights[chosen] = weights.get(chosen, 0.0) + t
        upper, lower = u_next, l_next
        lam, vecs = _eig_update(lam, vecs, sys.vectors[chosen], t)
        phi_u = float(np.sum(1.0 / (upper - lam)))
        phi_l = float(np.sum(1.0 / (lam - lower)))
        log.append(
            BarrierStep(
                step=step,
                u=upper,
                l=lower,
                phi_u=phi_u,
                phi_l=phi_l,
                index=chosen,
                weight=t,
                lam_min=float(lam[0]),
                lam_max=float(lam[-1]),
            )
        )

    bound = condition_ratio_bound(q)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    if lam_min <= 0.0 or lam_max / lam_min > bound * (1.0 + RATIO_SLACK):
        raise CertificateFailed(f"condition ratio {lam_max / lam_min:.6g} exceeds {bound:.6g}")
    scale = 1.0 / lam_min
    indices = tuple(sorted(weights))
    return SelectionResult(indices, tuple(weights[i] * scale for i in indices), q, tuple(log))


def bss_unweighted(sys: VectorSystem, d: float) -> SelectionResult:
    """Weight-free selection for equal-norm Parseval systems.

    Runs bss_select at q = 1+d and returns the same index set without
    weights.  Each weight is at most lambda_max * m/n, so the unweighted sum
    inherits the floor lambda_min >= lower_certificate_constant(d) * n/m;
    build_sampling checks that floor on the bounds verify computes.
    """
    if not d > 0.0:
        raise ValueError("d must be positive")
    if not sys.equal_norm:
        raise ValueError("bss_unweighted requires an equal-norm system")
    return replace(bss_select(sys, 1.0 + d), weights=())


def rit_select(sys: VectorSystem, d: float) -> SelectionResult:
    """Lower-barrier greedy keeping a (1-d) proportion of rows invertible.

    Selects k = ceil((1-d) * m / ||T||^2) distinct rows, where ||T||^2 is the
    top eigenvalue of the full outer sum under unit-vector normalization.
    The system must be Parseval and equal-norm, so the outer sum is I,
    ||T||^2 = m/n and k = ceil((1-d)*n) with no decomposition; the ceiling
    backs off by 1e-9 (safe_ceil) so float dust cannot add a row.  Each
    step adds the candidate maximizing the smallest eigenvalue of the
    selected coefficient Gram, i.e. the clearance above the moving lower
    barrier.  Candidates whose floor lies within TIE_RTOL (relative) of the
    best count as tied, and the smallest index among them wins; step 0 is
    such a tie for every equal-norm system, so row 0 is always selected.

    Per step every free candidate's floor is the lowest root of its secular
    equation (_riesz_floors) in the eigenbasis G = Q diag(lam) Q* of the
    k_s x k_s Gram of the selection, which is decomposed once after each
    pick; a step costs one small eigendecomposition plus
    O((k_s^2 + n) * m) work for all m candidates.  The m x m Gram is never
    formed.  The floor (1-sqrt(1-d))^2 * n/m of the final Gram is checked by
    build_riesz, on the bounds verify computes.
    """
    if not sys.parseval:
        raise NotParseval("rit_select requires a Parseval system")
    if not (0.0 < d < 1.0):
        raise InvalidD(f"d must lie in (0, 1), got {d}")
    if not sys.equal_norm:
        raise ValueError("rit_select requires an equal-norm system")
    m, n = sys.m, sys.n
    if n == m:
        return _full_selection(sys, d, weighted=False)

    k = max(1, safe_ceil((1.0 - d) * n))
    vectors = sys.vectors
    vectors_c = vectors.conj()
    norm2 = np.einsum("ij,ij->i", vectors, vectors_c).real
    # cross[s, i] = <v_{chosen[s]}, v_i>: the selected rows of the Gram.
    cross = np.empty((k, m), dtype=np.complex128)
    free = np.ones(m, dtype=bool)
    chosen: list[int] = []
    log: list[BarrierStep] = []
    for step in range(k):
        cand = np.flatnonzero(free)
        if step == 0:
            floors = norm2[cand]
        else:
            w2 = np.abs(vecs.conj().T @ cross[:step, cand]) ** 2
            floors = _riesz_floors(lam, w2, norm2[cand])
        pos = _pick(floors, maximize=True)
        if pos < 0:
            raise CertificateFailed("ran out of candidates")
        best = int(cand[pos])
        free[best] = False
        chosen.append(best)
        cross[step] = vectors_c @ vectors[best]
        lam, vecs = np.linalg.eigh(cross[: step + 1, chosen])
        log.append(
            BarrierStep(step, None, float(floors[pos]), None, None, best, 1.0, float(lam[0]), float(lam[-1]))
        )
    return SelectionResult(tuple(sorted(chosen)), (), d, tuple(log))


def _riesz_floors(lam: np.ndarray, w2: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each bordered matrix [[diag(lam), w], [w*, rho2]].

    lam holds the ascending eigenvalues of the selected Gram (k,), w2 the
    squared moduli of each candidate's Gram column in that eigenbasis
    (k, c), rho2 the candidates' squared norms (c,).  The floor is the
    lowest root of the secular function

        f(mu) = rho2 - mu - sum_t w2_t / (lam_t - mu),

    which is concave and decreasing below lam_1.  Eigenvalues within
    SECULAR_MERGE_RTOL of lam_1 are merged into one pole of weight P (the
    root moves by at most that much).  Each iteration keeps this pole exact,
    replaces the other terms psi by their tangent at the current point
    (convexity puts the tangent below psi), and moves to the lowest root of
    the resulting quadratic.  Started at the root of the one-pole truncation,
    which lies at or above the true root, the iterates decrease
    monotonically to it.  With P = 0 the pole drops out and the floor is
    min(lam_1, root of the rest), which the same formula yields.  A floor
    still moving after SECULAR_MAX_ITER iterations stays an upper estimate;
    floors only steer the greedy, the certificate is computed afresh.
    """
    scale = max(float(lam[-1]), float(rho2.max()), np.finfo(float).tiny)
    pole = float(lam[0])
    near = lam <= pole + SECULAR_MERGE_RTOL * scale
    pw = w2[near].sum(axis=0)
    rest_lam = lam[~near][:, None]
    rest_w2 = w2[~near]

    def model_root(e, alpha, weight):
        # lowest root of alpha * (e - mu) * (pole - mu) = weight
        return 0.5 * ((e + pole) - np.sqrt((e - pole) ** 2 + 4.0 * weight / alpha))

    mu = model_root(rho2, 1.0, pw)
    if rest_lam.size == 0:
        return mu
    active = np.arange(mu.size)
    tol = 8.0 * np.finfo(float).eps * scale
    for _ in range(SECULAR_MAX_ITER):
        cur = mu[active]
        inv = 1.0 / (rest_lam - cur)
        terms = (rest_w2 if active.size == mu.size else rest_w2[:, active]) * inv
        psi = terms.sum(axis=0)
        dpsi = np.einsum("tc,tc->c", terms, inv)
        alpha = 1.0 + dpsi
        e = (rho2[active] - psi + dpsi * cur) / alpha
        new = np.minimum(model_root(e, alpha, pw[active]), cur)
        mu[active] = new
        active = active[cur - new > tol]
        if active.size == 0:
            break
    return mu


def upper_select(sys: VectorSystem, k: int) -> SelectionResult:
    """Upper-barrier greedy choosing exactly k rows with small top eigenvalue.

    The barrier starts at u0 = 2*(n/m)*k and advances by u0/k per step; each
    step picks the unused candidate minimizing the shifted upper potential
    sum(1/(u' - lambda)) of the post-step sum, among those staying strictly
    under the shifted barrier.  Candidates whose potential lies within
    TIE_RTOL (relative) of the best count as tied, and the smallest index
    among them wins; step 0 is such a tie for every equal-norm system, so
    row 0 is always selected.  If a step has no feasible candidate, u0 is
    doubled and the run restarts.

    Per step every candidate is scored in closed form (_upper_scores) and
    the decomposition of the running sum A is updated by the pick
    (_eig_update): one real n x n eigh, two n x n products, then
    O(n^2 + m log m) on a Fourier grid system (O(n^2 m) on any other).
    """
    m, n = sys.m, sys.n
    if k > m:
        raise KTooLarge(f"k={k} exceeds m={m}")
    if k < 1:
        raise ValueError("k must be positive")

    u0 = 2.0 * (n / m) * k
    for _ in range(64):
        log = _upper_run(sys, k, u0)
        if log is not None:
            break
        u0 *= 2.0
    else:  # pragma: no cover - doubling always terminates at desk scale
        raise CertificateFailed("upper barrier restart budget exhausted")
    return SelectionResult(tuple(sorted(step.index for step in log)), (), float(k), log)


def _upper_scores(sys: VectorSystem, lam: np.ndarray, vecs: np.ndarray, u_next: float):
    """Feasibility and post-step upper potential of every candidate at once.

    lam, vecs decompose the running sum A = U diag(lam) U*, and u_next must
    exceed lam_max(A).  With q1 = v*(u'-A)^-1 v and q2 = v*(u'-A)^-2 v,
    adding vv* keeps lambda_max under u' iff q1 < 1, and by Sherman-Morrison
    the new potential is sum 1/(u'-lam) + q2/(1-q1) (the BSS lemma).  Both
    forms come from one quad_forms call on U diag(g + i g^2) U*, g = 1/(u'-lam).
    Returns (feasible, phi) with phi = inf where infeasible.
    """
    inv = 1.0 / (u_next - lam)
    forms = sys.quad_forms((vecs * (inv + 1j * inv**2)) @ vecs.conj().T)
    q1, q2 = forms.real, forms.imag
    feasible = q1 < 1.0
    phi = np.full(q1.shape, np.inf)
    phi[feasible] = float(np.sum(inv)) + q2[feasible] / (1.0 - q1[feasible])
    return feasible, phi


def _upper_run(sys: VectorSystem, k: int, u0: float):
    """One upper-barrier pass from u0.

    Returns its BarrierSteps, or None when a step has no feasible candidate.
    """
    n = sys.n
    delta = u0 / k
    u = u0
    lam, vecs = np.zeros(n), np.eye(n, dtype=np.complex128)  # A = 0
    free = np.ones(sys.m, dtype=bool)
    log: list[BarrierStep] = []
    for step in range(k):
        u_next = u + delta
        feasible, phi = _upper_scores(sys, lam, vecs, u_next)
        cand = np.flatnonzero(feasible & free)
        pos = _pick(phi[cand], maximize=False)
        if pos < 0:
            return None
        best = int(cand[pos])
        free[best] = False
        u = u_next
        lam, vecs = _eig_update(lam, vecs, sys.vectors[best], 1.0)
        log.append(
            BarrierStep(step, u, None, float(phi[best]), None, best, 1.0, float(lam[0]), float(lam[-1]))
        )
    return tuple(log)


def _eig_update(lam: np.ndarray, vecs: np.ndarray, v: np.ndarray, t: float):
    """Eigendecomposition of U diag(lam) U* + t vv* from lam and U = vecs.

    With z = U* v and the diagonal phase D = diag(z/|z|) (1 where z_k = 0),
    the sum is (U D) (diag(lam) + t |z||z|^T) (U D)*, whose middle factor is
    real symmetric.  One real eigh of it gives lam' and Q, and U' = (U D) Q.
    Costs one real n x n eigh plus one real n x 2n product.
    """
    z = (v.conj() @ vecs).conj()
    mod = np.abs(z)
    zero = mod == 0.0
    phase = (z + zero) / (mod + zero)  # 1 where z_k = 0
    w = math.sqrt(t) * mod
    middle = w[:, None] * w
    middle.flat[:: lam.size + 1] += lam
    lam_new, q = np.linalg.eigh(middle)
    # U' = (U D) Q, transposed: each row of (U D)^T read as floats interleaves
    # real and imaginary parts, which Q^T leaves apart.
    rotated = np.ascontiguousarray((vecs * phase).T)
    return lam_new, (q.T @ rotated.view(np.float64)).view(np.complex128).T


def _pick(scores: np.ndarray, maximize: bool, scale: Optional[float] = None) -> int:
    """Position of the first score within TIE_RTOL * scale of the best; -1 if none.

    scale defaults to |best|; a score that is a difference of larger terms
    passes the size of those terms instead, which sets its rounding.
    """
    if scores.size == 0:
        return -1
    best = float(scores.max() if maximize else scores.min())
    tol = TIE_RTOL * (abs(best) if scale is None else scale)
    near = scores >= best - tol if maximize else scores <= best + tol
    return int(np.argmax(near))


def brute_force_best(sys: VectorSystem, k: int, objective: str) -> tuple[tuple[int, ...], float]:
    """Exhaustive optimum over all k-subsets by eigenvalue evaluation.

    objective is "max-of-lambda_min" or "min-of-lambda_max", both over the
    n x n unweighted outer sum.  Ties break to the lexicographically smallest
    subset.  Refuses instances with more than 10^6 subsets.
    """
    if objective not in ("max-of-lambda_min", "min-of-lambda_max"):
        raise ValueError(f"unknown objective {objective!r}")
    m, n = sys.m, sys.n
    if not 1 <= k <= m:
        raise KTooLarge(f"k={k} out of range [1, {m}]")
    total = math.comb(m, k)
    if total > 10**6:
        raise TooManySubsets(f"binomial({m},{k}) = {total} exceeds 10^6")
    maximize = objective == "max-of-lambda_min"

    best_j: Optional[tuple[int, ...]] = None
    best_val = -math.inf if maximize else math.inf
    combos = itertools.combinations(range(m), k)
    while True:
        chunk = list(itertools.islice(combos, 4096))
        if not chunk:
            break
        sel = sys.vectors[np.asarray(chunk)]  # (c, k, n)
        mats = np.einsum("cia,cib->cab", sel, sel.conj())
        mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
        vals = np.linalg.eigvalsh(mats)
        scores = vals[:, 0] if maximize else vals[:, -1]
        pos = int(np.argmax(scores)) if maximize else int(np.argmin(scores))
        val = float(scores[pos])
        if (maximize and val > best_val) or (not maximize and val < best_val):
            best_val, best_j = val, chunk[pos]
    assert best_j is not None
    return best_j, best_val
