"""Deterministic row-selection engines for Parseval vector systems.

Four selectors over a finite system {v_i} in complex n-space:

* bss_select      -- two-sided barrier greedy with positive weights; the
                     weighted sum in its barrier log has condition ratio at
                     most the twice-Ramanujan bound
                     ((sqrt(q)+1)/(sqrt(q)-1))^2 at oversampling q, with
                     |J| <= safe_ceil(q*n).  It stops once all m rows are
                     picked, and returns Z_m, whose unit-weight sum is I.
* bss_unweighted  -- the same run on equal-norm systems, read without the
                     weights: the unweighted sum keeps the eigenvalue floor
                     C(d) * n/m.
* rit_select      -- restricted-invertibility style lower-barrier greedy:
                     picks ceil((1-d)*n) rows whose Gram stays above
                     (1-sqrt(1-d))^2 * n/m.
* upper_select    -- upper-barrier greedy picking exactly k rows with a small
                     top eigenvalue (Bessel-type bound).

The greedy loops keep one eigendecomposition per step and score every
candidate in closed form from it (barrier shifts for the two-sided engine,
Sherman-Morrison for the upper potential, a secular equation for the
bordered Gram floor).  Each step picks, then updates, then logs.  All
three engines add one rank-one term per step to one eigen-state of the
running sum A (_EigState) instead of decomposing A: the update is a real
diagonal-plus-rank-one eigenproblem, solved by LAPACK's rank-one merge
(dlaed2/dlaed3, secular equation and Gu-Eisenstat eigenvectors) from order
LAED_MIN_N on where linalg._openblas_routines finds it, else by one dense
real eigh; a range state's first term, into A = 0, is closed form.  Each
state runs all its merges, of every order, in one workspace.  While
A has rank r < n, the state of the two-sided and upper engines from
n = RANK_MIN_N on, and the Riesz engine's at every n, holds only an n x r
basis of its range: the rank-one solve then has order r + 1, it and the
rotation cost O(n r^2), and the packed product of rank r costs O(n^2 r),
instead of O(n^3) each.  The Riesz engine reads its Gram's eigenvalues from
that range, solves the floors of only the rows of largest bound and of
those one quadratic-form pass cannot rule out, and picks as over all rows;
it solves those screened floors one row per call of LAPACK's secular root
finder dlaed4, from the same lookup, and an unscreened step's floors all at
once by a vectorized numpy iteration.  Below RANK_MIN_N, where m < 3n, the
two-sided and upper engines' state holds the rows' projections W = U* V^T
on the eigenvectors in place of U: a step updates W by one real n x n by
n x 2m product and reads every score from |W|^2, O(m n^2) in all, which
undercuts the O(n^3) of rotating U and packing a matrix exactly when
m < 3n.  The scores depend only on the spectral projections, not on
eigenvector phases, and only steer the greedy.  Without W the engines read
their scores as quadratic forms of one n x n matrix
(VectorSystem.quad_forms), which only a grid system built by
fourier_system evaluates with one FFT.  The
engines only select: they certify nothing, and the bounds of a built set
are computed once, by expframes.verify.
brute_force_best is the exhaustive oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CertificateFailed,
    InvalidD,
    KTooLarge,
    NoFeasibleCandidate,
    NotParseval,
    TooManySubsets,
)
from .linalg import _fourier_block, _openblas_routines
# No engine decomposes through hermitian_eig; the name stays a module
# attribute because bench/tracing.py wraps it here to count such calls.
from .linalg import hermitian_eig  # noqa: F401
from .spectrum import GridSpectrum, _integer

EPS = float(np.finfo(float).eps)
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
# Riesz secular solvers: Gram eigenvalues this close (relative) to the
# smallest (_riesz_floors), or to the next one below (_laed4_floors), share
# one pole; and the vectorized solver's iteration cap (a few iterations is
# usual).
SECULAR_MERGE_RTOL = 1e-14
SECULAR_MAX_ITER = 100
# Rank-one eigen-updates of this order and above go through LAPACK's
# rank-one merge (_laed_eigh), smaller ones through a dense eigh, which
# is faster there: the merge's fixed cost is the Python around it.
LAED_MIN_N = 16
# The greedies' eigen-state (_EigState) holds only the range of its
# rank-deficient running sum from this order on.  Below it the range update's
# extra Python costs at least what its smaller products save: whole runs
# were 10-30% slower at n = 16..48, even at n = 56..64, 1-5% faster at
# n = 72 and 5-15% faster at n = 80..96.
RANK_MIN_N = 72
# The Riesz greedy solves this many rows first, those of largest floor bound,
# and screens the rest against the best of them (_rit_floors) once more than
# twice as many rows are free and the free rows times the rank reach
# RIT_WORK, the size of the vectorized secular solver's arrays.  Below the
# work floor the screen costs more than it saves: screening whatever the
# array size took 1.07x the time at (m, n, d) = (256, 32, 0.5) and
# (128, 32, 0.25), where that solver's ~20 numpy calls per iteration cost
# about the same for all free rows as for 32.  A screened row costs one
# dlaed4 call, so the batch is half the 32 rows that suited the vectorized
# solver.  rit_select's time against RIT_BATCH = 16 (in process, each request
# timed under every batch in turn, BLAS on one thread; bessel-riesz's Riesz
# requests of seeds 1-5 and the m = 2048 Riesz build of the CI):
#
#     RIT_BATCH          4     8     16    32
#     (512, 64, 0.25)    1.03  0.94  1     1.05
#     (256, 64, 0.25)    1.08  1.00  1     1.08
#     (256, 32, 0.5)     0.96  0.94  1     0.99
#     m = 2048 build     1.21  1.11  1     0.93
RIT_BATCH = 16
RIT_WORK = 2048


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


@dataclass(frozen=True, eq=False)
class VectorSystem:
    """Finite family of m vectors in complex n-space, stored as rows.

    parseval and equal_norm are measured from the rows at construction:
    parseval when they resolve the identity (sum of v v* = I, Frobenius
    residual within PARSEVAL_RTOL * sqrt(n)), equal_norm when every squared
    norm is n/m (within EQUAL_NORM_RTOL * max(1, n/m)).  The engines that
    need either property refuse a system without it.  Only fourier_system,
    below, builds a system that skips the measurement (both hold by
    construction) and evaluates quad_forms with an FFT; every other system
    takes the dense route.  Systems compare and hash by identity.
    """

    vectors: np.ndarray
    parseval: bool = field(init=False)
    equal_norm: bool = field(init=False)
    # Systems built by fourier_system: with d = (r_b - r_a) mod m for every entry (a, b)
    # of an n x n matrix, the bins 2d and 2d + 1 of its real and imaginary parts.
    _cell_diffs: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vectors must form a nonempty 2-d array (m, n)")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("vector entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)
        m, n = arr.shape
        residual = float(np.linalg.norm(arr.T @ arr.conj() - np.eye(n)))
        deviation = float(np.abs(np.sum(np.abs(arr) ** 2, axis=1) - n / m).max())
        object.__setattr__(self, "parseval", residual <= PARSEVAL_RTOL * math.sqrt(n))
        object.__setattr__(self, "equal_norm", deviation <= EQUAL_NORM_RTOL * max(1.0, n / m))

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def quad_forms(self, b: np.ndarray) -> np.ndarray:
        """Complex quadratic forms v_j* b v_j of every row j, for any n x n b.

        A system built by fourier_system gathers b's entries along each cell
        difference d = r_b - r_a mod m and takes one inverse FFT of length m,
        since v_j* b v_j = (1/m) sum_d e^{2i pi j d/m} sum_{r_b - r_a = d}
        b[a, b]: O(n^2 + m log m).  Any other system takes the dense O(n^2 m)
        route.  The gather is one bincount over b's entries read as
        interleaved floats, into 2m bins that read back as m complex sums.
        For Hermitian b the forms are real; b = H1 + i H2 with H1, H2
        Hermitian returns both families at once as real and imaginary parts.
        """
        if self._cell_diffs is None:
            return ((self.vectors.conj() @ b) * self.vectors).sum(axis=1)
        flat = np.ascontiguousarray(b, dtype=np.complex128).ravel().view(np.float64)
        return np.fft.ifft(np.bincount(self._cell_diffs, flat, 2 * self.m).view(np.complex128))


def fourier_system(g: GridSpectrum) -> VectorSystem:
    """Rows of the normalized Fourier submatrix over the spectrum cells.

    The m rows v_j = (1/sqrt(m)) (e^{2i pi j r/m})_{r in cells} are n columns
    of the unitary DFT: Parseval and equal-norm by construction, so neither
    is measured.  This is the only way to get a system whose quad_forms
    uses an FFT.
    """
    m = g.m
    rows = _fourier_block(m, range(m), g.cells) / math.sqrt(m)
    rows.setflags(write=False)
    r = np.asarray(g.cells, dtype=np.int64)
    diffs = 2 * ((r[None, :] - r[:, None]) % m).ravel()
    diffs = np.stack((diffs, diffs + 1), axis=1).ravel()
    system = object.__new__(VectorSystem)  # frozen: fill the fields without __init__
    vars(system).update(
        {"vectors": rows, "parseval": True, "equal_norm": True, "_cell_diffs": diffs}
    )
    return system


@dataclass(frozen=True)
class BarrierStep:
    """One greedy step: barrier positions, potentials and the chosen index."""

    u: Optional[float]
    l: Optional[float]
    phi_u: Optional[float]
    phi_l: Optional[float]
    index: int
    weight: float
    lam_min: float
    lam_max: float


@dataclass(frozen=True)
class SelectionResult:
    """Chosen index set and the loop's per-step trajectory.

    No bound is carried: the builders certify a selection once, through
    expframes.verify.  The weights of a two-sided run are the weight entries
    of its barrier_log.  barrier_log is empty when the engine returned the
    full index set without a loop: at n = m, and in upper_select at k = m.
    """

    indices: tuple[int, ...]
    barrier_log: tuple[BarrierStep, ...] = field(default=())


def bss_select(sys: VectorSystem, q: float) -> SelectionResult:
    """Two-sided weighted barrier selection at oversampling q > 1.

    Runs at most safe_ceil(q*n) greedy steps, rounded as build_sampling
    rounds its size cap, so float dust in q*n cannot add a step.  At each
    step the upper barrier u and lower barrier l advance by fixed
    increments; a candidate i is feasible when its upper score U(v_i) does
    not exceed its lower score L(v_i), and the added weight is the
    reciprocal midpoint 2/(U+L).  The schedule

        delta_l = 1, eps_l = 1/sqrt(q), l0 = -n*sqrt(q),
        delta_u = (sqrt(q)+1)/(sqrt(q)-1),
        eps_u = (sqrt(q)-1)/(sqrt(q)*(sqrt(q)+1)), u0 = n/eps_u

    keeps both potentials bounded and yields a final condition ratio of at
    most condition_ratio_bound(q) for the weighted sum sum_steps t v v*,
    whose weights t are the barrier_log's weight entries.  Indices may be
    picked repeatedly; weight then accumulates and |indices| counts
    distinct picks.

    The loop stops after the step that picks the last of the m rows: the
    index set is then Z_m, which no later step can change, and its
    unit-weight sum is the identity, of ratio 1.  barrier_log then ends at
    that step.  A run that covers the rows only on its last step, or never,
    takes the ratio guard.  A system with n = m returns Z_m at once, with an
    empty log, for any finite q*n; otherwise a step budget q*n above 10 m is
    refused with ValueError.

    Ties: a candidate's margin L - U is a difference, so its rounding scales
    with the scores, not with the margin.  An eigenvalue's rounding error
    is about eps * max|lam|, and max|lam| grows with the weights; it moves
    a score by up to eps times

        s = max_i ||v_i||^2 * max|lam| * max_k (|g_u'(lam_k)| + |g_l'(lam_k)|).

    Margins within TIE_RTOL * (max_i(|U(v_i)| + |L(v_i)|) + s) of the best
    are tied, and the smallest feasible index among them wins: at tiny d
    the band can be wider than every margin and hold infeasible rows below
    feasible ones.  Step 0 is an exact m-way tie on every equal-norm
    system, so row 0 is always selected.

    The loop keeps A = U diag(lam) U* (_EigState) and updates it by one
    rank-one step per pick; both scores of every candidate are the real and
    imaginary parts of the quadratic forms of U diag(g_u + i g_l) U*.  A
    full-rank step costs one real rank-one solve (LAPACK's O(n^2) secular
    merge from order LAED_MIN_N on, else a dense eigh), then either, where
    m >= 3n or n >= RANK_MIN_N, the n x n rotation of U, the packed n x n
    product and O(n^2 + m log m) on a Fourier grid system (8 n^3 + 4 n^3
    flops in the products), or, below RANK_MIN_N where m < 3n, the update
    of the projections W = U* V^T, one real n x n by n x 2m product
    (4 m n^2 flops), and one real product of |W|^2 with the coefficients.
    While A has rank r < n (the first n steps, from n = RANK_MIN_N on) the
    solve has order r + 1, the rotation costs O(n r^2) and the packed
    product O(n^2 r).  The ratio guard reads the loop's last eigenvalues;
    no bound is returned.

    Raises NoFeasibleCandidate if no index satisfies U <= L (a parameter or
    numerical fault; the engine never relaxes the condition silently), and
    CertificateFailed if the loop's final ratio exceeds the bound.
    """
    if not sys.parseval:
        raise NotParseval("bss_select requires a Parseval system")
    if not q > 1.0:
        raise ValueError("oversampling q must exceed 1")
    m, n = sys.m, sys.n
    if n == m and q * n < math.inf:
        # The identity is the unique Parseval completion; unit weights keep it.
        return SelectionResult(tuple(range(m)))
    # Compared before the ceiling, which overflows when q*n is infinite.
    if q * n > 10 * m:
        shown = math.ceil(q * n) if math.isfinite(q * n) else "inf"
        raise ValueError(f"step budget ceil(q*n)={shown} exceeds the 10*m cap")
    steps = safe_ceil(q * n)

    sq = math.sqrt(q)
    delta_l, delta_u = 1.0, (sq + 1.0) / (sq - 1.0)
    eps_u = (sq - 1.0) / (sq * (sq + 1.0))
    lower, upper = -n * sq, n / eps_u

    state = _EigState(sys)  # A = 0
    lam = state.lam
    phi_u, phi_l = n / upper, -n / lower
    norm2_max = float(np.max(np.einsum("ij,ij->i", sys.vectors, sys.vectors.conj()).real))
    picked: set[int] = set()
    log: list[BarrierStep] = []
    coef = np.empty(n, dtype=np.complex128)  # g_u + i g_l, written in place each step
    g_u, g_l = coef.real, coef.imag

    for step in range(steps):
        u_next, l_next = upper + delta_u, lower + delta_l
        # lam ascends, and rounding is monotone, so the ends hold the least gaps
        if u_next - lam[-1] <= 0.0 or lam[0] - l_next <= 0.0:
            raise NoFeasibleCandidate(f"barrier crossed the spectrum at step {step}")
        inv_u, inv_l = 1.0 / (u_next - lam), 1.0 / (lam - l_next)
        denom_u = phi_u - float(inv_u.sum())
        denom_l = float(inv_l.sum()) - phi_l
        if denom_u <= 0.0 or denom_l <= 0.0:
            raise NoFeasibleCandidate(f"potential shift degenerate at step {step}")

        # U(v) = v*(u'-A)^-2 v / denom_u + v*(u'-A)^-1 v and its lower mirror,
        # g_u = inv_u^2 / denom_u + inv_u and g_l = inv_l^2 / denom_l - inv_l,
        # as the real and imaginary parts of one family of forms.
        np.square(inv_u, out=g_u)
        g_u /= denom_u
        g_u += inv_u
        np.square(inv_l, out=g_l)
        g_l /= denom_l
        g_l -= inv_l
        forms = state.forms(coef)
        score_u, score_l = forms.real, forms.imag
        margin = score_l - score_u
        # Tie scale: the size of the scores plus their sensitivity s to the
        # eigenvalues' rounding (see "Ties" above).
        dg_u = 2.0 * inv_u**3 / denom_u + inv_u**2
        dg_l = -2.0 * inv_l**3 / denom_l + inv_l**2
        sens = norm2_max * max(abs(lam[0]), abs(lam[-1])) * float((dg_u + np.abs(dg_l)).max())
        mag = np.abs(forms.view(np.float64)).reshape(m, 2)
        abs_u, abs_l = mag[:, 0], mag[:, 1]
        tie_scale = float((abs_u + abs_l).max()) + sens
        best = margin.max()
        ok = margin >= best - TIE_RTOL * tie_scale
        ok &= margin >= -FEASIBILITY_SLACK * np.maximum(1.0, np.maximum(abs_u, abs_l))
        chosen = int(ok.argmax())
        if not ok[chosen]:
            raise NoFeasibleCandidate(
                f"no index with U <= L at step {step} (best margin {best:.3e})"
            )
        t = 2.0 / (score_u[chosen] + score_l[chosen])
        if not (t > 0.0 and math.isfinite(t)):
            raise NoFeasibleCandidate(f"non-positive weight at step {step}")

        picked.add(chosen)
        upper, lower = u_next, l_next
        state.add(chosen, t)
        lam = state.lam
        phi_u = float((1.0 / (upper - lam)).sum())
        phi_l = float((1.0 / (lam - lower)).sum())
        log.append(
            BarrierStep(
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
        if len(picked) == m:
            break

    if len(log) < steps:  # stopped at full coverage: Z_m, whose unit-weight sum is I
        return SelectionResult(tuple(range(m)), tuple(log))
    bound = condition_ratio_bound(q)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    if lam_min <= 0.0 or lam_max / lam_min > bound * (1.0 + RATIO_SLACK):
        raise CertificateFailed(f"condition ratio {lam_max / lam_min:.6g} exceeds {bound:.6g}")
    return SelectionResult(tuple(sorted(picked)), tuple(log))


def bss_unweighted(sys: VectorSystem, d: float) -> SelectionResult:
    """Weight-free selection for equal-norm Parseval systems.

    Runs bss_select at q = 1+d and reads its index set without the weights.
    Each weight is at most lambda_max * m/n, so the unweighted sum inherits
    the floor lambda_min >= lower_certificate_constant(d) * n/m;
    build_sampling checks that floor on the bounds verify computes.  A run
    that stopped at full coverage returns Z_m, whose floor is trivial: the m
    rows sum to the identity, so lambda_min = 1.
    """
    if not d > 0.0:
        raise ValueError("d must be positive")
    if not sys.equal_norm:
        raise ValueError("bss_unweighted requires an equal-norm system")
    return bss_select(sys, 1.0 + d)


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

    The loop keeps A = sum_{j in J} v_j v_j* in an eigen-state holding only
    its range (_EigState), updated by one rank-one solve per pick; the
    first pick, from A = 0, is decomposed in closed form.  The Gram of the
    selection shares A's nonzero eigenvalues lam, so a free row's floor is
    the lowest root of its secular equation (_riesz_floors) with weights
    lam |U* v_i|^2, started at the least upper bound of that floor known
    from earlier steps; each step picks from that one array of m bounds,
    which _rit_floors tightens.  Once the free rows are more than twice
    RIT_BATCH and, times the rank, reach RIT_WORK, it solves only the
    RIT_BATCH rows of largest bound and the few that one quadratic-form pass
    cannot rule out of the tie band, each by one call of LAPACK's dlaed4
    (_laed4_floors; the vectorized solver where there is no OpenBLAS); the
    pick is the same as over all floors.  The m x m Gram is never formed.
    The floor (1-sqrt(1-d))^2 * n/m of the final Gram is checked by
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
        return SelectionResult(tuple(range(m)))

    k = max(1, safe_ceil((1.0 - d) * n))
    vectors_c = sys.vectors.conj()
    norm2 = np.einsum("ij,ij->i", sys.vectors, vectors_c).real
    # Bounds on every row's floor, -inf once picked: a floor never rises as
    # rows are added (Cauchy interlacing), so any earlier bound still holds.
    stale = norm2.copy()
    state = _EigState(sys, _range_only=True)
    log: list[BarrierStep] = []
    for step in range(k):
        if step:
            _rit_floors(state, step, stale, norm2, vectors_c)
        best = _pick(stale, maximize=True)
        floor = float(stale[best])
        stale[best] = -np.inf
        state.add(best, 1.0)
        lam = state.lam
        lam_min = float(lam[n - step - 1])  # A has rank step + 1
        log.append(BarrierStep(None, floor, None, None, best, 1.0, lam_min, float(lam[-1])))
    return SelectionResult(tuple(sorted(step.index for step in log)), tuple(log))


def _rit_floors(
    state: _EigState, step: int, stale: np.ndarray, norm2: np.ndarray, vectors_c: np.ndarray
) -> None:
    """Write into stale, in place, every floor the pick after step picks can read.

    state holds A = sum_{j in J} v_j v_j* on its range, of rank r = step:
    the rows of a Parseval system span C^n, so while fewer than n are
    picked some free row lies outside their span and has a positive floor,
    and _pick's band, relative to that best floor, never admits a floor of
    0, i.e. a pick in the span of earlier ones.  The Gram of J shares A's r
    nonzero eigenvalues lam, and row i's secular weights on them are
    w2 = lam |U* v_i|^2.  stale holds an upper bound of every free row's
    floor (-inf for picked rows); the vectorized solves start from it.  On
    return it holds the floor of every row solved, and every free row left
    unsolved holds a bound below thr = top - TIE_RTOL |top|, top the best
    floor of the screen's batch (below).  The pick relies on that: _pick's
    band over stale starts at thr or above, so no unsolved row enters it.

    Routes: without a screen every free row is solved at once by the
    vectorized _riesz_floors, started at its bound.  With more than 2
    RIT_BATCH free rows and at least RIT_WORK free rows times r, the rows
    are screened, and each row the screen solves costs one dlaed4 call
    (_laed4_floors), which needs no start; a BLAS without dlaed4, or a call
    that reports INFO != 0, sends those rows to _riesz_floors instead.

    The screen: the RIT_BATCH rows of largest bound are solved first.  When
    every other row's bound is under thr, no other row is solved, and with
    thr outside (0, lam_1) every one is.  Otherwise one quadratic-form pass
    gives f_i(thr) = rho2_i - thr - v_i* N v_i, N = U diag(lam/(lam - thr))
    U*, for every row.  A floor reaches thr exactly when f_i(thr) >= 0, f being
    decreasing below lam_1, so only rows with f_i(thr) >= -err are solved.
    err bounds the pass's rounding: N's entries reach max lam/(lam - thr),
    and v_i* N v_i sums n^2 of them, each rounded over r terms and then
    through an FFT of length m (or the dense sum).  The same pass gives
    f_i'(thr); f is concave, so its tangent at thr meets zero at or above
    the floor, which lies below thr for every row left out: that root, or
    the float below thr where it rounds up to thr, becomes the row's bound.
    """
    sys = state.sys
    basis = state.vecs.T
    r, n = basis.shape
    m = sys.m
    lam = state.lam[n - r :]

    def solve(rows: np.ndarray, screened: bool = False) -> np.ndarray:
        z = basis @ vectors_c[rows].T  # conj(U* v_i)
        w2 = z.real**2
        w2 += z.imag**2
        floors = _laed4_floors(lam, w2, norm2[rows]) if screened else None
        if floors is None:
            w2 *= lam[:, None]
            floors = _riesz_floors(lam, w2, norm2[rows], stale[rows])
        stale[rows] = floors
        return floors

    screen = m - step > 2 * RIT_BATCH and (m - step) * r >= RIT_WORK
    if screen:
        batch = np.argpartition(stale, m - RIT_BATCH)[m - RIT_BATCH :]
        # every row outside the batch is bounded by the batch's least bound
        bound = float(stale[batch].min())
        best = solve(batch, screened=True)
        top = float(best.max())
        thr = top - TIE_RTOL * abs(top)
        if bound < thr:
            return
    if not (screen and 0.0 < thr < lam[0]):
        solve(np.flatnonzero(stale > -np.inf))
        return
    # gain = lam/(lam - thr) and gain/(lam - thr) decrease with lam, so the
    # first of each is the largest.  f_i'(thr) = -1 - v_i* U diag(gain/(lam -
    # thr)) U* v_i comes from the same pass, its coefficients scaled by
    # lam_1 - thr to gain's size so they cannot swamp f's rounding.
    inv = 1.0 / (lam - thr)
    gain = lam * inv
    forms = sys.quad_forms((basis.T * (gain + 1j * (gain * inv / inv[0]))) @ basis.conj())
    err = EPS * n * (r + math.log2(m) + 2) * float(gain[0]) * float(norm2.max())
    f = norm2 - thr - forms.real + err  # at least the exact f_i(thr)
    rest = f >= 0.0
    rest[batch] = False
    # rows screened out (f < 0 here) take the root of f's tangent at thr,
    # with rounding on the safe side: f is concave, so it bounds the floor,
    # which lies below thr; a root that rounds up to thr is set just below it
    np.minimum(stale, thr + f / (1.0 + inv[0] * (forms.imag + err)), out=stale)
    stale[~rest & (stale >= thr)] = np.nextafter(thr, -np.inf)
    stale[batch] = best
    rest &= stale > -np.inf
    rest = np.flatnonzero(rest)
    if rest.size:
        solve(rest, screened=True)


def _laed4_floors(lam: np.ndarray, w2: np.ndarray, rho2: np.ndarray) -> Optional[np.ndarray]:
    """Floors of c rows through LAPACK's dlaed4, one call per row, or None.

    lam (r,) holds the nonzero eigenvalues of A = U diag(lam) U*, ascending,
    w2 (r, c) the rows' |U* v_i|^2 and rho2 (c,) their squared norms, all
    positive.  On the span of U and of v_i's residual p_i outside it,
    A + v_i v_i* is diag(0, lam) + y y^T with y = (||p_i||, |U* v_i|),
    ||p_i||^2 = rho2 - sum w2 (at least 0).  The Gram of the picks and row i
    shares its nonzero eigenvalues and has floor 0 when p_i = 0, so the
    floor is the first root of diag(0, lam) + ||y||^2 z z^T, z = y / ||y||:
    the root that _riesz_floors finds, which dlaed4 computes by Li's middle
    way in compiled code.  Before the call, as dlaed2 prepares dlaed4's,
    poles within SECULAR_MERGE_RTOL of the one below share it (their weights
    add in squares), and a weight with ||y|| |y_t| at most 8 eps times the
    larger of lam_r and the rows' largest ||y||^2 deflates: its pole is then
    an eigenvalue itself, so the floor is the least of it and the root of
    the rest, and a row with no residual has floor 0.  Returns None, for
    the vectorized solver to take over, when _openblas_routines finds no
    library or dlaed4 reports INFO != 0 for a row.
    """
    routines = _openblas_routines()
    if routines is None:
        return None
    laed4 = routines["dlaed4"]
    r, c = w2.shape
    poles = np.concatenate(([0.0], lam))
    y2 = np.empty((c, r + 1))  # row i: ||p_i||^2, then |U* v_i|^2
    y2[:, 1:] = w2.T
    np.maximum(rho2 - w2.sum(axis=0), 0.0, out=y2[:, 0])
    scale = max(float(lam[-1]), float(rho2.max()), np.finfo(float).tiny)
    gaps = np.diff(poles) > SECULAR_MERGE_RTOL * scale
    if not gaps.all():
        starts = np.flatnonzero(np.concatenate(([True], gaps)))
        poles, y2 = poles[starts], np.add.reduceat(y2, starts, axis=1)
    size = poles.size
    rho = y2.sum(axis=1)
    tol = 8.0 * EPS * max(float(poles[-1]), float(rho.max()))
    zero = y2 * rho[:, None] <= tol * tol
    # one buffer for what the calls read and write: D, each row's Z, DELTA,
    # each row's RHO and DLAM; then N, I = 1 (the first root) and INFO
    buf = np.empty(size * (c + 2) + 2 * c)
    buf[:size] = poles
    z = buf[size : size * (c + 1)].reshape(c, size)
    np.sqrt(np.divide(y2, rho[:, None], out=z), out=z)
    buf[size * (c + 2) : size * (c + 2) + c] = rho
    floors = buf[size * (c + 2) + c :]
    ints = np.zeros(2 + c, dtype=np.int64)
    ints[:2] = size, 1
    D, N = buf.ctypes.data, ints.ctypes.data
    I, INFO = N + 8, N + 16
    DELTA, RHO = D + 8 * size * (c + 1), D + 8 * size * (c + 2)
    DLAM, stride = RHO + 8 * c, 8 * size
    deflated = zero.any(axis=1)
    for i in np.flatnonzero(~deflated).tolist():
        laed4(N, I, D, D + stride * (i + 1), DELTA, RHO + 8 * i, DLAM + 8 * i, INFO + 8 * i)
    for i in np.flatnonzero(deflated).tolist():
        keep = ~zero[i]
        floors[i] = poles[zero[i]][0]  # the lowest deflated pole
        if keep.any():
            kept, part = poles[keep], y2[i, keep]
            norm = np.array([part.sum()])
            zi, root = np.sqrt(part / norm), np.empty(1)
            ints[0] = kept.size
            laed4(N, I, kept.ctypes.data, zi.ctypes.data, DELTA, norm.ctypes.data,
                  root.ctypes.data, INFO + 8 * i)
            floors[i] = min(floors[i], root[0])
    return None if ints[2:].any() else floors


def _riesz_floors(
    lam: np.ndarray, w2: np.ndarray, rho2: np.ndarray, start: Optional[np.ndarray] = None
) -> np.ndarray:
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
    which lies at or above the true root, or at start (c,) where that is
    lower and still bounds the root from above, the iterates decrease
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
    if start is not None:
        np.minimum(mu, start, out=mu)
    active = np.arange(mu.size)
    tol = 8.0 * EPS * scale
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
    doubled and the run restarts.  For k = m every row is picked, so the
    engine returns range(m) without a run and with an empty barrier log, as
    bss_select and rit_select do at n = m.  A k that is not an integer
    (numpy's included; bools and floats are not) raises ValueError.

    Per step every candidate is scored in closed form (_upper_scores) and
    the eigen-state of the running sum A (_EigState) is updated by the pick:
    one real rank-one solve, then as in bss_select either two n x n
    products and O(n^2 + m log m) on a Fourier grid system (O(n^2 m) on
    any other), or, below RANK_MIN_N where m < 3n, the n x n by n x 2m
    update of W and one product of |W|^2, O(m n^2).  The k = n + 1 picks of a
    Bessel set leave A rank-deficient until the n-th, so from n = RANK_MIN_N
    on nearly every step has a solve of order r + 1 and products of rank r.
    """
    m, n = sys.m, sys.n
    k = _integer(k, ValueError)
    if k > m:
        raise KTooLarge(f"k={k} exceeds m={m}")
    if k < 1:
        raise ValueError("k must be positive")
    if k == m:
        # k distinct rows of m are all of them, whatever order a run picks them in
        return SelectionResult(tuple(range(k)))

    u0 = 2.0 * (n / m) * k
    for _ in range(64):
        log = _upper_run(sys, k, u0)
        if log is not None:
            break
        u0 *= 2.0
    else:  # pragma: no cover - doubling always terminates at desk scale
        raise CertificateFailed("upper barrier restart budget exhausted")
    return SelectionResult(tuple(sorted(step.index for step in log)), log)


def _upper_scores(state: _EigState, u_next: float):
    """Post-step upper potential of every row at once; inf where infeasible.

    state decomposes the running sum A, and u_next must exceed lam_max(A).
    With q1 = v*(u'-A)^-1 v and q2 = v*(u'-A)^-2 v, adding vv* keeps
    lambda_max under u' iff q1 < 1, and by Sherman-Morrison the new
    potential is sum 1/(u'-lam) + q2/(1-q1) (the BSS lemma).  Both forms are
    one state.forms call with c = g + i g^2, g = 1/(u'-lam).  Returns phi
    (m,), finite exactly on the feasible rows.
    """
    inv = 1.0 / (u_next - state.lam)
    forms = state.forms(inv + 1j * inv**2)
    q1, q2 = forms.real, forms.imag
    feasible = q1 < 1.0
    phi = np.full(q1.shape, np.inf)
    phi[feasible] = float(inv.sum()) + q2[feasible] / (1.0 - q1[feasible])
    return phi


def _upper_run(sys: VectorSystem, k: int, u0: float):
    """One upper-barrier pass from u0.

    Each step scores the rows already used inf, as infeasible ones are, and
    picks over all m.  Returns the BarrierSteps, or None when no score is finite.
    """
    delta = u0 / k
    u = u0
    state = _EigState(sys)  # A = 0
    used = np.empty(k, dtype=np.intp)
    log: list[BarrierStep] = []
    for step in range(k):
        u_next = u + delta
        phi = _upper_scores(state, u_next)
        phi[used[:step]] = np.inf
        best = _pick(phi, maximize=False)
        if phi[best] == np.inf:
            return None
        used[step] = best
        u = u_next
        state.add(best, 1.0)
        lam = state.lam
        log.append(
            BarrierStep(u, None, float(phi[best]), None, best, 1.0, float(lam[0]), float(lam[-1]))
        )
    return tuple(log)


class _EigState:
    """Eigendecomposition of the running sum A = sum_j t_j v_j v_j* of a greedy.

    lam holds all n eigenvalues of A, ascending.  The eigenvectors take one
    of three forms, chosen once from n and m:

    * the range basis (from RANK_MIN_N on, and the Riesz engine's state,
      _range_only, at every n): while A has rank r < n, vecs holds only an
      orthonormal basis of its range, n x r, for the top eigenvalues
      lam[n - r:]; the n - r null eigenvalues are exact zeros and their
      eigenvectors stay implicit.  At r = n, vecs is the unitary U of
      A = U diag(lam) U*.
    * the unitary U itself (below RANK_MIN_N when m >= 3n), from A = 0 and
      U = I on.
    * the row projections W = U* V^T (below RANK_MIN_N when m < 3n), n x m,
      W[k, j] = u_k* v_j, from W = V^T on; U is not kept, and vecs is None.
      A step then updates W, one real n x n by n x 2m product (4 m n^2
      flops), in place of rotating U (4 n^3) and packing an n x n matrix
      for the forms (8 n^3), so it is the cheaper form exactly when m < 3n.

    U's bases live in the last r rows of one n x n buffer, _rows, as U^T,
    and vecs is a view of them: the full-rank start is _rows = I, the range
    start an empty view.  A new basis vector takes the row above, and each
    update writes the rotated basis into those rows (or W into _w) through
    _rank_one_update, so nothing is allocated or concatenated per step.
    From order LAED_MIN_N on, every engine's state owns one workspace of
    LAPACK's rank-one merge (_Merge) of order n, in which all its merges
    run, a range basis's of lower order included.
    """

    def __init__(self, sys: VectorSystem, _range_only: bool = False):
        m, n = sys.m, sys.n
        self.sys = sys
        self.lam = np.zeros(n)
        self._w = None
        self._merge = _Merge(n) if n >= LAED_MIN_N else None
        if n >= RANK_MIN_N or _range_only:
            self._rows = np.empty((n, n), dtype=np.complex128)
            self.vecs = self._rows[n:].T
        elif m < 3 * n:
            self._w = sys.vectors.T.copy()
            self.vecs = None
        else:
            self._rows = np.eye(n, dtype=np.complex128)
            self.vecs = self._rows.T

    def forms(self, c: np.ndarray) -> np.ndarray:
        """v_j* f(A) v_j of every row j, where f maps each lam[k] to c[k] (complex).

        From W the forms are sum_k c_k |W[k, j]|^2: one real product of |W|^2
        with c's real and imaginary parts, 4 m n flops, whose m x 2 result
        reads back as the complex forms.  From U, f(A) = U diag(c) U* is
        packed and its forms read by VectorSystem.quad_forms.  With a partial
        basis V, f(A) = V diag(c_r - c_0) V* + c_0 I: the null eigenvalues
        share c_0 = f(0), so their part of each form is c_0 ||v_j||^2, and
        the packed product has rank r (8 n^2 r flops instead of 8 n^3).
        """
        if self._w is not None:
            sq = np.square(self._w.view(np.float64))
            w2 = np.add(sq[:, ::2], sq[:, 1::2])
            return (w2.T @ c.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()
        vecs = self.vecs
        n, r = vecs.shape
        if r == n:
            return self.sys.quad_forms((vecs * c) @ vecs.conj().T)
        c0 = c[0]
        packed = (vecs * (c[n - r :] - c0)) @ vecs.conj().T
        packed.flat[:: n + 1] += c0
        return self.sys.quad_forms(packed)

    def add(self, j: int, t: float) -> None:
        """Update the state to A + t v_j v_j* (t > 0) for row j of the system.

        At full rank this is one _rank_one_update of U^T (all of _rows), on
        z = U* v_j, or of W, on conj(W[:, j]), which it then carries as
        W' = Q^T diag(conj(z/|z|)) W.  From A = 0 it is closed form: the
        eigenvalue t ||v||^2 with eigenvector v / ||v||.  Otherwise v's
        residual p outside the range (projected twice, as in classical
        Gram-Schmidt) becomes a new basis vector with eigenvalue 0 before
        the rank-one solve, which then runs on r + 1 columns, the basis rows
        of _rows.  The residual
        is dropped instead when its terms in A + t vv*, t ||v|| ||p|| at
        most, are below the rounding of A's eigenvalues by dlaed2's
        deflation test, 8 eps times the larger of lam_max and t ||v||^2.
        """
        w = self._w
        if w is not None:
            self.lam = _rank_one_update(self.lam, w, w[:, j].conj(), t, self._merge)
            return
        v = self.sys.vectors[j]
        vecs = self.vecs
        n, r = vecs.shape
        rows = self._rows
        if r == n:
            z = (v.conj() @ vecs).conj()
            self.lam = _rank_one_update(self.lam, rows, z, t, self._merge)
            return
        v2 = np.vdot(v, v).real
        if r == 0:
            if v2 > 0.0:
                rows[-1] = v / math.sqrt(v2)
                self.lam[-1] = t * v2
                self.vecs = rows[-1:].T
            return
        basis = rows[n - r :]
        conj = basis.conj()
        z = conj @ v  # U* v
        resid = v - z @ basis
        resid -= (conj @ resid) @ basis
        rho2 = np.vdot(resid, resid).real
        if t * math.sqrt(v2 * rho2) > 8.0 * EPS * max(float(self.lam[-1]), t * v2):
            r += 1
            rho = math.sqrt(rho2)
            rows[n - r] = resid / rho
            basis = rows[n - r :]
            self.vecs = basis.T
            z = np.concatenate(([rho], z))  # p* v / ||p|| = ||p||, p being orthogonal to U
        self.lam[n - r :] = _rank_one_update(self.lam[n - r :], basis, z, t, self._merge)


def _rank_one_update(lam: np.ndarray, rows: np.ndarray, z: np.ndarray, t: float, merge):
    """Eigenvalues of U diag(lam) U* + t vv* from lam, rows = U^T and z = U* v.

    U is n x k with orthonormal columns whose span holds v, t > 0, and rows
    is U^T, a C-contiguous k x n array, which the update rotates in place.
    With the diagonal phase D = diag(z/|z|) (1 where z_k = 0), the sum is
    (U D) (diag(lam) + w w^T) (U D)* with w = sqrt(t) |z|, whose middle
    factor is real symmetric.  _rank_one_eigh decomposes it into lam' and
    Q, in merge (a _Merge of order k or more; None below LAED_MIN_N), and
    rows becomes U'^T = Q^T D rows, one real n x 2k product that reads a
    scaled copy of rows.  Returns lam', ascending.  z = 0 leaves lam and U
    unchanged: the middle factor is then diag(lam), which the dense route
    decomposes exactly.  The same product carries the row projections: with
    rows = W and z = conj(W[:, j]), it writes Q^T D W, the projections on U'
    of the rows W projected on U.
    """
    mod = np.abs(z)
    if mod.all():
        phase = z / mod
    else:
        zero = mod == 0.0
        phase = (z + zero) / (mod + zero)  # 1 where z_k = 0
    lam_new, q = _rank_one_eigh(lam, math.sqrt(t) * mod, merge)
    # U'^T = Q^T (D rows): each row of D rows read as floats interleaves real
    # and imaginary parts, which Q^T leaves apart.
    rotated = rows * phase[:, None]
    np.matmul(q.T, rotated.view(np.float64), out=rows.view(np.float64))
    return lam_new


def _rank_one_eigh(lam: np.ndarray, w: np.ndarray, merge):
    """Ascending eigenvalues and eigenvectors (columns) of diag(lam) + w w^T.

    lam must be ascending.  From LAED_MIN_N on, LAPACK's rank-one merge
    (_laed_eigh, in merge, a _Merge of order lam.size or more) runs when
    numpy's bundled OpenBLAS provides it and succeeds; otherwise, and below
    LAED_MIN_N, where merge may be None, a dense real eigh.
    """
    if lam.size >= LAED_MIN_N:
        out = _laed_eigh(lam, w, merge)
        if out is not None:
            return out
    return _dense_eigh(lam, w)


def _dense_eigh(lam: np.ndarray, w: np.ndarray):
    """diag(lam) + w w^T through one dense real np.linalg.eigh."""
    middle = w[:, None] * w
    middle.flat[:: lam.size + 1] += lam
    return np.linalg.eigh(middle)


class _Merge:
    """The workspace of LAPACK's rank-one merge (dlaed2/dlaed3) up to order n.

    Floats: Q, Q2, S (n x n each), then D, Z, DLAMDA, W (n each) and RHO;
    dlaed3 copies up to K x K entries into S, more than its documented
    (N1 + 1) * K.  Integers: K, N, N1, LDQ, INFO, then INDXQ, INDX, INDXC,
    INDXP (n each) and COLTYP, into which dlaed2 writes 4 counts even when
    n < 4.  The routines' arguments are the buffers' addresses, taken once.
    A merge of order k <= n uses each region's first k (k x k) entries, Q
    as one contiguous k x k block: the layout of a workspace of order k.
    _laed_eigh resets what a call reads: Q to I, K, N, N1, LDQ and INFO,
    and INDXQ (which dlaed2 overwrites), each half ascending; every other
    entry is written by the routines before they read it.  A workspace serves one caller at a
    time, and the eigenvectors _laed_eigh returns are a view of its Q, valid
    until its next call.
    """

    def __init__(self, n: int):
        nn = n * n
        self.flt = np.empty(3 * nn + 4 * n + 1)
        self.d = self.flt[3 * nn : 3 * nn + n]
        self.z = self.flt[3 * nn + n : 3 * nn + 2 * n]
        self.ints = np.empty(5 + 4 * n + max(n, 4), dtype=np.int64)
        self.ascending = np.arange(1, n + 1)  # each half of INDXQ is a prefix of it
        f, i = self.flt.ctypes.data, self.ints.ctypes.data
        K, N, N1, LDQ, INFO = i, i + 8, i + 16, i + 24, i + 32
        INDXQ = i + 40
        INDX, INDXC, INDXP, COLTYP = INDXQ + 8 * n, INDXQ + 16 * n, INDXQ + 24 * n, INDXQ + 32 * n
        Q, Q2, S = f, f + 8 * nn, f + 16 * nn
        D = f + 24 * nn
        Z, DLAMDA, W, RHO = D + 8 * n, D + 16 * n, D + 24 * n, D + 32 * n
        self.laed2_args = (K, N, N1, D, Q, LDQ, INDXQ, RHO, Z, DLAMDA, W, Q2, INDX, INDXC, INDXP,
                           COLTYP, INFO)
        self.laed3_args = (K, N, N1, D, Q, LDQ, RHO, DLAMDA, Q2, INDXC, COLTYP, W, S, INFO)


def _laed_eigh(lam: np.ndarray, w: np.ndarray, merge: _Merge):
    """diag(lam) + w w^T through LAPACK's rank-one merge, or None.

    This is the merge step of divide and conquer (dlaed1 without its
    bookkeeping): dlaed2 deflates, dlaed3 finds the roots of the secular
    equation (dlaed4) and the eigenvectors in the Gu-Eisenstat form.  The
    matrix is posed as a merge of its halves n//2 and n - n//2 with
    eigenvectors Q = I, each half already in ascending order, and an
    updating vector of norm sqrt(2) with rho = ||w||^2 / 2, as dlaed1
    passes them.  lam and rho are first scaled by a power of two that puts
    the larger of max|lam| and ||w||^2 in [1/2, 1), since dlaed2's
    deflation tolerance is absolute.  The eigenvalues come back in two
    ascending runs (kept, then deflated); with nothing deflated they are
    already ascending, else they are sorted with their vectors.

    The call runs in merge, a _Merge of order n or more owned by the
    caller, and the eigenvectors are a view of its Q.  The routines are
    read from _openblas_routines at every call.
    Returns None, for the dense route to take over, when _openblas_routines
    finds no library, n < 2, w is zero or not finite, or LAPACK reports
    INFO != 0.
    """
    n = lam.size
    norm2 = float(w @ w)
    if n < 2 or not 0.0 < norm2 < math.inf:
        return None
    routines = _openblas_routines()
    if routines is None:
        return None
    n1, ints, q, d = n // 2, merge.ints, merge.flt[: n * n].reshape(n, n), merge.d[:n]
    scale = math.ldexp(1.0, -math.frexp(max(-float(lam[0]), float(lam[-1]), norm2))[1])
    ints[:5] = 0, n, n1, n, 0
    ints[5 : 5 + n1], ints[5 + n1 : 5 + n] = merge.ascending[:n1], merge.ascending[: n - n1]
    q.fill(0.0)
    q.flat[:: n + 1] = 1.0
    np.multiply(lam, scale, out=d)
    np.multiply(w, math.sqrt(2.0 / norm2), out=merge.z[:n])
    merge.flt[-1] = 0.5 * norm2 * scale
    routines["dlaed2"](*merge.laed2_args)
    if ints[4] == 0 and ints[0] > 0:
        routines["dlaed3"](*merge.laed3_args)
    if ints[4] != 0:
        return None
    # Fortran's column j of Q is row j here.
    if ints[0] == n:
        return d / scale, q.T
    order = d.argsort(kind="stable")
    return d[order] / scale, q[order].T


def _pick(scores: np.ndarray, maximize: bool) -> int:
    """Position of the first score within TIE_RTOL * |best| of the best.

    Rows scored -inf (maximize) or inf never enter the band of a finite best.
    """
    best = float(scores.max() if maximize else scores.min())
    tol = TIE_RTOL * abs(best)
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
