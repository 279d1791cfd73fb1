"""Independent output oracle: checks CLI answers with plain numpy.

Nothing here imports ``expframes``.  For each request the oracle parses the
captured stdout, rebuilds the scaled Fourier-submatrix Gram from the printed
residues and cells, and checks three things: the printed bounds to 1e-9, the
size cap (sampling), size (Bessel) or floor (Riesz), and lower >= target.  It
also checks the exit code: 0 for valid requests, 2 for documented
preconditions.

A request ends in one of four statuses:

* ``ok``: expected exit code and, on exit 0, an output the oracle confirms;
* ``refused``: a valid request that exited 1 or 2 (counted as failed, the
  output is not wrong);
* ``crashed``: ``cli.main`` raised (counted as failed);
* ``wrong``: the oracle disagrees with the output, or an invalid request was
  accepted.  Any ``wrong`` request makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

BOUND_TOL = 1e-9
CEIL_BACKOFF = 1e-9
CELL_TOL = 1e-12
TWO_PI = 2.0 * math.pi


class Mismatch(Exception):
    """The printed output disagrees with the oracle."""


@dataclass
class Verdict:
    status: str
    reason: str = ""
    margins: list[float] = field(default_factory=list)
    bessel_ratios: list[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _fourier(m: int, rows, cols) -> np.ndarray:
    """Entries exp(2i pi j r / m), with j r reduced mod m before scaling."""
    prod = np.outer(np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)) % m
    return np.exp(2j * np.pi * prod / m)


def _extremes(gram: np.ndarray) -> tuple[float, float]:
    vals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    return max(float(vals[0]), 0.0), float(vals[-1])


def sampling_bounds(m: int, cells, residues) -> tuple[float, float]:
    """Frame bounds of residues + mZ for the cell union: Gram of F[J, S] / m."""
    f = _fourier(m, residues, cells)
    return _extremes(f.conj().T @ f / m)


def riesz_bounds(m: int, cells, residues) -> tuple[float, float]:
    """Riesz bounds of the exponentials on residues over the cell union."""
    f = _fourier(m, cells, residues) / math.sqrt(m)
    return _extremes(f.conj().T @ f)


def sampling_target(d: float, n: int, m: int) -> float:
    s = math.sqrt(1.0 + d)
    return ((s - 1.0) / (s + 1.0)) ** 2 * n / m


def riesz_target(d: float, n: int, m: int) -> float:
    return (1.0 - math.sqrt(1.0 - d)) ** 2 * n / m


def quantize_inner(intervals, m: int) -> list[int]:
    """Order-m cells fully inside the interval union (closure within CELL_TOL)."""
    return [
        r for r in range(m)
        if any(lo <= TWO_PI * r / m + CELL_TOL and TWO_PI * (r + 1) / m <= hi + CELL_TOL
               for lo, hi in intervals)
    ]


def _ceil(x: float) -> int:
    return math.ceil(x - CEIL_BACKOFF)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(printed, actual: float, what: str) -> None:
    _expect(isinstance(printed, (int, float)), f"{what} is not a number: {printed!r}")
    _expect(abs(printed - actual) <= BOUND_TOL * max(1.0, abs(actual)),
            f"{what} printed {printed!r}, recomputed {actual!r}")


def _residue_set(residues, m: int) -> list[int]:
    _expect(isinstance(residues, list) and residues, "residue list missing or empty")
    _expect(all(isinstance(j, int) and 0 <= j < m for j in residues), "residue out of range")
    _expect(residues == sorted(set(residues)), "residues not sorted and distinct")
    return residues


def _check_report(rep: dict, kind: str, m: int, cells, d, verdict: Verdict) -> None:
    """One construct report: sizes, recomputed bounds and the certificate."""
    _expect(rep.get("kind") == kind, f"kind {rep.get('kind')!r} != {kind!r}")
    _expect(rep.get("m") == m and rep.get("cells") == list(cells), "spectrum echoed wrongly")
    n = len(cells)
    _expect(rep.get("n") == n, "cell count echoed wrongly")
    res = _residue_set(rep.get("residues"), m)
    _expect(rep.get("density") == str(Fraction(len(res), m)), "density string wrong")
    _expect(rep.get("landau_floor") == str(Fraction(n, m)), "landau floor string wrong")
    _expect(rep.get("pass") is True, "report does not pass")
    if kind == "riesz":
        lower, upper = riesz_bounds(m, cells, res)
    else:
        lower, upper = sampling_bounds(m, cells, res)
    _close(rep.get("lower"), lower, "lower")
    _close(rep.get("upper"), upper, "upper")
    if kind == "sampling":
        _expect(len(res) <= _ceil((1.0 + d) * n), "size above ceil((1+d)n)")
        target = sampling_target(d, n, m)
    elif kind == "riesz":
        _expect(len(res) >= _ceil((1.0 - d) * n), "size below ceil((1-d)n)")
        target = riesz_target(d, n, m)
    else:
        _expect(len(res) == min(n + 1, m), "bessel size is not min(n+1, m)")
        ratio = upper / (n / m)
        _close(rep.get("constant_check"), ratio, "bessel ratio")
        verdict.bessel_ratios.append(ratio)
        return
    _close(rep.get("constant_check"), target, "target")
    _expect(lower >= target, f"recomputed lower {lower!r} below target {target!r}")
    verdict.margins.append(lower / target)


def _check_construct(req, out: str, verdict: Verdict) -> None:
    spec = req.spec
    _check_report(json.loads(out), req.kind, spec["m"], spec["cells"], spec.get("d"), verdict)


def _check_verify(req, out: str, verdict: Verdict) -> None:
    spec = req.spec
    m, cells, res = spec["m"], spec["cells"], spec["residues"]
    rep = json.loads(out)
    lower, upper = sampling_bounds(m, cells, res)
    _close(rep.get("lower"), lower, "lower")
    _close(rep.get("upper"), upper, "upper")
    _expect(rep.get("density") == str(Fraction(len(res), m)), "density string wrong")
    _expect(rep.get("landau_violation") is (len(res) < len(cells)), "landau flag wrong")


def _check_duality(req, out: str, verdict: Verdict) -> None:
    spec = req.spec
    m, cells, res = spec["m"], spec["cells"], spec["residues"]
    rep = json.loads(out)
    b, _ = sampling_bounds(m, cells, res)
    _close(rep.get("B"), b, "B")
    if len(res) == m:
        _expect(rep.get("vacuous") is True and rep.get("A") == math.inf, "full set not vacuous")
        return
    rest_cells = [r for r in range(m) if r not in set(cells)]
    rest_res = [j for j in range(m) if j not in set(res)]
    a, _ = riesz_bounds(m, rest_cells, rest_res)
    _close(rep.get("A"), a, "A")
    _expect(rep.get("vacuous") is False, "proper case flagged vacuous")
    _expect(rep.get("exact_identity_pass") is (abs(a - b) <= BOUND_TOL), "identity flag wrong")


def _check_exhaust(req, out: str, verdict: Verdict) -> None:
    spec = req.spec
    stages = json.loads(out)
    _expect([st.get("stage_m") for st in stages] == spec["schedule"], "stage orders wrong")
    for st in stages:
        m = st["stage_m"]
        cells = quantize_inner(spec["intervals"], m)
        rep = st["report"]
        _check_report(rep, "sampling", m, cells, spec["d"], verdict)
        used = set(rep["residues"])
        rest = [j for j in range(m) if j not in used]
        _expect(st.get("complement_residues") == rest, f"complement residues wrong at m={m}")
        comp = st.get("complement_riesz")
        if not rest or len(cells) == m:
            _expect(comp is None, f"complement bounds printed without a complement at m={m}")
            continue
        rest_cells = [r for r in range(m) if r not in set(cells)]
        lower, upper = riesz_bounds(m, rest_cells, rest)
        _close(comp.get("lower"), lower, f"complement lower at m={m}")
        _close(comp.get("upper"), upper, f"complement upper at m={m}")


SWEEP_HEADER = ("m", "n", "d", "J", "density", "landau_floor",
                "lower", "upper", "C_target", "s_squared", "pass")


def _check_sweep(req, out: str, verdict: Verdict) -> None:
    """Sweep rows print no residues, so bounds are checked by trace identities.

    The mean eigenvalue of the Gram of F[J, S] / m is |J|/m, so a correct row
    has lower <= |J|/m <= upper <= 1.  Target, cap and the pass flag are
    recomputed exactly.
    """
    spec = req.spec
    lines = out.splitlines()
    _expect(lines and lines[0].startswith("# expframes-csv v1"), "missing CSV version header")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    _expect(tuple(rows[0]) == SWEEP_HEADER, "sweep header wrong")
    points = sorted(
        (m, int(m * Fraction(s)), d)
        for m in spec["m_list"] for s in spec["s_list"] for d in spec["d_list"]
    )
    body = rows[1:]
    _expect(len(body) == len(points), "sweep row count wrong")
    for row, (m, n, d) in zip(body, points):
        rec = dict(zip(SWEEP_HEADER, row))
        _expect((int(rec["m"]), int(rec["n"]), float(rec["d"])) == (m, n, d), "sweep row order wrong")
        size = int(rec["J"])
        lower, upper = float(rec["lower"]), float(rec["upper"])
        target = sampling_target(d, n, m)
        _close(float(rec["C_target"]), target, "C_target")
        _close(float(rec["s_squared"]), (n / m) ** 2, "s_squared")
        _close(float(rec["density"]), size / m, "density")
        _close(float(rec["landau_floor"]), n / m, "landau_floor")
        _expect(n <= size <= _ceil((1.0 + d) * n), "size outside [n, ceil((1+d)n)]")
        mean = size / m
        _expect(lower <= mean + BOUND_TOL and mean <= upper + BOUND_TOL, "bounds miss the mean eigenvalue")
        _expect(upper <= 1.0 + BOUND_TOL, "upper bound above 1")
        _expect(rec["pass"] == "true" and lower >= target, "sweep row fails its certificate")
        verdict.margins.append(lower / target)


CHECKS = {
    "sampling": _check_construct,
    "bessel": _check_construct,
    "riesz": _check_construct,
    "verify": _check_verify,
    "duality": _check_duality,
    "exhaust": _check_exhaust,
    "sweep": _check_sweep,
}


def check(req, rc, out: str) -> Verdict:
    """Judge one request from its exit code (None if it raised) and stdout."""
    if rc is None:
        return Verdict("crashed", "cli.main raised")
    if rc != req.expect_rc:
        if req.expect_rc == 0:
            return Verdict("refused", f"valid request exited {rc}")
        if rc == 0:
            return Verdict("wrong", f"expected exit {req.expect_rc}, got 0")
        return Verdict("refused", f"expected exit {req.expect_rc}, got {rc}")
    verdict = Verdict("ok")
    if rc == 0:
        try:
            CHECKS[req.kind](req, out, verdict)
        except (Mismatch, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return Verdict("wrong", f"{type(exc).__name__}: {exc}")
    return verdict


def digest(requests, outcomes) -> str:
    """sha256 over every request's argv, exit code and stdout, in order."""
    h = hashlib.sha256()
    for req, (rc, out) in zip(requests, outcomes):
        h.update(json.dumps([list(req.argv), rc, out]).encode())
    return h.hexdigest()
