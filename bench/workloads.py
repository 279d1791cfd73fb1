"""Seeded request generators for the benchmark workloads.

Every workload is a fixed list of CLI requests (argv lists for
``expframes.cli.main``) made from the seed alone, so the same seed gives the
same requests.  Each request also carries, in plain JSON types, what the
oracle needs to check the answer without trusting the program: the spectrum,
the parameters and the exit code a correct program returns.

Why these four workloads (each stresses a different hot spot):

* ``exhaust-1024``: the two-sided BSS greedy behind ``build_sampling`` at the
  largest desk order, plus the complement Riesz certification.  The upper
  and restricted-invertibility engines are never called.
* ``bessel-riesz``: the per-candidate ``eigvalsh`` loops of ``upper_select``
  and ``rit_select``.  The BSS greedy is never called.
* ``cli-mix``: a stream of small requests where fixed per-request cost
  (argument parsing, validation, certification, emit) dominates, with the
  read path (verify, duality) beside the write path (construct).
* ``sweep-jobs2``: the only concurrent path, ``sweep --jobs 2``, with the BSS
  greedy at small n where Python overhead dominates.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

EXHAUST_SCHEDULE = (16, 32, 64, 128, 256, 512, 1024)
# 176 of 1024 cells: measure about 0.17.  The cell count at the top order is
# fixed so that every seed does the same amount of barrier work there.
EXHAUST_CELLS = 176
BESSEL_CASES = ((256, 64), (256, 32), (128, 32))
RIESZ_CASES = ((512, 64, 0.25), (256, 64, 0.25), (256, 32, 0.5))
MIX_ORDERS = (4, 8, 16, 32)
MIX_KINDS = ("sampling", "bessel", "riesz", "verify", "duality")
# Requests of each (kind, order) stratum in one cli-mix body: 5 * 4 * 50 = 1000.
MIX_PER_STRATUM = 50
# d stays below 9, so ceil((1+d) n) <= 10 m for every n <= m and no request
# reaches the 10*m step cap of the BSS greedy.  Over that cap a valid request
# exits 2 today (ROADMAP item 5); the benchmark's workloads must be ones on
# which no operation fails, so that region is left to the test suite.
MIX_D_RANGE = (0.01, 9.0)
# Coprime to MIX_PER_STRATUM, so size and parameter strata pair one to one.
MIX_PAIRING = 17
SWEEP_M = (64, 256)
SWEEP_S = ("1/16", "1/8", "1/4")
SWEEP_D = ("0.5", "1", "3")
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Request:
    """One CLI call: argv, its kind, the expected exit code and oracle inputs."""

    argv: tuple[str, ...]
    kind: str
    expect_rc: int
    spec: dict


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=[int(seed) % 2**64, zlib.crc32(workload.encode())])
    )


def _compose(rng: np.random.Generator, total: int, parts: int, least: int) -> list[int]:
    """Random split of total into parts, each at least least."""
    spare = total - parts * least
    return [least + int(x) for x in rng.multinomial(spare, [1.0 / parts] * parts)]


def _cells(rng: np.random.Generator, m: int, n: int) -> list[int]:
    return sorted(int(r) for r in rng.choice(m, size=n, replace=False))


def _grid(m: int, cells: list[int]) -> str:
    return json.dumps({"m": m, "cells": cells})


def _covers_coarse_cell(starts_lengths, top: int, coarse: int) -> bool:
    """Some interval holds a whole cell of order coarse (in top-order cells)."""
    width = top // coarse
    return any(-(-a // width) * width + width <= a + length for a, length in starts_lengths)


def exhaust_1024(seed: int) -> list[Request]:
    """One exhaustion of a seeded 2- or 3-interval union up to m=1024."""
    rng = _rng(seed, "exhaust-1024")
    top = EXHAUST_SCHEDULE[-1]
    while True:  # redraw until the coarsest stage has a cell to work on
        parts = int(rng.integers(2, 4))
        lengths = _compose(rng, EXHAUST_CELLS, parts, 24)
        gaps = _compose(rng, top - EXHAUST_CELLS, parts + 1, 8)
        starts = [sum(gaps[: i + 1]) + sum(lengths[:i]) for i in range(parts)]
        if _covers_coarse_cell(zip(starts, lengths), top, EXHAUST_SCHEDULE[0]):
            break
    intervals = []
    for start, length in zip(starts, lengths):
        # Endpoints reach less than half a cell beyond whole top-order cells,
        # so the inner quantization at m=1024 has exactly EXHAUST_CELLS cells.
        lo = TWO_PI * (start - rng.uniform(0.05, 0.45)) / top
        hi = TWO_PI * (start + length + rng.uniform(0.05, 0.45)) / top
        intervals.append([lo, hi])
    argv = (
        "exhaust", "--spectrum", json.dumps({"intervals": intervals}),
        "--d", "1", "--schedule", ",".join(map(str, EXHAUST_SCHEDULE)),
        "--format", "json",
    )
    spec = {"intervals": intervals, "d": 1.0, "schedule": list(EXHAUST_SCHEDULE)}
    return [Request(argv, "exhaust", 0, spec)]


def bessel_riesz(seed: int) -> list[Request]:
    """Bessel and Riesz constructions on seeded cell sets of fixed sizes."""
    rng = _rng(seed, "bessel-riesz")
    out = []
    for m, n in BESSEL_CASES:
        cells = _cells(rng, m, n)
        argv = ("construct", "--spectrum", _grid(m, cells), "--mode", "bessel")
        out.append(Request(argv, "bessel", 0, {"m": m, "cells": cells}))
    for m, n, d in RIESZ_CASES:
        cells = _cells(rng, m, n)
        argv = ("construct", "--spectrum", _grid(m, cells), "--mode", "riesz", "--d", repr(d))
        out.append(Request(argv, "riesz", 0, {"m": m, "cells": cells, "d": d}))
    return out


def _mix_stratum(rng: np.random.Generator, kind: str, m: int, count: int) -> list[Request]:
    """count requests of one kind and order.

    Size n and parameter (d, or the residue count) are each drawn from count
    equal strata, and size stratum i always meets parameter stratum
    MIX_PAIRING * i mod count.  So every seed gets nearly the same mix of
    work, while cells and exact values still vary with the seed.
    """
    strata = np.arange(count)
    sizes = (strata + rng.uniform(size=count)) / count
    params = ((MIX_PAIRING * strata) % count + rng.uniform(size=count)) / count
    out = []
    for n, u in zip((1 + int(x * m) for x in sizes), params):
        cells = _cells(rng, m, n)
        spec = {"m": m, "cells": cells}
        grid = ("--spectrum", _grid(m, cells))
        if kind == "sampling":
            lo, hi = MIX_D_RANGE
            spec["d"] = d = float(math.exp(math.log(lo) + u * math.log(hi / lo)))
            out.append(Request(("construct", *grid, "--mode", "sampling", "--d", repr(d)), kind, 0, spec))
        elif kind == "bessel":
            out.append(Request(("construct", *grid, "--mode", "bessel"), kind, 0, spec))
        elif kind == "riesz":
            spec["d"] = d = float(0.01 + 0.98 * u)
            out.append(Request(("construct", *grid, "--mode", "riesz", "--d", repr(d)), kind, 0, spec))
        else:
            spec["residues"] = residues = _cells(rng, m, 1 + int(u * m))
            # duality needs a free cell unless every residue is used (a
            # vacuous report); otherwise the documented answer is exit 2.
            proper = n < m or len(residues) == m
            expect = 0 if kind == "verify" or proper else 2
            argv = (kind, *grid, "--residues", ",".join(map(str, residues)))
            out.append(Request(argv, kind, expect, spec))
    return out


def cli_mix(seed: int) -> list[Request]:
    """A shuffled stream of small requests, an equal share per kind and order."""
    rng = _rng(seed, "cli-mix")
    requests = [
        req for kind in MIX_KINDS for m in MIX_ORDERS
        for req in _mix_stratum(rng, kind, m, MIX_PER_STRATUM)
    ]
    return [requests[i] for i in rng.permutation(len(requests))]


def sweep_jobs2(seed: int) -> list[Request]:
    """One sweep over a fixed grid on two worker threads, seeded cell sets."""
    rng = _rng(seed, "sweep-jobs2")
    sweep_seed = int(rng.integers(0, 2**31))
    argv = (
        "sweep", "--m-list", ",".join(map(str, SWEEP_M)),
        "--s-list", ",".join(SWEEP_S), "--d-list", ",".join(SWEEP_D),
        "--jobs", str(SWEEP_JOBS), "--seed", str(sweep_seed),
    )
    spec = {
        "m_list": list(SWEEP_M), "s_list": list(SWEEP_S),
        "d_list": [float(d) for d in SWEEP_D], "seed": sweep_seed, "jobs": SWEEP_JOBS,
    }
    return [Request(argv, "sweep", 0, spec)]


WORKLOADS = {
    "exhaust-1024": exhaust_1024,
    "bessel-riesz": bessel_riesz,
    "cli-mix": cli_mix,
    "sweep-jobs2": sweep_jobs2,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The fixed request list (one body) of a workload for a seed."""
    try:
        make = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}") from None
    return make(seed)
