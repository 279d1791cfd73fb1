"""Command-line surface: construct, verify, duality, exhaust, sweep.

Reports go to stdout as JSON or CSV (CSV schemas are versioned in a header
comment).  Every numeric bound in a report comes from the verification
layer: the builders certify through it once, and the CLI prints their
numbers.  Exit codes: 0 all certificates pass, 1 certificate failure, 2
input error.

``sweep --jobs N`` validates the whole grid first, then builds its points
on N threads, longest point first.  The greedy loop holds the interpreter
lock between its LAPACK calls, so each thread hands its build to one of N
worker processes, which run BLAS on one thread because they are forked
inside main's one-thread pin (below) and keep it.  They are forked before
any thread starts: a fork from a process with other threads can copy a
lock another thread holds.  Where fork is not available, or the caller
already runs other threads, the points are built one after another on the
calling thread, as with --jobs 1.  Every command runs with numpy's bundled
OpenBLAS on one thread, set through the thread-count routines of
linalg._openblas_routines (main restores the caller's setting afterwards;
with another BLAS nothing is pinned), and rows are sorted, so the output
depends neither on N nor on OPENBLAS_NUM_THREADS.

``exhaust`` takes --d only in sampling mode, where it defaults to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import construct as cons
from . import verify as ver
from .errors import CertificateFailed, ExpframesError, NoFeasibleCandidate
from .linalg import _openblas_routines
from .spectrum import GridSpectrum, SamplingSet, parse_spectrum, quantize_inner

CSV_VERSION = "expframes-csv v1"

SWEEP_COLUMNS = (
    "m", "n", "d", "J", "density", "landau_floor",
    "lower", "upper", "C_target", "s_squared", "pass",
)


def _load_spectrum(text: str):
    """Inline JSON (starts with '{') or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_spectrum(stripped)
    return parse_spectrum(Path(text).read_text())


def _as_grid(spec, m_arg):
    if isinstance(spec, GridSpectrum):
        if m_arg is not None and m_arg != spec.m:
            raise ValueError(f"--m {m_arg} conflicts with the grid spectrum's m={spec.m}")
        return spec
    if m_arg is None:
        raise ValueError("interval spectra need --m to fix the grid order")
    return quantize_inner(spec, int(m_arg))


def _parse_list(text: str, convert, what: str) -> list:
    """Comma-separated values through convert; empty tokens are skipped."""
    try:
        return [convert(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what} list {text!r}") from exc


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _emit_csv(columns, rows) -> None:
    out = sys.stdout
    out.write(f"# {CSV_VERSION} columns={','.join(columns)}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_construct(args) -> int:
    grid = _as_grid(_load_spectrum(args.spectrum), args.m)
    if args.k is not None and args.mode != "bessel":
        raise ValueError("--k is only valid with --mode bessel")
    if args.d is not None and args.mode == "bessel":
        raise ValueError("--d is only valid with --mode sampling or riesz")
    if args.mode == "sampling":
        if args.d is None:
            raise ValueError("--mode sampling needs --d")
        report = cons.build_sampling(grid, args.d)
    elif args.mode == "bessel":
        report = cons.build_bessel(grid, args.k)
    else:
        if args.d is None:
            raise ValueError("--mode riesz needs --d in (0, 1)")
        report = cons.build_riesz(grid, args.d)
    if args.format == "csv":
        _emit_csv(cons.CSV_COLUMNS, [report.csv_row()])
    else:
        _emit_json(report.to_dict())
    return 0


def cmd_verify(args) -> int:
    grid = _as_grid(_load_spectrum(args.spectrum), args.m)
    lam = SamplingSet(grid.m, _parse_list(args.residues, int, "residue"))
    report = ver.sampling_bounds(grid, lam)
    payload = report.to_dict()
    payload["landau_violation"] = report.density < report.landau_floor
    if args.format == "csv":
        row = [
            grid.m, grid.n, len(lam.residues), float(report.density),
            float(report.landau_floor), report.lower, report.upper,
            "", not payload["landau_violation"],
        ]
        _emit_csv(cons.CSV_COLUMNS, [row])
    else:
        _emit_json(payload)
    return 0


def cmd_duality(args) -> int:
    grid = _as_grid(_load_spectrum(args.spectrum), args.m)
    lam = SamplingSet(grid.m, _parse_list(args.residues, int, "residue"))
    report = ver.duality_check(grid, lam)
    _emit_json(report.to_dict())
    ok = report.vacuous or (report.factor_two_pass and report.exact_identity_pass)
    return 0 if ok else 1


def cmd_exhaust(args) -> int:
    spec = _load_spectrum(args.spectrum)
    if isinstance(spec, GridSpectrum):
        spec = spec.to_interval_set()
    if args.d is not None and args.mode == "bessel":
        raise ValueError("--d is only valid with --mode sampling")
    schedule = _parse_list(args.schedule, int, "schedule")
    d = 1.0 if args.d is None else args.d
    stages = cons.exhaust_general(spec, d, schedule, mode=args.mode)
    if args.format == "json":
        _emit_json([st.to_dict() for st in stages])
    else:
        _emit_csv(cons.CSV_COLUMNS, [st.csv_row() for st in stages])
    return 0


def _sweep_points(args) -> list[tuple[int, int, float]]:
    """The (m, n, d) grid in output order, refused whole before any build."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    ms = _parse_list(args.m_list, int, "m")
    fracs = _parse_list(args.s_list, Fraction, "fraction")
    ds = _parse_list(args.d_list, float, "d")
    for m in ms:
        if m < 1:
            raise ValueError(f"m must be at least 1, got {m}")
    for d in ds:
        if not d > 0:
            raise ValueError(f"d must be positive, got {d}")
    for frac in fracs:
        if not 0 < frac <= 1:
            raise ValueError(f"|S| fraction {frac} outside (0, 1]")
    points = []
    for m in ms:
        for frac in fracs:
            n = int(m * frac)
            if n < 1:
                raise ValueError(f"|S| fraction {frac} empty at m={m}")
            points.extend((m, n, d) for d in ds)
    return points


def _sweep_case(m: int, n: int, d: float, seed: int, procs=None):
    """One sweep row; the build runs in the process pool procs when given."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, m, n)))
    cells = tuple(sorted(int(r) for r in rng.choice(m, size=n, replace=False)))
    grid = GridSpectrum(m, cells)
    if procs is None:
        report = cons.build_sampling(grid, d)
    else:
        report = procs.apply(cons.build_sampling, (grid, d))
    bounds = report.bounds
    # build_sampling raises CertificateFailed below its target, so "pass" is true.
    return [
        m, n, d, len(report.sampling_set.residues),
        float(bounds.density), float(bounds.landau_floor),
        bounds.lower, bounds.upper, report.constant_check, (n / m) ** 2,
        True,
    ]


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore.

    main runs every command under it: OpenBLAS's threaded kernels, its own
    dlaed3 among them, can round differently on more threads, and a
    report's bytes must not depend on the caller's thread count.
    """
    routines = _openblas_routines()
    if routines is None:  # another BLAS: nothing to pin
        yield
        return
    set_threads = routines["set_num_threads"]
    threads = routines["get_num_threads"]()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _can_fork() -> bool:
    """Whether worker processes can be forked: fork exists and no other thread runs."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1


def _sweep_parallel(points, seed: int, workers: int) -> list:
    """Rows of points, in order, built by workers forked processes longest first."""
    import multiprocessing
    import signal

    # Pool forks all its workers here, while this is the only thread; the
    # threads finish before the pool is terminated.  Ctrl-C goes to the
    # parent alone: a worker killed mid-task would leave its thread waiting
    # for a result forever.  Ignoring it is the workers' only initializer.
    pool = multiprocessing.get_context("fork").Pool(
        workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)
    )
    with pool as procs, ThreadPoolExecutor(max_workers=workers) as threads:
        futures = [None] * len(points)
        for i in sorted(range(len(points)), key=lambda i: points[i][1:], reverse=True):
            futures[i] = threads.submit(_sweep_case, *points[i], seed, procs)
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:  # on a failure, build no further point
                f.cancel()


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    points = _sweep_points(args)
    workers = min(args.jobs, len(points))
    if workers > 1 and _can_fork():
        rows = _sweep_parallel(points, args.seed, workers)
    else:
        rows = [_sweep_case(*p, args.seed) for p in points]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if args.format == "json":
        _emit_json([dict(zip(SWEEP_COLUMNS, row)) for row in rows])
    else:
        _emit_csv(SWEEP_COLUMNS, rows)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="expframes",
        description="Certified sampling, Bessel and Riesz set construction on grid spectra.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No prefix matching: an option a subcommand lacks must not pass as one it has.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p, grid_order=True, residues=False, fmt="json"):
        # fmt: the --format default; None where the command has one output format
        p.add_argument("--spectrum", required=True,
                       help="inline JSON or path; grid or interval descriptor")
        if grid_order:
            p.add_argument("--m", type=int, default=None,
                           help="grid order used to quantize an interval spectrum")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        if residues:
            p.add_argument("--residues", required=True, help="comma-separated residues")

    p_con = add_parser("construct", help="build a certified set for a spectrum")
    add_common(p_con)
    p_con.add_argument("--mode", choices=("sampling", "bessel", "riesz"), default="sampling")
    p_con.add_argument("--d", type=float, default=None)
    p_con.add_argument("--k", type=int, default=None, help="bessel size (default n+1)")
    p_con.set_defaults(func=cmd_construct)

    p_ver = add_parser("verify", help="recompute bounds for a (spectrum, residues) pair")
    add_common(p_ver, residues=True)
    p_ver.set_defaults(func=cmd_verify)

    p_dua = add_parser("duality", help="sampling vs complement-Riesz bound check")
    add_common(p_dua, residues=True, fmt=None)
    p_dua.set_defaults(func=cmd_duality)

    p_exh = add_parser("exhaust", help="stagewise constructions over a schedule")
    add_common(p_exh, grid_order=False, fmt="csv")
    p_exh.add_argument("--d", type=float, default=None, help="sampling mode only (default 1)")
    p_exh.add_argument("--mode", choices=("sampling", "bessel"), default="sampling")
    p_exh.add_argument("--schedule", required=True, help='grid orders, e.g. "16,32,64"')
    p_exh.set_defaults(func=cmd_exhaust)

    p_swp = add_parser("sweep", help="bound-vs-density grid for plotting")
    p_swp.add_argument("--m-list", required=True, help='e.g. "32,64"')
    p_swp.add_argument("--s-list", required=True, help='measure fractions, e.g. "1/16,1/8"')
    p_swp.add_argument("--d-list", required=True, help='e.g. "0.5,1,3"')
    p_swp.add_argument("--seed", type=int, default=0)
    p_swp.add_argument("--jobs", type=int, default=1,
                       help="grid points built at once, each in a forked worker process")
    p_swp.add_argument("--format", choices=("json", "csv"), default="csv")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except (CertificateFailed, NoFeasibleCandidate) as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except (ExpframesError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
