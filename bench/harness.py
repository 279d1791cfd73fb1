"""Measurement loop, metrics and provenance of one benchmark run.

A run repeats the workload's fixed body (its request list) until the
measuring time is spent, one client in a closed loop: each request goes
through ``expframes.cli.main(argv)`` in-process with stdout captured, and the
next request starts when the previous one returns.  End-to-end timings are
per-request medians over the bodies of an untraced run, as measured.  A
traced run alternates
untraced and traced bodies and reports per-layer metrics from the traced
ones, plus the tracing overhead.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Bodies a run needs at least: untraced, and traced in a traced run.
MIN_BODIES = 3
MIN_TRACED_BODIES = 2
# A run stops starting bodies once this much time has passed, so that a
# slow commit still finishes well inside the 180 s a run may take.
BODY_BUDGET_S = 120.0
SETUP_REPS = 5
SETUP_ARGV = ["construct", "--spectrum", '{"m":4,"cells":[0]}', "--d", "1"]
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from expframes.cli import main; "
    f"sys.exit(main({SETUP_ARGV!r}))"
)
LAYER_MODULES = ("cli", "construct", "selection", "verify")


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, too few CPUs, ...)."""


def load_expframes() -> dict:
    """Import the package from ROOT/src and nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "expframes" / "__init__.py").is_file():
        raise SetupError(f"no expframes sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"expframes.{name}") for name in LAYER_MODULES}
    for mod in mods.values():
        if src not in Path(mod.__file__).resolve().parents:
            raise SetupError(f"{mod.__name__} was imported from {mod.__file__}, not {src}")
    return mods


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Body:
    wall: float
    latencies: list[float]
    outcomes: list[tuple]
    errors: list[str]
    layers: dict | None = None


def _call(main, argv) -> int | None:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed request; the run goes on
        traceback.print_exc()
        return None


def run_body(requests, ef, tracer=None, first_id=0) -> Body:
    """Send every request once, in order, and capture exit codes and stdout."""
    cli = ef["cli"]
    latencies, outcomes, errors = [], [], []
    start = perf_counter()
    for i, req in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.request(first_id + i) if tracer else contextlib.nullcontext()
        t = perf_counter()
        with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = _call(cli.main, req.argv)
        latencies.append(perf_counter() - t)
        outcomes.append((rc, out.getvalue()))
        errors.append(err.getvalue())
    return Body(perf_counter() - start, latencies, outcomes, errors)


def _traced_body(requests, ef, first_id) -> tuple[Body, list]:
    tracer = tracing.Tracer()
    with tracing.installed(tracer, ef):
        body = run_body(requests, ef, tracer, first_id)
    jobs = {first_id + i: req.spec["jobs"] for i, req in enumerate(requests) if "jobs" in req.spec}
    body.layers = tracing.layer_metrics(tracer.spans, jobs)
    return body, tracer.spans


def measure(requests, ef, seconds: float, trace: bool) -> tuple[list[Body], list[Body], list]:
    """Bodies until the time is spent: (untraced, traced, traced spans)."""
    plain, traced, spans = [], [], []
    start = perf_counter()
    sides = (plain, traced) if trace else (plain,)
    while True:
        if trace and len(traced) < len(plain):
            body, body_spans = _traced_body(requests, ef, len(traced) * len(requests))
            traced.append(body)
            spans.append(body_spans)
        else:
            body = run_body(requests, ef)
            plain.append(body)
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(plain) >= MIN_BODIES and len(traced) >= trace * MIN_TRACED_BODIES:
            break
        if elapsed + body.wall > BODY_BUDGET_S and all(sides):
            break
    return plain, traced, spans


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing and running one construct."""

    def once() -> float:
        t = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
            text=True, timeout=60,
        )
        elapsed = perf_counter() - t
        if proc.returncode != 0 or json.loads(proc.stdout).get("lower") != 0.25:
            raise SetupError(f"set-up construct failed: {proc.stderr.strip()[-300:]}")
        return elapsed

    once()  # the first start writes bytecode caches; users pay that once
    return statistics.median(once() for _ in range(SETUP_REPS))


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "expframes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_commit": _git_commit(ROOT), "source_sha256": _source_digest(ROOT),
        "nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile (inclusive), for q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _named(declared: list[dict], values: dict) -> dict:
    """Values of the declared metrics, in declared order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path | None = None) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    try:
        requests = workloads.generate(workload, seed)
    except ValueError as exc:
        raise SetupError(str(exc)) from None
    jobs = max(req.spec.get("jobs", 1) for req in requests)
    if jobs > nproc():
        raise SetupError(f"{workload} needs {jobs} worker threads but only {nproc()} CPUs are usable")
    spec = json.loads(SPEC_PATH.read_text())
    ef = load_expframes()
    setup_s = None if trace else setup_seconds()
    run_body(workloads.generate("cli-mix", seed)[:5], ef)  # warm lazy imports and LAPACK
    started = time.time()
    plain, traced, spans = measure(requests, ef, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bodies = plain + traced
    digests = {oracle.digest(requests, b.outcomes) for b in bodies}
    deterministic = len(digests) == 1
    verdicts = [oracle.check(req, rc, text) for req, (rc, text) in zip(requests, plain[0].outcomes)]
    failed_per_body = sum(v.failed for v in verdicts)
    wrong = [v for v in verdicts if v.status == "wrong"]
    margins = [x for v in verdicts for x in v.margins]
    ratios = [x for v in verdicts for x in v.bessel_ratios]
    correct = not wrong and deterministic and bool(margins)

    if trace:
        layers = tracing.median_metrics([b.layers for b in traced])
        layers["quality.cert_margin_min"] = min(margins, default=0.0)
        layers["quality.bessel_ratio_max"] = max(ratios, default=0.0)
        layers["cli.fail_frac"] = failed_per_body / len(requests)
        # Traced and untraced bodies alternate, so they share the drift.
        layers["trace.overhead_frac"] = (
            statistics.median(b.wall for b in traced) / statistics.median(b.wall for b in plain) - 1.0
        )
        metrics = _named(spec["per_layer"], layers)
    else:
        # Each request's latency is its median over the bodies, so a burst
        # of contention that hits one body moves no figure.
        latencies = [statistics.median(lat) for lat in zip(*(b.latencies for b in plain))]
        values = {
            "setup_s": setup_s,
            "wall_s": sum(latencies),
            "req_p50_ms": 1000.0 * statistics.median(latencies),
            "req_p99_ms": 1000.0 * _quantile(latencies, 0.99),
            "cert_margin_gmean": math.exp(statistics.fmean(map(math.log, margins))) if margins else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = _named(spec["end_to_end"], values)

    result = {
        "correct": correct,
        "attempted": len(requests) * len(bodies),
        "failed": failed_per_body * len(bodies),
        "metrics": metrics,
    }
    prov = provenance(workload, seed, seconds, trace)
    prov.update(
        bodies_untraced=len(plain), bodies_traced=len(traced),
        output_digest=min(digests) if deterministic else "nondeterministic",
    )
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    failures = collections.Counter(
        re.sub(r"\d+", "N", f"{v.status}: {v.reason}; stderr: {(err.strip() or '-').splitlines()[-1]}")
        for v, err in zip(verdicts, plain[0].errors) if v.failed
    )
    for line, count in sorted(failures.items()):
        print(f"# {count} x {line}")
    if not deterministic:
        print("# wrong: outputs differ between bodies (or between traced and untraced)")
    print(f"# fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for name, m in metrics.items():
        print(f"# {name:44s} {m['value']:.6g} {m['unit']}")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracing.write_jsonl(trace_path, spans)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    if out is not None:
        record = {
            "provenance": prov, "started": started, "ended": time.time(),
            "walls": [b.wall for b in plain],
            "result": result,
        }
        with open(out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return result

