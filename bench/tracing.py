"""Outside-in span tracing of the expframes layers.

The traced run wraps the public functions the workloads reach, at the place
where their caller looks them up (modules import by name, so patching the
defining module alone would miss callers that hold their own reference).
Spans live in memory and are written as JSONL at the end.  Each span has a
name, start and end (``time.perf_counter``), the id of the span that caused
it, the request id and, for some spans, counters such as matrix order.

Every thread keeps its own span stack, so the ``sweep --jobs`` worker threads
attribute correctly: a span opened on an empty worker stack is parented to
the request's root span on the client thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "thread": self.thread,
            **self.attrs,
        }


class Tracer:
    """Collects spans from wrapped functions, one stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: int | None = None
        self._client: int | None = None
        self._root: int | None = None

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Mark the calls made inside as one request from the calling thread."""
        self._request, self._client, self._root = request_id, threading.get_ident(), None
        try:
            yield
        finally:
            self._request = self._client = self._root = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """fn wrapped in a span; attrs(args, result) adds counters on success."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif thread == self._client:
                parent, self._root = None, sid
            else:
                parent = self._root
            span = Span(sid, name, 0.0, 0.0, parent, self._request, thread)
            stack.append(sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced


class _Delegate:
    """Attribute view of a module with some names replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        # Copied names resolve without a __getattr__ call, which keeps the
        # cost of every other numpy lookup in the traced module unchanged.
        self.__dict__.update(vars(base), **overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _order(args, result):
    return {"n": int(args[0].shape[-1])}


def _picks(args, result):
    return {"picks": len(result.indices)}


def _steps(args, result):
    return {"steps": len(result.barrier_log)}


def patch_points(ef):
    """(owner, attribute, span name, attrs) for every traced lookup site.

    ef maps module short names (cli, construct, selection, verify) to the
    imported expframes modules.
    """
    cli, cons, sel, ver = ef["cli"], ef["construct"], ef["selection"], ef["verify"]
    return [
        (cli, "main", "cli.main", None),
        (cli, "_sweep_case", "cli.sweep_case", None),
        (cli, "parse_spectrum", "spectrum.parse_spectrum", None),
        (cli, "quantize_inner", "spectrum.quantize_inner", None),
        (cons, "quantize_inner", "spectrum.quantize_inner", None),
        (cons, "fourier_system", "construct.fourier_system", None),
        (cons, "build_sampling", "construct.build_sampling", None),
        (cons, "build_bessel", "construct.build_bessel", None),
        (cons, "build_riesz", "construct.build_riesz", None),
        (cons, "exhaust_general", "construct.exhaust_general", None),
        (cons, "bss_unweighted", "selection.bss_unweighted", None),
        (cons, "upper_select", "selection.upper_select", _picks),
        (cons, "rit_select", "selection.rit_select", _picks),
        (sel, "bss_select", "selection.bss_select", _steps),
        (sel, "_upper_run", "selection.upper_run", None),
        (sel, "hermitian_eig", "linalg.hermitian_eig.from_selection", _order),
        (ver, "hermitian_eig", "linalg.hermitian_eig.from_verify", _order),
        (ver, "sampling_bounds", "verify.sampling_bounds", None),
        (ver, "riesz_bounds", "verify.riesz_bounds", None),
        (ver, "duality_check", "verify.duality_check", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, ef):
    """Patch every lookup site for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, attrs in patch_points(ef):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))
        sel = ef["selection"]
        np_mod = sel.np
        eigvalsh = tracer.wrap("linalg.eigvalsh", np_mod.linalg.eigvalsh, _order)
        saved.append((sel, "np", np_mod))
        sel.np = _Delegate(np_mod, linalg=_Delegate(np_mod.linalg, eigvalsh=eigvalsh))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_jsonl(path, spans_per_body: list[list[Span]]) -> None:
    """One JSON object per span, tagged with the index of its body."""
    with open(path, "w") as fh:
        for body, spans in enumerate(spans_per_body):
            for span in spans:
                fh.write(json.dumps({"body": body, **span.to_dict()}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of a union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - _covered(children.get(s.id, [])) for s in spans}


BUILDS = ("construct.build_sampling", "construct.build_bessel", "construct.build_riesz")


def layer_metrics(spans: list[Span], jobs_by_request: dict[int, int]) -> dict[str, float]:
    """Per-layer figures of one traced body, from its spans alone."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    own = self_times(spans)

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    eig_sel, eig_ver = "linalg.hermitian_eig.from_selection", "linalg.hermitian_eig.from_verify"
    eig_names = (eig_sel, eig_ver, "linalg.eigvalsh")
    build_requests = {s.request for name in BUILDS for s in by_name.get(name, ())}
    builds = sum(calls(name) for name in BUILDS)
    verify_spans = [
        s for name in ("verify.sampling_bounds", "verify.riesz_bounds")
        for s in by_name.get(name, ()) if s.request in build_requests
    ]
    eig_in_builds = sum(
        1 for name in (eig_sel, eig_ver) for s in by_name.get(name, ())
        if s.request in build_requests
    )
    sweep_mains = [s for s in by_name.get("cli.main", ()) if s.request in jobs_by_request]
    sweep_capacity = sum(s.duration * jobs_by_request[s.request] for s in sweep_mains)
    bss_s, bss_steps = total("selection.bss_select"), attr_sum("selection.bss_select", "steps")
    return {
        "selection.bss_select.s": bss_s,
        "selection.bss_select.steps": bss_steps,
        "selection.bss_select.s_per_step": ratio(bss_s, bss_steps),
        "linalg.hermitian_eig.from_selection.s": total(eig_sel),
        "linalg.hermitian_eig.from_selection.calls": calls(eig_sel),
        "selection.upper_select.s": total("selection.upper_select"),
        "selection.upper_select.restarts": calls("selection.upper_run") - calls("selection.upper_select"),
        "selection.rit_select.s": total("selection.rit_select"),
        "linalg.eigvalsh.calls": calls("linalg.eigvalsh"),
        "linalg.eigvalsh.s": total("linalg.eigvalsh"),
        "selection.picks_per_eval": ratio(
            attr_sum("selection.upper_select", "picks") + attr_sum("selection.rit_select", "picks"),
            calls("linalg.eigvalsh"),
        ),
        "verify.riesz_bounds.s": total("verify.riesz_bounds"),
        "verify.sampling_bounds.s": total("verify.sampling_bounds"),
        "verify.sampling_bounds.calls": calls("verify.sampling_bounds"),
        "verify.duality_check.s": total("verify.duality_check"),
        "verify.calls_per_construct": ratio(len(verify_spans), builds),
        "linalg.hermitian_eig.calls_per_construct": ratio(eig_in_builds, builds),
        "cli.main.self_s": self_total("cli.main"),
        "spectrum.parse_spectrum.s": total("spectrum.parse_spectrum"),
        "spectrum.quantize_inner.s": total("spectrum.quantize_inner"),
        "construct.fourier_system.s": total("construct.fourier_system"),
        "construct.build_sampling.self_s": self_total("construct.build_sampling"),
        "construct.build_bessel.self_s": self_total("construct.build_bessel"),
        "construct.build_riesz.self_s": self_total("construct.build_riesz"),
        "cli.sweep.busy_frac": ratio(total("cli.sweep_case"), sweep_capacity),
        "linalg.eig_n3_sum": sum(
            s.attrs.get("n", 0) ** 3 for name in eig_names for s in by_name.get(name, ())
        ),
    }


def median_metrics(per_body: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced bodies."""
    return {k: statistics.median(body[k] for body in per_body) for k in per_body[0]}
