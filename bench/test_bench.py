"""Tests of the benchmark itself: generator, oracle, tracing and compare."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import oracle
import tracing
import workloads

EF = harness.load_expframes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_exhaust_layout_fixes_top_order_cells():
    for seed in range(20):
        spec = workloads.exhaust_1024(seed)[0].spec
        counts = [len(oracle.quantize_inner(spec["intervals"], m)) for m in spec["schedule"]]
        assert counts[-1] == workloads.EXHAUST_CELLS and min(counts) >= 1


def _one(argv, kind, spec):
    req = workloads.Request(tuple(argv), kind, 0, spec)
    body = harness.run_body([req], EF)
    return req, body.outcomes[0]


@pytest.mark.parametrize(
    "mode, extra",
    [("sampling", ["--d", "1"]), ("bessel", []), ("riesz", ["--d", "0.5"])],
)
def test_oracle_rejects_dropped_residue(mode, extra):
    spec = {"m": 16, "cells": [0, 1, 2, 5, 9]}
    if extra:
        spec["d"] = float(extra[1])
    argv = ["construct", "--spectrum", json.dumps({"m": 16, "cells": spec["cells"]}),
            "--mode", mode, *extra]
    req, (rc, out) = _one(argv, mode, spec)
    assert oracle.check(req, rc, out).status == "ok"
    report = json.loads(out)
    report["residues"] = report["residues"][1:]
    verdict = oracle.check(req, rc, json.dumps(report))
    assert verdict.status == "wrong" and verdict.failed


def test_oracle_counts_valid_refusal_as_failure():
    # A valid sampling request over the 10*m step budget exits 2 today.
    spec = {"m": 4, "cells": [0, 1, 2], "d": 19.0}
    argv = ["construct", "--spectrum", json.dumps({"m": 4, "cells": [0, 1, 2]}), "--d", "19.0"]
    req, (rc, out) = _one(argv, "sampling", spec)
    assert rc == 2
    verdict = oracle.check(req, rc, out)
    assert verdict.status == "refused" and verdict.failed


def test_cli_mix_stays_within_step_budget():
    for seed in range(5):
        for req in workloads.cli_mix(seed):
            if req.kind == "sampling":
                m, n = req.spec["m"], len(req.spec["cells"])
                assert math.ceil((1.0 + req.spec["d"]) * n) <= 10 * m


def test_oracle_expects_exit_2_for_duality_without_free_cell():
    req = next(r for r in workloads.cli_mix(5) if r.kind == "duality" and r.expect_rc == 2)
    rc, out = harness.run_body([req], EF).outcomes[0]
    assert rc == 2 and oracle.check(req, rc, out).status == "ok"


def test_traced_and_untraced_outputs_are_byte_identical():
    requests = workloads.cli_mix(3)[:60] + workloads.sweep_jobs2(3)
    plain = harness.run_body(requests, EF)
    main_before = EF["cli"].main
    traced, spans = harness._traced_body(requests, EF, first_id=0)
    assert EF["cli"].main is main_before
    assert oracle.digest(requests, plain.outcomes) == oracle.digest(requests, traced.outcomes)

    # Worker-thread spans of the sweep hang off that request's cli.main span.
    sweep_id = len(requests) - 1
    roots = [s for s in spans if s.name == "cli.main" and s.request == sweep_id]
    cases = [s for s in spans if s.name == "cli.sweep_case"]
    assert len(roots) == 1 and len(cases) == 18
    assert all(s.parent == roots[0].id and s.request == sweep_id for s in cases)
    assert traced.layers["cli.sweep.busy_frac"] > 0.0


def test_self_time_subtracts_union_of_children():
    spans = [
        tracing.Span(1, "a", 0.0, 10.0, None, 0, 1),
        tracing.Span(2, "b", 1.0, 4.0, 1, 0, 1),
        tracing.Span(3, "c", 3.0, 6.0, 1, 0, 2),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(5.0)


def _records(values, first_on_even_pairs: bool):
    out = []
    for i, v in enumerate(values):
        first = first_on_even_pairs == (i % 2 == 0)
        out.append({
            "provenance": {"workload": "cli-mix", "trace": 0, "seed": i},
            "started": 2 * i + (0 if first else 1),
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"wall_s": {"value": v, "unit": "s"}}},
        })
    return out


def test_compare_applies_pairs_rule_and_bound():
    spec = json.loads(harness.SPEC_PATH.read_text())
    base = [1.0 + 0.01 * (i % 3) for i in range(10)]
    parent = _records(base, True)
    faster = _records([0.8 * v for v in base], False)
    rows, regressed = compare.compare(parent, faster, spec)
    assert not regressed and rows[1].endswith("improved")
    slower = _records([1.5 * v for v in base], False)
    rows, regressed = compare.compare(parent, slower, spec)
    assert regressed and rows[1].endswith("REGRESSION")
    rows, _ = compare.compare(parent[:9], faster[:9], spec)
    assert "no gain can be claimed" in rows[1] and rows[2].endswith("within bound")
    # A parent spread wider than the bound: every change run is faster, but
    # a gain counts only with 10 alternated pairs.
    wide = [1.0 + 0.4 * (i % 3) for i in range(10)]
    parent, faster = _records(wide, True), _records([0.5 * v for v in wide], False)
    rows, _ = compare.compare(parent, faster, spec)
    assert rows[1].endswith("improved (all runs)")
    rows, _ = compare.compare(parent[:9], faster[:9], spec)
    assert rows[2].endswith("unresolved")


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(Path(harness.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no expframes sources" in proc.stderr

