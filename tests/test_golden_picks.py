"""The residues a fixed set of requests picks, against a committed table.

The picks depend on the mathematical problem, not on floating-point
rounding: they must not move with numpy's version or the BLAS thread count,
nor with a change that keeps the engines' arithmetic.  Each request runs
through the CLI, and only its residues are compared (for sweep, whose rows
carry no residues, each row's m, n and set size), never a float bound.

The table, golden_picks.json, is printed by

    PYTHONPATH=src python tests/test_golden_picks.py > tests/golden_picks.json

Regenerate it only with a change that is meant to move the picks.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from expframes.cli import main

TABLE = Path(__file__).with_name("golden_picks.json")
INTERVALS = '{"intervals":[[0.3,0.9],[2.0,2.5]]}'
REQUESTS = {
    "sampling-m16": ["construct", "--spectrum", '{"m":16,"cells":[0,1,2,5]}', "--d", "1"],
    "sampling-m32": ["construct", "--spectrum", INTERVALS, "--m", "32", "--d", "0.5"],
    "sampling-m256": ["construct", "--spectrum", INTERVALS, "--m", "256", "--d", "1"],
    # m < 3n: the full-rank greedies score from the rows' projections on the basis
    "sampling-m32-n28": [
        "construct", "--spectrum",
        json.dumps({"m": 32, "cells": [r for r in range(32) if r not in (3, 10, 17, 25)]}),
        "--d", "0.5",
    ],
    # 18 steps at m = 32 cannot cover Z_m, so every pick shows
    "sampling-m32-n12": [
        "construct", "--spectrum", '{"m":32,"cells":[0,1,2,4,5,7,9,12,16,20,25,27]}', "--d", "0.5",
    ],
    "sampling-m16-n12": [
        "construct", "--spectrum",
        json.dumps({"m": 16, "cells": [0, 1, 2, 4, 5, 6, 8, 9, 11, 12, 13, 15]}), "--d", "3",
    ],
    "bessel-m32-n20": [
        "construct", "--spectrum",
        json.dumps({"m": 32, "cells": sorted([*range(0, 30, 3), *range(1, 31, 3)])}),
        "--mode", "bessel",
    ],
    # n = m - 1, so the default k = n + 1 is m
    "bessel-m16-k-is-m": [
        "construct", "--spectrum", json.dumps({"m": 16, "cells": list(range(15))}),
        "--mode", "bessel",
    ],
    "bessel-m32": ["construct", "--spectrum", INTERVALS, "--m", "32", "--mode", "bessel"],
    "bessel-m32-k6": [
        "construct", "--spectrum", '{"m":32,"cells":[0,3,9,17]}', "--mode", "bessel", "--k", "6",
    ],
    "bessel-m256": ["construct", "--spectrum", INTERVALS, "--m", "256", "--mode", "bessel"],
    "riesz-m16": [
        "construct", "--spectrum", '{"m":16,"cells":[0,1,2,3,8,9]}', "--mode", "riesz",
        "--d", "0.5",
    ],
    "riesz-m32": ["construct", "--spectrum", INTERVALS, "--m", "32", "--mode", "riesz", "--d", "0.25"],
    # 42 cells: from about the tenth pick on, the greedy screens its candidates
    "riesz-m256-screened": [
        "construct", "--spectrum", INTERVALS, "--m", "256", "--mode", "riesz", "--d", "0.25",
    ],
    "exhaust": [
        "exhaust", "--spectrum", INTERVALS, "--d", "1", "--schedule", "16,32,64", "--format", "json",
    ],
    "sweep-jobs2": [
        "sweep", "--m-list", "32", "--s-list", "1/8,1/4", "--d-list", "0.5,1", "--seed", "5",
        "--jobs", "2", "--format", "json",
    ],
}


def picks(argv: list[str], out: str) -> list[list[int]]:
    """The residues of a request's output: one list per set it reports."""
    report = json.loads(out)
    if argv[0] == "construct":
        return [report["residues"]]
    if argv[0] == "exhaust":
        return [stage["report"]["residues"] for stage in report]
    return [[row["m"], row["n"], row["J"]] for row in report]


def run(argv: list[str]) -> list[list[int]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return picks(argv, out.getvalue())


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_picks_match_the_table(name):
    assert run(REQUESTS[name]) == json.loads(TABLE.read_text())[name]


def test_table_covers_every_request():
    assert sorted(json.loads(TABLE.read_text())) == sorted(REQUESTS)


if __name__ == "__main__":
    rows = (f"  {json.dumps(name)}: {json.dumps(run(REQUESTS[name]))}" for name in sorted(REQUESTS))
    print("{\n" + ",\n".join(rows) + "\n}")
