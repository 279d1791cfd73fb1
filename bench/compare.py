"""Compare two benchmark result files, parent against change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``bench/run.py --out FILE``.  Runs of the
same workload, trace mode and seed form a pair.  One row is printed per
workload and metric with both sides' median and quartiles, the change's wins
over its pairs, and a verdict:

* ``improved``: at least 10 pairs, run in alternating order, the change wins
  at least 9 in 10 of them (ties count for neither side), and the medians
  differ by more than the parent's interquartile range;
* ``REGRESSION``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's spread (IQR over median) exceeds the bound, so
  neither claim can be made, unless the pairs rule's preconditions hold (10
  alternated pairs, no more failures) and every change run beats every parent
  run, which is reported as ``improved (all runs)``;
* ``within bound`` (end-to-end) or ``-`` (per-layer, which has no bound).

Exit code 1 if any row is a regression, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list[dict], change: list[dict]) -> dict:
    """(workload, trace) -> list of (parent record, change record) by seed."""
    def key(rec):
        p = rec["provenance"]
        return p["workload"], p["trace"], p["seed"]

    pending = defaultdict(list)
    for rec in sorted(change, key=lambda r: r["started"]):
        pending[key(rec)].append(rec)
    pairs = defaultdict(list)
    for rec in sorted(parent, key=lambda r: r["started"]):
        if pending[key(rec)]:
            pairs[key(rec)[:2]].append((rec, pending[key(rec)].pop(0)))
    return pairs


def alternated(pairs: list[tuple[dict, dict]]) -> bool:
    """True when the side that ran first switches from each pair to the next."""
    firsts = [p["started"] < c["started"] for p, c in pairs]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(p_vals, c_vals, lower_is_better: bool, bound, paired: bool) -> tuple[str, int]:
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(p_vals, c_vals))
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gain = sign * (c_med - p_med)
    if bound is not None and p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        all_better = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
        return ("improved (all runs)" if paired and all_better else "unresolved"), wins
    if bound is not None and -gain > bound * abs(p_med):
        return "REGRESSION", wins
    if paired and wins >= WIN_SHARE * len(p_vals) and gain > p_q3 - p_q1:
        return "improved", wins
    return ("within bound" if bound is not None else "-"), wins


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows, regressed = [], False
    head = f"{'workload':14s} {'metric':44s} {'parent med [q1, q3]':>32s} {'change med [q1, q3]':>32s} {'delta':>8s} {'wins':>7s}  verdict"
    rows.append(head)
    for (workload, trace), pairs in sorted(pair_up(parent, change).items()):
        failed_p = sum(p["result"]["failed"] for p, _ in pairs)
        failed_c = sum(c["result"]["failed"] for _, c in pairs)
        # A gain does not count when more requests fail than at the parent.
        paired = len(pairs) >= MIN_PAIRS and alternated(pairs) and failed_c <= failed_p
        if not paired:
            rows.append(f"# {workload} trace={trace}: {len(pairs)} pairs, alternated="
                        f"{alternated(pairs)}, failed {failed_p} -> {failed_c}; no gain can be claimed")
        names = pairs[0][0]["result"]["metrics"].keys()
        for name in names:
            meta = metrics.get(name, {"better": "lower"})
            p_vals = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            c_vals = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            text, wins = verdict(p_vals, c_vals, meta["better"] == "lower", meta.get("bound"), paired)
            regressed |= text == "REGRESSION"
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            delta = f"{(c_med - p_med) / abs(p_med):+.1%}" if p_med else "n/a"
            rows.append(
                f"{workload:14s} {name:44s} "
                f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>32s} "
                f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>32s} "
                f"{delta:>8s} {f'{wins}/{len(pairs)}':>7s}  {text}"
            )
        rows.append(f"# {workload} trace={trace}: failed parent={failed_p} "
                    f"change={failed_c}; incorrect runs parent="
                    f"{sum(not p['result']['correct'] for p, _ in pairs)} "
                    f"change={sum(not c['result']['correct'] for _, c in pairs)}")
    return rows, regressed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two bench/run.py --out result files.")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    rows, regressed = compare(load(args.parent), load(args.change), spec)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
