"""Before/after table from two sets of benchmark runs.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are results.jsonl files written by run.py (or the
.bench_runs directories holding them), one per commit, made with the
same benchmark code and settings. For each workload and metric the
table gives each side's median and quartiles with the sample count, the
pairs the change won, and a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), the medians differ by more than the
  parent's own spread (the distance between its quartiles) and the
  change's error rate on the workload is not above the parent's;
- worse: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json (per-layer metrics have no
  bound: worse mirrors improved);
- unresolved: the parent's spread is wider than the bound and not every
  change run beats every parent run, or the change wins enough pairs
  but there are fewer than ten or more of its runs fail;
- unchanged: otherwise.

Runs pair up by seed where both sides ran the same seeds, else in order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str | Path) -> list[dict]:
    path = Path(path)
    if path.is_dir():
        path = path / "results.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list[tuple[int, float]], change: list[tuple[int, float]]):
    """(parent, change) value pairs: by seed when the seeds match, else in order."""
    p_seeds = [s for s, _ in parent]
    c_seeds = [s for s, _ in change]
    if sorted(p_seeds) == sorted(c_seeds) and len(set(p_seeds)) == len(p_seeds):
        by_seed = dict(change)
        return [(v, by_seed[s]) for s, v in parent]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def verdict(
    parent: list[float], change: list[float], pairs: list[tuple[float, float]],
    better: str, bound: float | None, more_failures: bool = False,
) -> tuple[str, int]:
    """Verdict and number of pairs the change won; a gain does not count
    when more of the change's runs fail than the parent's."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = p_q3 - p_q1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    n = len(pairs)
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    if wins >= WIN_SHARE * n and n and gain > spread:
        return ("improved" if n >= MIN_PAIRS and not more_failures else "unresolved"), wins
    if bound is None:
        if losses >= WIN_SHARE * n and n and -gain > spread:
            return ("worse" if n >= MIN_PAIRS else "unresolved"), wins
        return "unchanged", wins
    if -gain > bound * abs(p_med):
        return "worse", wins
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def table(parent_runs: list[dict], change_runs: list[dict], bench: dict) -> list[str]:
    metrics = [(m, m.get("bound")) for m in bench["end_to_end"] + bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    lines = [
        f"{'workload':<11} {'metric':<48} {'unit':<6} {'parent median [q1, q3] (n)':<36} "
        f"{'change median [q1, q3] (n)':<36} {'won':>7}  verdict"
    ]

    def fmt(values: list[float]) -> str:
        q1, med, q3 = quartiles(values)
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)})"

    def errors(runs, workload: str) -> tuple[int, int]:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        return sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)

    def fmt_errors(failed: int, attempted: int) -> str:
        return f"{failed}/{attempted} = {failed / attempted:.4f}" if attempted else "-"

    for workload in workloads:
        p_err, c_err = errors(parent_runs, workload), errors(change_runs, workload)
        more_failures = c_err[0] * max(p_err[1], 1) > p_err[0] * max(c_err[1], 1)
        lines.append(
            f"{workload:<11} {'error_rate (failed/attempted)':<48} {'ratio':<6} "
            f"{fmt_errors(*p_err):<36} {fmt_errors(*c_err):<36}"
        )
        for metric, bound in metrics:
            name = metric["name"]

            def values(runs):
                return [
                    (r["seed"], r["result"]["metrics"][name]["value"])
                    for r in runs
                    if r["workload"] == workload and name in r["result"]["metrics"]
                ]

            p, c = values(parent_runs), values(change_runs)
            if not p or not c:
                continue
            pairs = pair_up(p, c)
            pv, cv = [v for _, v in p], [v for _, v in c]
            word, wins = verdict(pv, cv, pairs, metric["better"], bound, more_failures)
            lines.append(
                f"{workload:<11} {name:<48} {metric['unit']:<6} {fmt(pv):<36} "
                f"{fmt(cv):<36} {wins:>3}/{len(pairs):<3}  {word}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent results.jsonl or its directory")
    parser.add_argument("change", help="change results.jsonl or its directory")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    for line in table(load(args.parent), load(args.change), bench):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
