"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 bench/compare.py A.jsonl B.jsonl              # agreement
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl --paired

Each (workload, end-to-end metric) pair is its own row; bounds and
better-directions come from ``BENCHMARK.json``.

Agreement mode checks two sets of runs of the *same* code: every median
of B lies within the metric's bound of A's median, every ``sim_digest``
matches for the same (workload, seed), and no operation failed.

Paired mode judges a change against its parent.  Run ``i`` of each file
for a workload forms pair ``i`` (same seed; alternate which side runs
first when collecting them), and at least 10 pairs are required.  A
metric is a *gain* only if the change wins at least 9/10 of the pairs
(ties count for neither) and the medians differ by more than the
parent's interquartile range; a *regression* if the change's median is
worse than the parent's by more than the bound; *unresolved* where the
parent's own spread exceeds the bound and not every change run beats
every parent run.  A perf-only change must keep every digest.

Exit code 0 when the sets agree (agreement) or nothing regressed
(paired); 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, List[dict]]:
    """Records by workload, in file order."""
    by_workload: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def digest_problems(a: Dict[str, List[dict]], b: Dict[str, List[dict]]) -> List[str]:
    """(workload, seed) keys whose sim_digest differs within or across sets."""
    seen: Dict[Tuple[str, int], set] = {}
    for records in list(a.values()) + list(b.values()):
        for r in records:
            seen.setdefault((r["workload"], r["seed"]), set()).add(r["sim_digest"])
    return [f"{w} seed {s}" for (w, s), digests in sorted(seen.items()) if len(digests) > 1]


def failures(sets: List[Dict[str, List[dict]]]) -> int:
    return sum(r["failed"] for s in sets for records in s.values() for r in records)


def describe(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>14.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def compare(a, b, metrics, paired: bool) -> bool:
    ok = True
    print(
        f"{'workload':<15} {'metric':<12} {'unit':<5} {'A / parent':>40} "
        f"{'B / change':>40} {'delta':>8} {'bound':>6}  verdict"
    )
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        if paired:
            if len(ra) != len(rb) or len(ra) < MIN_PAIRS:
                print(f"{workload}: need >= {MIN_PAIRS} pairs, got {len(ra)}/{len(rb)}")
                ok = False
                continue
            if [r["seed"] for r in ra] != [r["seed"] for r in rb]:
                print(f"{workload}: pair seeds differ")
                ok = False
                continue
        for spec in metrics:
            name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            q1a, ma, q3a = quartiles(va)
            mb = statistics.median(vb)
            delta = (mb - ma) / ma
            worse = delta if lower else -delta
            if not paired:
                verdict = "ok" if abs(delta) <= bound else "DISAGREE"
                ok &= verdict == "ok"
            else:
                better = [(y < x) if lower else (y > x) for x, y in zip(va, vb)]
                wins = sum(better)
                all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
                if wins >= WIN_SHARE * len(va) and abs(mb - ma) > q3a - q1a and worse < 0:
                    verdict = "gain"
                elif (q3a - q1a) / ma > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                    ok = False
                else:
                    verdict = "no regression"
                verdict += f" (change wins {wins}/{len(va)})"
            print(
                f"{workload:<15} {name:<12} {spec['unit']:<5} {describe(va):>40} "
                f"{describe(vb):>40} {100 * delta:>+7.2f}% {100 * bound:>5.1f}%  {verdict}"
            )
    missing = set(a) ^ set(b)
    if missing:
        print(f"workloads in only one set: {', '.join(sorted(missing))}")
        ok = False
    problems = digest_problems(a, b)
    for problem in problems:
        print(f"sim_digest differs: {problem}")
    failed = failures([a, b])
    if failed:
        print(f"failed operations in the records: {failed}")
    return ok and not problems and not failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first set / parent runs")
    parser.add_argument("b", type=Path, help="second set / change runs")
    parser.add_argument("--paired", action="store_true", help="judge B as a change to A")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = compare(load(args.a), load(args.b), spec["end_to_end"], args.paired)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
