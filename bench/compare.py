"""Compare a parent and a change on the benchmark's end-to-end metrics.

    python3 bench/compare.py --parent ../parent --change .

Both trees must hold the same bench/ files. For each workload in
BENCHMARK.json and each of MIN_PAIRS (10) seeds the two trees run back to back for
its run_seconds, alternating which runs first. Each workload x metric row
gives both sides' medians and quartiles and a verdict:

- better: over at least 10 pairs, the change wins at least 9 in 10 (ties
  count for neither), the medians differ by more than the parent's
  quartile spread, and the change fails no more operations than the parent
  on the passes both sides completed;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- within bound: otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # fewer pairs can show a regression but not a gain
FIRST_SEED = 1000


def verdict(parent: list[float], change: list[float], better: str, bound: float, parent_failed: int, change_failed: int) -> str:
    """Verdict for paired runs, parent[i] and change[i] sharing a seed;
    *_failed are the failed operations on the passes both sides completed."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and sign * (c_med - p_med) > spread
    if gain and change_failed <= parent_failed:
        return "better"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "within bound"


def _bench_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "bench").rglob("*.py")) + [tree / "BENCHMARK.json"]:
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, with the failures per pass from its details."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["failed_per_pass"] = details["notes"]["failed_per_pass"]
    return result


def collect(parent: Path, change: Path, workloads, pairs: int, seconds: int) -> dict:
    runs: dict = {w: {"parent": [], "change": []} for w in workloads}
    for w in workloads:
        for i in range(pairs):
            seed = FIRST_SEED + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                result = run_once(tree, w, seed, seconds)
                runs[w][side].append(result)
                print(f"{w} seed {seed} {side}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    return runs


def common_failures(sides: dict) -> dict[str, int]:
    """Failed operations per side, summed over the passes both runs of a
    pair completed: the same inputs on both sides."""
    failed = {"parent": 0, "change": 0}
    for p, c in zip(sides["parent"], sides["change"]):
        common = min(len(p["failed_per_pass"]), len(c["failed_per_pass"]))
        failed["parent"] += sum(p["failed_per_pass"][:common])
        failed["change"] += sum(c["failed_per_pass"][:common])
    return failed


def report(runs: dict, spec: dict) -> list[str]:
    lines = [f"{'workload':<12} {'metric':<18} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} verdict"]
    for w, sides in runs.items():
        common = common_failures(sides)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change")}
            cells = []
            for s in ("parent", "change"):
                q1, _, q3 = statistics.quantiles(values[s], n=4)
                cells.append(f"{statistics.median(values[s]):.5g} [{q1:.5g}, {q3:.5g}]")
            v = verdict(values["parent"], values["change"], metric["better"], metric["bound"], common["parent"], common["change"])
            lines.append(f"{w:<12} {name:<18} {cells[0]:<34} {cells[1]:<34} {v}")
        failed = {s: sum(r["failed"] for r in sides[s]) for s in ("parent", "change")}
        attempted = {s: sum(r["attempted"] for r in sides[s]) for s in ("parent", "change")}
        lines.append(f"{w:<12} {'failed/attempted':<18} {failed['parent']}/{attempted['parent']:<28} {failed['change']}/{attempted['change']}")
        lines.append(f"{w:<12} {'failed, same passes':<18} {common['parent']:<34} {common['change']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare a parent and a change on the benchmark.")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    if _bench_digest(args.parent) != _bench_digest(args.change):
        parser.error("the two trees hold different benchmark code; compare with identical bench/")
    workloads = [w["name"] for w in spec["workloads"]]
    runs = collect(args.parent.resolve(), args.change.resolve(), workloads, MIN_PAIRS, spec["run_seconds"])
    print("\n".join(report(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
