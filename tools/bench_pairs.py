"""Compare two source trees with perfbench in alternating pairs.

Runs ``perfbench/run.py`` from a parent tree and a change tree (each a
checkout of the repository root), one pair per seed, alternating which
side runs first, and writes a ``BENCH_<pr>.json`` with the per-pair
values, each side's quartiles, the median change and the number of
pairs the change won for every end-to-end metric.  Optionally it adds
traced runs (per-layer medians) and the tier-1 suite's wall time on
each side.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seeds 101-110 --out BENCH_10.json --claim paper256.us_per_iter:15 \\
        --traced 3 --tier1

Each tree runs its own ``perfbench/`` against its own ``src/``, with
only ``--seed`` and ``--trace`` given, so the benchmark sets its own
workloads and run length; the metric names and directions come from
the change tree's ``BENCHMARK.json``.  A claim ``METRIC:PCT`` is met
when, over at least ten pairs, the change's median is at least PCT
percent better than the parent's, the change is better in at least
nine pairs of ten, and the gap between the medians exceeds the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
SIDES = ("parent", "change")
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def seeds_arg(text: str) -> list[int]:
    """``101-110`` or ``101,104,107``."""
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def claim_arg(text: str) -> tuple[str, float]:
    """``paper256.us_per_iter:15``: the metric and the least median
    gain it claims, in percent."""
    metric, _, pct = text.rpartition(":")
    if not metric or not float(pct) > 0:
        raise argparse.ArgumentTypeError(f"want METRIC:PCT, got {text!r}")
    return metric, float(pct)


def perfbench(tree: Path, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, machine) of one perfbench run: its last-line JSON and
    the facts of its ``machine:`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), {})
    return json.loads(lines[-1]), machine


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def directions(tree: Path) -> dict[str, str]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def better(direction: str, change: float, parent: float) -> bool:
    return change < parent if direction == "lower" else change > parent


def claim_verdict(metric: str, pct: float, direction: str,
                  parent: list[float], change: list[float]) -> dict:
    """The claim's numbers and whether each of its rules holds."""
    pq, cq = quartiles(parent), quartiles(change)
    won = sum(better(direction, c, p) for c, p in zip(change, parent))
    # the gap between the medians, positive when the change is better
    gap = (pq[1] - cq[1]) if direction == "lower" else (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    rules = {
        "pairs_at_least_10": len(parent) >= CLAIM_MIN_PAIRS,
        "won_at_least_9_in_10": won >= CLAIM_WIN_SHARE * len(parent),
        "gain_at_least_pct": gap >= pct / 100.0 * pq[1],
        "gap_above_parent_iqr": gap > iqr,
    }
    return {
        "metric": metric,
        "claimed_gain_pct": pct,
        "parent_median": pq[1],
        "change_median": cq[1],
        "gain_pct": round(100.0 * gap / pq[1], 2),
        "change_better_pairs": f"{won}/{len(parent)}",
        "gap": round(gap, 4),
        "parent_iqr": round(iqr, 4),
        "rules": rules,
        "met": all(rules.values()),
    }


def tier1(tree: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    return {"summary": summary, "exit_code": proc.returncode,
            "wall_s": round(wall, 2)}


def command(args: argparse.Namespace) -> str:
    """The tool's command line as run, with the two trees named PARENT
    and CHANGE, so the report names no local paths."""
    seeds = args.seeds
    span = list(range(seeds[0], seeds[-1] + 1))
    words = ["python3 tools/bench_pairs.py --parent PARENT --change CHANGE",
             "--seeds " + (f"{seeds[0]}-{seeds[-1]}" if seeds == span
                           else ",".join(map(str, seeds)))]
    if args.claim:
        words.append(f"--claim {args.claim[0]}:{args.claim[1]:g}")
    if args.traced:
        words.append(f"--traced {args.traced}")
    if args.tier1:
        words.append("--tier1")
    return " ".join(words + [f"--out {args.out.name}"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs per side after the pairs")
    ap.add_argument("--tier1", action="store_true",
                    help="time the tier-1 suite on each side, parent first")
    ap.add_argument("--claim", type=claim_arg, default=None,
                    help="METRIC:PCT, an end-to-end metric the change "
                         "claims to improve by at least PCT percent")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better_dir = directions(trees["change"])

    per_pair: dict[str, dict[str, list[float]]] = {}
    runs = {side: {"failed": [], "attempted": [], "correct": []}
            for side in SIDES}
    order, machine = [], {}
    for i, seed in enumerate(args.seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(list(sides))
        for side in sides:
            result, machine = perfbench(trees[side], seed, 0)
            for key in ("failed", "attempted", "correct"):
                runs[side][key].append(result[key])
            for name, v in values(result).items():
                per_pair.setdefault(name, {s: [] for s in SIDES})[side].append(v)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                  f"{json.dumps(values(result))}", file=sys.stderr)

    end_to_end = {}
    for name, sides in per_pair.items():
        p, c = sides["parent"], sides["change"]
        direction = better_dir.get(name.split(".", 1)[-1], "lower")
        won = sum(better(direction, cv, pv) for cv, pv in zip(c, p))
        pq, cq = quartiles(p), quartiles(c)
        end_to_end[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "median_change_rel": round(cq[1] / pq[1] - 1.0, 4),
            "change_better_pairs": f"{won}/{len(p)}",
        }

    report = {
        "machine": machine,
        "commands": {
            "pair_run": "python3 perfbench/run.py --seed S --trace 0",
            "tool": command(args),
        },
        "pairs": {"seeds": args.seeds, "order": order, **runs,
                  "per_pair": per_pair},
        "end_to_end": end_to_end,
    }
    if args.claim:
        metric, pct = args.claim
        direction = better_dir.get(metric.split(".", 1)[-1], "lower")
        report["claim"] = claim_verdict(metric, pct, direction,
                                        per_pair[metric]["parent"],
                                        per_pair[metric]["change"])

    if args.traced:
        traced, layers = [], {}
        for i in range(args.traced):
            for side in (SIDES if i % 2 else SIDES[::-1]):
                seed = args.seeds[min(i, len(args.seeds) - 1)]
                result, _ = perfbench(trees[side], seed, 1)
                traced.append({"side": side, "seed": seed,
                               "correct": result["correct"],
                               "metrics": values(result)})
                for name, v in values(result).items():
                    layers.setdefault(name, {s: [] for s in SIDES})[side].append(v)
        report["traced_runs"] = traced
        report["per_layer_medians"] = {
            name: {s: round(statistics.median(v[s]), 4) for s in SIDES}
            for name, v in layers.items()
        }

    if args.tier1:
        report["tier1"] = {side: tier1(trees[side]) for side in SIDES}

    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
