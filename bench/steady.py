"""Repeat benchmark runs and judge their steadiness against BENCHMARK.json.

Print every end-to-end metric of every workload, by name and unit, from one
run each:

    python3 bench/steady.py --seeds 1

Ten seeds per workload, with median, quartiles and spread (the distance
between the first and third quartile as a share of the median), saved as a
set of runs:

    python3 bench/steady.py --seeds 1-10 --out bench/results/set-a.json

Compare two sets of runs of the same code (or a parent and a change):

    python3 bench/steady.py --compare bench/results/set-a.json bench/results/set-b.json

Every run measures for run_seconds of BENCHMARK.json, untraced.  A set
passes when every run is correct, every run's tail percentile has at least
ten items beyond it, and every end-to-end metric's spread, setup_s included,
is within its bound.  A comparison passes when, in addition, no metric's
second median is worse than the first by more than its bound and runs of the
same seed in both sets printed the same command-line output digest.  The exit
status is 0 on a pass and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile spread as a share of the median."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in a fresh interpreter; its result line and record."""
    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        record_path = Path(tmp) / "record.json"
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--record", str(record_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{workload} seed {seed}: no result\n{done.stderr}")
        record = json.loads(record_path.read_text()) if record_path.exists() else None
    return {"workload": workload, "seed": seed, "exit": done.returncode,
            "result": json.loads(lines[-1]), "record": record}


def summarize(runs: list[dict], spec: dict) -> dict:
    out: dict = {}
    for wl in spec["workloads"]:
        mine = [r for r in runs if r["workload"] == wl["name"]]
        if not mine:
            continue
        out[wl["name"]] = {
            m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in mine])
            for m in spec["end_to_end"]
        }
    return out


def check_set(summary: dict, spec: dict, runs: list[dict]) -> list[str]:
    problems = [f"{r['workload']} seed {r['seed']}: correct is false"
                for r in runs if not r["result"]["correct"]]
    for r in runs:
        tail = (r["record"] or {}).get("tail")
        if tail and not tail["enough_beyond"]:
            problems.append(f"{r['workload']} seed {r['seed']}: only {tail['items_beyond']} "
                            f"items beyond p{tail['percentile']}")
    for metric in spec["end_to_end"]:
        for workload, metrics in summary.items():
            s = metrics[metric["name"]]["spread"]
            if s > metric["bound"]:
                problems.append(f"{workload} {metric['name']}: spread {s:.3f} > bound {metric['bound']}")
    return problems


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    if not first:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def compare(a: dict, b: dict, spec: dict) -> list[str]:
    if a["seconds"] != b["seconds"]:
        return [f"sets measured {a['seconds']} s and {b['seconds']} s per run"]
    problems = check_set(a["summary"], spec, a["runs"]) + check_set(b["summary"], spec, b["runs"])
    for metric in spec["end_to_end"]:
        for workload in a["summary"]:
            if workload not in b["summary"]:
                continue
            m1 = a["summary"][workload][metric["name"]]["median"]
            m2 = b["summary"][workload][metric["name"]]["median"]
            w = worse_share(m1, m2, metric["better"])
            if w > metric["bound"]:
                problems.append(f"{workload} {metric['name']}: second median worse by "
                                f"{w:.3f} > bound {metric['bound']}")
    digests = {}
    for r in a["runs"]:
        summary = (r["record"] or {}).get("workload_summary", {})
        if "stdout_sha256" in summary:
            digests[(r["workload"], r["seed"])] = summary
    for r in b["runs"]:
        old = digests.get((r["workload"], r["seed"]))
        new = (r["record"] or {}).get("workload_summary", {})
        if old and new and old["digest_items"] == new["digest_items"] \
                and old["stdout_sha256"] != new["stdout_sha256"]:
            problems.append(f"{r['workload']} seed {r['seed']}: output digest differs")
    return problems


def print_summary(summary: dict, spec: dict) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<16} {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}  unit")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            m = bounds[name]
            bound = m["bound"]
            flag = "  over bound" if s["spread"] > bound else (
                "  over bound/3" if s["spread"] > bound / 3 else "")
            print(f"{workload:<16} {name:<40} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>7.3f} {bound:>6}  {m['unit']}{flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma separated; default: all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, help="save the set of runs here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        problems = compare(a, b, spec)
    else:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        runs = []
        for name in names:
            for seed in parse_seeds(args.seeds):
                run = run_once(name, seed, seconds)
                print(f"# {name} seed {seed}: exit {run['exit']} "
                      f"attempted {run['result']['attempted']} failed {run['result']['failed']}",
                      flush=True)
                runs.append(run)
        summary = summarize(runs, spec)
        print_summary(summary, spec)
        problems = check_set(summary, spec, runs)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}))
    for p in problems:
        print(f"PROBLEM {p}")
    print("PASS" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
