"""Run one crystalminor benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-symbolic --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's own ``src`` directory.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no tracing installed; with ``--trace 1`` they are its
per-layer metrics.  A fuller record (environment, every per-item time,
failures, trace spans) is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_RUNS = 15
TAIL_MIN_BEYOND = 10

# Runs in a fresh interpreter: the import of the whole package and the
# argument parser, which every command-line call pays before any work; then
# the reference loop, to calibrate that time.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import crystalminor.cli
crystalminor.cli.build_parser()
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibrate
ref = [calibrate.time_chunk() for _ in range(5)]
print(seconds, calibrate.slowness(ref), crystalminor.cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing source, bad arguments)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def import_program() -> None:
    """Put the checkout's src first on sys.path and check what gets imported."""
    if not (SRC / "crystalminor" / "__init__.py").is_file():
        raise BenchError(f"no crystalminor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crystalminor

    if Path(crystalminor.__file__).resolve().parent != SRC / "crystalminor":
        raise BenchError(f"imported crystalminor from {crystalminor.__file__}, not {SRC}")


def measure_setup(runs: int = SETUP_RUNS) -> list[tuple[float, float]]:
    """(seconds, slowness) of importing crystalminor.cli and building its
    parser, each in a fresh interpreter; one unrecorded run first writes
    the bytecode cache."""
    probes = []
    for n in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        seconds, slowness, where = done.stdout.split()
        if Path(where).resolve().parent != SRC / "crystalminor":
            raise BenchError(f"setup probe imported {where}")
        if n:
            probes.append((float(seconds), float(slowness)))
    return probes


def run_items(workload, seconds: float, limit: int | None = None, tracer=None) -> dict:
    """Run the workload's items until `seconds` pass (at least one item) or
    `limit` items ran.

    Only the item's program calls are inside the per-item time; the checks
    count toward the run's wall and CPU time.
    """
    item_ns: list[int] = []
    ref_ns: list[int] = []
    failures: list[str] = []
    items = workload.items()
    clock = time.perf_counter
    start = clock()
    cpu_start = time.process_time()
    deadline = start + seconds
    last_ref = ref_cpu = 0.0
    while (limit is None or len(item_ns) < limit) and (not item_ns or clock() < deadline):
        work, check = next(items)
        n = len(item_ns)
        if tracer:
            tracer.begin_item(n)
        t0 = time.perf_counter_ns()
        try:
            result = work()
        except Exception as exc:  # an item that raises is a failed item
            item_ns.append(time.perf_counter_ns() - t0)
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            failures.append(f"item {n}: {type(exc).__name__}: {exc} "
                            f"(at {Path(frame.filename).name}:{frame.lineno})")
        else:
            item_ns.append(time.perf_counter_ns() - t0)
            if tracer:
                tracer.pause()
            try:
                problem = check(result)
            except Exception as exc:  # a check that cannot complete fails
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"item {n}: {problem}")
        if tracer:
            tracer.end_item()
        if clock() - last_ref >= calibrate.EVERY_S:
            cpu = time.process_time()
            ref_ns.append(calibrate.time_chunk())
            ref_cpu += time.process_time() - cpu
            last_ref = clock()
    # the reference loop's own time is not the workload's
    return {
        "wall_s": clock() - start - sum(ref_ns) / 1e9,
        "cpu_s": time.process_time() - cpu_start - ref_cpu,
        "item_ns": item_ns,
        "ref_ns": ref_ns,
        "failures": failures,
    }


def tail(values: list[float], percentile: float) -> float:
    """The given percentile, by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload, run: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, with times calibrated by the reference loop
    (see calibrate.py); the record keeps the raw values too."""
    items = len(run["item_ns"])
    ms = [ns / 1e6 for ns in run["item_ns"]]
    p = workload.tail_percentile
    raw = {
        "setup_s": statistics.median(seconds for seconds, _ in setup),
        "items_per_s": items / run["wall_s"],
        "item_p50_ms": statistics.median(ms),
        "item_tail_ms": tail(ms, p),
        "cpu_s_per_item": run["cpu_s"] / items,
    }
    slow = calibrate.slowness(run["ref_ns"])
    values = {
        "setup_s": statistics.median(seconds / s for seconds, s in setup),
        "items_per_s": raw["items_per_s"] * slow,
        "item_p50_ms": raw["item_p50_ms"] / slow,
        "item_tail_ms": raw["item_tail_ms"] / slow,
        "cpu_s_per_item": raw["cpu_s_per_item"] / slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in ms if x > raw["item_tail_ms"])
    if beyond < TAIL_MIN_BEYOND:
        print(f"warning: only {beyond} of {items} items beyond p{p}; item_tail_ms "
              f"is not a tail at this run length", file=sys.stderr)
    info = {"slowness": slow, "raw": raw,
            "tail": {"percentile": p, "items": items, "items_beyond": beyond,
                     "enough_beyond": beyond >= TAIL_MIN_BEYOND}}
    return values, info


def traced(workload_cls, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced for half the time, then the same items again with tracing.

    Returns (per-layer values, run of the traced half, trace record).
    """
    import workloads
    from tracer import Tracer

    plain = run_items(workload_cls(seed), seconds / 2)
    count = len(plain["item_ns"])
    workloads.forget_minors()
    tracer = Tracer()
    tracer.install()
    try:
        run = run_items(workload_cls(seed), float("inf"), limit=count, tracer=tracer)
    finally:
        tracer.uninstall()
    run["failures"] = plain["failures"] + run["failures"]
    run["attempted"] = count + len(run["item_ns"])
    values = tracer.layer_metrics()
    values["trace.overhead_share"] = run["wall_s"] / plain["wall_s"] - 1
    record = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": run["wall_s"],
        "self_time_sum_s": tracer.self_total_s(),
        "missing_targets": tracer.missing,
        "layers": {name: {"calls": tracer.calls[name], "self_s": tracer.self_ns[name] / 1e9}
                   for name in sorted(tracer.calls)},
        "counts": dict(sorted(tracer.counts.items())),
        "spans": tracer.span_records(),
    }
    return values, run, record


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def select(spec: dict, key: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists under `key`, with their units."""
    out = {}
    for metric in spec[key]:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="where to write the full record")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    record: dict = {"workload": args.workload, "seconds": args.seconds,
                    "trace": args.trace, "env": environment(args.seed)}
    if args.trace:
        values, run, record["trace_record"] = traced(cls, args.seed, args.seconds)
        metrics = select(spec, "per_layer", values)
        attempted = run["attempted"]
    else:
        setup = measure_setup()
        workload = cls(args.seed)
        run = run_items(workload, args.seconds)
        values, calibration = end_to_end(workload, run, setup)
        record.update(calibration)
        metrics = select(spec, "end_to_end", values)
        attempted = len(run["item_ns"])
        record["samples"] = {"setup_s_slowness": setup, "item_ns": run["item_ns"],
                             "reference_ns": run["ref_ns"]}
        record["workload_summary"] = getattr(workload, "summary", dict)()
        record["cpu_s"] = run["cpu_s"]
    failed = len(run["failures"])
    correct = attempted > 0 and failed == 0
    record.update({
        "wall_s": run["wall_s"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": run["failures"][:50],
        "all_metrics": values,
        "metrics": metrics,
    })
    path = args.record or RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    for line in run["failures"][:10]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
