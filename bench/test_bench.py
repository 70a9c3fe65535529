"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import steady
import workloads
from crystalminor import bruhat, cli, crystal, laurent, paths

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep-symbolic": functools.partial(workloads.SweepSymbolic, max_r=4),
    "sweep-numeric": functools.partial(workloads.SweepNumeric, max_r=2),
    "crystal-bfs": functools.partial(workloads.CrystalBfs, ranks=range(3, 5), sizes=(10, 60)),
    "cli-queries": functools.partial(workloads.CliQueries, max_r=3),
}


def tiny_run(name: str, seed: int = 7, items: int = 40) -> dict:
    return run.run_items(TINY[name](seed), float("inf"), limit=items)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(name.match(n) for n in all_names)
    assert all(unit.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    # every run, with about five seconds of start-up, set-up and checking
    assert (4 + 22 * len(names)) * (SPEC["run_seconds"] + 5) < 3420


@pytest.mark.parametrize("name", list(TINY))
def test_workload_checks_every_item(name):
    result = tiny_run(name)
    assert result["failures"] == []
    assert len(result["item_ns"]) == 40


def test_same_seed_same_inputs():
    first = workloads.CliQueries(11, max_r=3)
    second = workloads.CliQueries(11, max_r=3)
    run.run_items(first, float("inf"), limit=30)
    run.run_items(second, float("inf"), limit=30)
    assert first.summary() == second.summary()
    other = workloads.CliQueries(12, max_r=3)
    run.run_items(other, float("inf"), limit=30)
    assert other.summary()["stdout_sha256"] != first.summary()["stdout_sha256"]


def test_cli_output_digest_is_pinned():
    workload = workloads.CliQueries(1, max_r=3)
    assert run.run_items(workload, float("inf"), limit=60)["failures"] == []
    assert workload.summary()["stdout_sha256"] == (
        "77b1ddd14ce8b838006b50f497217bac14a6f9912f01443017ae574b55c0b70e"
    )


def test_wrong_minor_is_an_error(monkeypatch):
    real = paths.path_sum
    monkeypatch.setattr(paths, "path_sum", lambda spec, r: real(spec, r) + laurent.LaurentPoly.one())
    result = tiny_run("sweep-symbolic", items=10)
    assert len(result["failures"]) == 10
    assert "path sum != minor" in result["failures"][0]


def test_wrong_cli_reply_is_an_error(monkeypatch):
    monkeypatch.setattr(cli, "delta_L", lambda ms: laurent.LaurentPoly.one())
    result = tiny_run("cli-queries", items=80)
    assert any("minor differs from path sum" in f for f in result["failures"])


def test_raising_item_is_an_error(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(crystal, "component", broken)
    result = tiny_run("crystal-bfs", items=5)
    assert len(result["failures"]) == 5 and "deliberate" in result["failures"][0]


def test_traced_run_reports_layers_and_restores_the_program():
    before = bruhat.delta_L, laurent.LaurentPoly.__mul__, cli.delta_L
    values, traced_run, record = run.traced(TINY["sweep-symbolic"], 3, 1.0)
    assert (bruhat.delta_L, laurent.LaurentPoly.__mul__, cli.delta_L) == before
    assert traced_run["failures"] == [] and record["missing_targets"] == []
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert values["laurent.poly_mul.zero_operand_share"] > 0.5
    assert values["bruhat.delta_L.miss_share"] == 1.0
    # self times cover the traced items and exceed the untraced wall time
    # by no more than the overhead share
    assert 0.9 * record["traced_wall_s"] <= record["self_time_sum_s"] <= record["traced_wall_s"]
    assert record["self_time_sum_s"] / record["untraced_wall_s"] - 1 <= values["trace.overhead_share"]
    spans = record["spans"]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)


def run_py(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name,trace", [(n, 0) for n in TINY] + [("sweep-numeric", 1)])
def test_run_prints_the_metrics_line(name, trace, tmp_path):
    done = run_py("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                  "--record", str(tmp_path / "record.json"), cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    record = json.loads((tmp_path / "record.json").read_text())
    assert {"python", "platform", "cpu_model", "nproc", "git_commit", "seed"} <= set(record["env"])
    assert record["env"]["seed"] == 5
    if not trace:
        assert len(record["samples"]["item_ns"]) == line["attempted"]
        raw, slow = record["raw"], record["slowness"]
        assert slow > 0 and record["samples"]["reference_ns"]
        assert line["metrics"]["item_p50_ms"]["value"] == pytest.approx(raw["item_p50_ms"] / slow)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_py("--workload", "cli-queries", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_nearest_rank():
    assert run.tail(list(range(1, 101)), 95) == 95
    assert run.tail([3.0], 99) == 3.0


def test_steadiness_summary_and_comparison():
    def runs(values):
        return [{"workload": "cli-queries", "seed": s, "record": None,
                 "result": {"correct": True, "metrics": {
                     m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["end_to_end"]}}}
                for s, v in enumerate(values, 1)]

    spec = {**SPEC, "workloads": [{"name": "cli-queries", "why": ""}]}
    first = runs([10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1])
    summary = steady.summarize(first, spec)
    s = summary["cli-queries"]["items_per_s"]
    assert s["median"] == 10.0 and s["spread"] < 0.05
    a = {"seconds": 25, "runs": first, "summary": summary}
    assert steady.compare(a, a, spec) == []
    slower = runs([v * 1.5 for v in [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]])
    b = {"seconds": 25, "runs": slower, "summary": steady.summarize(slower, spec)}
    problems = steady.compare(a, b, spec)
    assert any("item_p50_ms" in p for p in problems)  # lower is better: worse
    assert not any("items_per_s" in p for p in problems)  # higher is better: fine
    assert steady.compare(a, {**a, "seconds": 5}, spec) == ["sets measured 25 s and 5 s per run"]
    wide = runs([10.0] * 10)
    for r, v in zip(wide, [0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14]):
        r["result"]["metrics"]["setup_s"]["value"] = v
    assert any("setup_s: spread" in p
               for p in steady.check_set(steady.summarize(wide, spec), spec, wide))
