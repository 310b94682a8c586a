"""Smoke test of the benchmark on its smallest size and a fixed seed.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit (and
every per-layer name in the printed table), and that the checker rejects
wrong answers: a corrupted payload, and a program whose output disagrees
with the frozen values, which also makes the run report failure.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

PRINTED_LAYER_METRICS = [
    "perms.mul.calls", "perms.conjugate.calls", "perms.inverse.calls", "perms.cycle_type.calls",
    "perms.closure.calls", "perms.self_s", "perms.ops_per_s", "words.moves",
    "words.conjugate_state.calls", "words.self_s", "words.moves_per_s", "orbits.orbit.s",
    "orbits.orbit.states", "orbits.bfs_states_per_s", "orbits.equiv.s", "orbits.equiv.states",
    "orbits.fiber.s", "orbits.fiber.words", "orbits.fiber_words_per_s", "orbits.uf.s",
    "orbits.uf.edges", "orbits.uf_edges_per_s", "orbits.limit_hits", "class_metrics.metrics.s",
    "class_metrics.min_word.s", "class_metrics.full_group.s", "constructions.check.s",
    "constructions.check.rows", "constructions.certificate_moves", "constructions.tail.s",
    "reports.components.s", "reports.theorem.s", "reports.emit.s", "reports.emit.bytes",
    "reports.cache_get.s", "reports.cache_hits", "reports.cache_put.s", "cli.main.s",
    "cli.self_s", "other.s", "trace.overhead_s",
]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload):
    lines, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.strip().startswith("error_rate") for line in lines)

    lines, result = bench(workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed = {line.split()[0]: float(line.split()[1]) for line in lines
               if line.startswith("    ")}
    assert set(PRINTED_LAYER_METRICS) <= set(printed)
    if workload == "orbit":
        assert printed["orbits.bfs_bytes_per_state"] > 0
    self_total = sum(printed[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total + printed["other.s"] == pytest.approx(printed["trace.wall_s"], abs=1e-3)


def orbit_round():
    run.OUT.mkdir(exist_ok=True)
    queries = workloads.queries("orbit", 0, EXPECTED, smoke=True)
    r = run.batch_round(queries, 120)
    return queries, r["results"]


def test_checker_rejects_corrupted_payloads():
    queries, results = orbit_round()
    assert check.check_round("orbit", queries, results, 0, EXPECTED) == [[]] * len(queries)
    assert check.check_round("orbit", queries, results, 1, EXPECTED) == [[]] * len(queries)

    first, twin = [i for i, q in enumerate(queries) if q.get("pair") == "c4x5.0"]
    for seed in (0, 1):
        bad = copy.deepcopy(results)
        body = json.loads(bad[first]["payload"])
        body["orbit_size"] += 1
        bad[first]["payload"] = json.dumps(body, indent=2) + "\n"
        errors = check.check_round("orbit", queries, bad, seed, EXPECTED)
        assert any("orbit_size" in e for e in errors[first])
        assert any("twin" in e for e in errors[twin])

    equiv = next(i for i, q in enumerate(queries) if q["kind"] == "equiv")
    bad = copy.deepcopy(results)
    body = json.loads(bad[equiv]["payload"])
    body["certificate"] = body["certificate"][:-1]
    bad[equiv]["payload"] = json.dumps(body, indent=2) + "\n"
    assert check.check_round("orbit", queries, bad, 1, EXPECTED)[equiv]


def test_wrong_program_output_fails_the_run():
    tampered = copy.deepcopy(EXPECTED)
    tampered["orbit_sizes"]["c3x6"] += 1
    result = run.run_workload("orbit", 1, 1, 0, tampered, lambda line: None, smoke=True)
    assert not result["correct"] and result["failed"] >= 2
