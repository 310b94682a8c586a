"""The repository's benchmark: closed-loop workloads over the hurwitz CLI.

    python3 perfbench/run.py --workload {orbit,fiber,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  One client sends a query, waits for the
answer and sends the next.  A round answers the seed's whole query list in
fresh processes, so every round starts with cold caches, as a CLI user
does; rounds repeat until ``--seconds`` would be exceeded (at least one).
``orbit`` and ``fiber`` answer their list in one child that calls
``hurwitz.cli.main`` in-process; ``cli`` starts ``python -m hurwitz.cli``
once per command.  Every answer is checked (see check.py); a wrong answer,
a non-zero exit, a crash or a watchdog kill is a failed query, and any
failure makes the exit code 1.

With ``--trace 0`` the last output line carries the end-to-end metrics;
with ``--trace 1`` rounds alternate untraced and traced, and it carries the
per-layer metrics of the traced rounds (see README.md).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

# Watchdog on every child: address space and CPU time via setrlimit in the
# child only, wall time by a timer in this process.  A whole run must end
# within RUN_CAP_S.
CHILD_AS_BYTES = 2 << 30
RUN_CAP_S = 170.0
SETUP_LAUNCHES = 11
PY = sys.executable


def median_quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


class Child:
    """A child process under the watchdog; ``wait`` returns its rusage."""

    def __init__(self, argv, stdout_path, cap_s):
        cpu = max(1, math.ceil(cap_s))

        def limits():
            resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
            resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.killed = False
        with open(stdout_path, "wb") as out, open(OUT / "stderr.log", "ab") as err:
            self.t0 = time.perf_counter()
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                         preexec_fn=limits)
        self.timer = threading.Timer(cap_s, self._kill)
        self.timer.start()

    def _kill(self):
        self.killed = True
        self.proc.kill()

    def wait(self):
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
            self.timer.join()
        elapsed = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, self.proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(launches):
    """Seconds for a fresh interpreter to import hurwitz.cli, per launch."""
    times = []
    for _ in range(launches):
        child = Child([PY, "-c", "import hurwitz.cli"], OUT / "setup.out", 60)
        elapsed, code, _ = child.wait()
        if code != 0:
            raise RuntimeError("the package does not import; see .perfbench/stderr.log")
        times.append(elapsed)
    return times


def batch_round(queries, cap_s, trace_path=None, malloc=False):
    """Answer the list in one in-process child; queries it never finished fail."""
    qpath, rpath = OUT / "queries.json", OUT / "results.jsonl"
    qpath.write_text(json.dumps([q["argv"] for q in queries]))
    argv = [PY, str(HERE / "child.py"), "batch", str(qpath), str(rpath)]
    if trace_path:
        argv.append(str(trace_path))
    if malloc:
        argv.append("--tracemalloc")
    rpath.write_text("")
    child = Child(argv, OUT / "batch.out", cap_s)
    wall, code, rss = child.wait()
    results = [json.loads(line) for line in rpath.read_text().splitlines()]
    why = "killed by the watchdog" if child.killed else f"worker exited with {code}"
    results += [{"error": why} for _ in queries[len(results):]]
    return {"wall": wall, "rss": rss, "results": results,
            "traces": [trace_path] if trace_path and code == 0 else []}


def cli_round(queries, cap_s, trace_dir=None):
    """One fresh ``python -m hurwitz.cli`` per query; the round's peak RSS is
    the largest child's."""
    t0 = time.perf_counter()
    results, traces, rss = [], [], 0.0
    for k, q in enumerate(queries):
        left = cap_s - (time.perf_counter() - t0)
        if left <= 0:
            results.append({"error": "killed by the watchdog"})
            continue
        if trace_dir:
            tpath = trace_dir / f"launch-{k}.json"
            argv = [PY, str(HERE / "child.py"), "launch", str(tpath), "--"] + q["argv"]
        else:
            argv = [PY, "-m", "hurwitz.cli"] + q["argv"]
        child = Child(argv, OUT / "launch.out", left)
        elapsed, code, peak = child.wait()
        rss = max(rss, peak)
        result = {"code": code, "elapsed": elapsed,
                  "payload": (OUT / "launch.out").read_text()}
        if child.killed:
            result["error"] = "killed by the watchdog"
        elif trace_dir:
            traces.append(tpath)
        results.append(result)
    return {"wall": time.perf_counter() - t0, "rss": rss, "results": results, "traces": traces}


def run_round(workload, queries, cap_s, trace_dir=None):
    """One round; with ``trace_dir`` (a fresh directory) the round is traced
    and the records of its children are written there."""
    if trace_dir:
        trace_dir.mkdir(parents=True)
    if workload == "cli":
        shutil.rmtree(OUT / "cache", ignore_errors=True)
        return cli_round(queries, cap_s, trace_dir)
    return batch_round(queries, cap_s, trace_dir / "batch.json" if trace_dir else None)


# -- metrics ---------------------------------------------------------------------

def work_done(workload, q, body):
    """Verified work of one checked answer: orbit states closed (orbit),
    fiber words partitioned (fiber), one command (cli)."""
    if workload == "cli":
        return 1
    if q["kind"] == "orbit":
        return body["orbit_size"]
    if q["kind"] in ("components", "stable_length"):
        return sum(r["fiber_size"] for r in body["rows"])
    if q["kind"] == "fiber_count":
        return body["fiber_size"]
    return 0


def end_to_end(workload, rounds, queries, setup):
    """Per metric: (median, q1, q3, samples, unit, meaning)."""
    walls = [r["wall"] for r in rounds]
    rss = [r["rss"] for r in rounds]
    rates, probe = [], []
    for r in rounds:
        work = spent = 0.0
        for q, res, ok in zip(queries, r["results"], r["ok"]):
            if not ok:
                continue
            body = json.loads(res["payload"])
            w = work_done(workload, q, body)
            if w:
                work += w
                spent += res["elapsed"]
            if (workload, q["kind"]) in (("orbit", "equiv"), ("fiber", "fiber_count")) or \
                    q.get("cache") == "hit":
                probe.append(res["elapsed"])
        if spent:
            rates.append(work / spent)
    meaning = {
        "orbit": ("states_per_s: verified orbit states closed per second of orbit queries",
                  "equiv latency"),
        "fiber": ("fiber_words_per_s: verified fiber words partitioned per second",
                  "fiber-count latency"),
        "cli": ("commands_per_s: CLI processes answered per second",
                "cache_hit latency: a CLI process served from the cache"),
    }[workload]
    out = {}
    for name, values, unit, what in (
            ("wall_s", walls, "s", "time to answer the whole query list"),
            ("setup_s", setup, "s", "fresh interpreter importing hurwitz.cli"),
            ("peak_rss_mb", rss, "MB", "peak RSS of the worker (cli: largest child)"),
            ("work_per_s", rates, "1/s", meaning[0])):
        if values:
            out[name] = (*median_quartiles(values), len(values), unit, what)
    # Latencies of same-cost queries are bimodal on a shared machine (the
    # host's load comes and goes), which makes their median jump; the mean
    # moves smoothly with the share of slow samples.
    if probe:
        med, q1, q3 = median_quartiles(probe)
        out["query_mean_s"] = (statistics.fmean(probe), q1, q3, len(probe), "s",
                               f"mean {meaning[1]}; median {med:.4f}")
    return out


def per_layer(traced_rounds, untraced_walls, malloc):
    """Per-layer numbers of the traced rounds, averaged per round."""
    n = len(traced_rounds)
    layer = dict.fromkeys(LAYERS, 0.0)
    calls, counters = {}, {}
    fiber_in_count = 0.0
    for r in traced_rounds:
        for path in r["traces"]:
            s = json.loads(Path(path).read_text())["summary"]
            for k, v in s["layer_self"].items():
                layer[k] += v / n
            for k, (c, t) in s["calls"].items():
                old = calls.get(k, (0.0, 0.0))
                calls[k] = (old[0] + c / n, old[1] + t / n)
            for k, v in s["counters"].items():
                counters[k] = counters.get(k, 0) + v / n
            fiber_in_count += s["fiber_in_count_s"] / n
    wall = statistics.median(r["wall"] for r in traced_rounds)

    def c(name):
        return calls.get(name, (0, 0.0))[0]

    def t(name):
        return calls.get(name, (0, 0.0))[1]

    def rate(num, den):
        return num / den if den else 0.0

    ops = sum(c(f"Perm.{m}") for m in ("__mul__", "conjugate", "inverse", "cycle_type"))
    moves = c("move_right_state") + c("move_left_state")
    uf_s = t("count_orbits_in_fiber") - fiber_in_count
    m = {
        "perms.mul.calls": (c("Perm.__mul__"), "count"),
        "perms.conjugate.calls": (c("Perm.conjugate"), "count"),
        "perms.inverse.calls": (c("Perm.inverse"), "count"),
        "perms.cycle_type.calls": (c("Perm.cycle_type"), "count"),
        "perms.closure.calls": (c("closure"), "count"),
        "perms.self_s": (layer["perms"], "s"),
        "perms.ops_per_s": (rate(ops, layer["perms"]), "1/s"),
        "words.moves": (moves, "count"),
        "words.conjugate_state.calls": (c("conjugate_state"), "count"),
        "words.self_s": (layer["words"], "s"),
        "words.moves_per_s": (rate(moves, t("move_right_state") + t("move_left_state")), "1/s"),
        "orbits.self_s": (layer["orbits"], "s"),
        "orbits.orbit.s": (t("enumerate_orbit"), "s"),
        "orbits.orbit.states": (counters.get("orbit_states", 0), "count"),
        "orbits.bfs_states_per_s": (rate(counters.get("orbit_states", 0), t("enumerate_orbit")), "1/s"),
        "orbits.equiv.s": (t("are_equivalent"), "s"),
        "orbits.equiv.states": (counters.get("equiv_states", 0), "count"),
        "orbits.fiber.s": (t("enumerate_fiber"), "s"),
        "orbits.fiber.words": (counters.get("fiber_words", 0), "count"),
        "orbits.fiber_words_per_s": (rate(counters.get("fiber_words", 0), t("enumerate_fiber")), "1/s"),
        "orbits.uf.s": (uf_s, "s"),
        "orbits.uf.edges": (counters.get("uf_edges", 0), "count"),
        "orbits.uf_edges_per_s": (rate(counters.get("uf_edges", 0), uf_s), "1/s"),
        "orbits.limit_hits": (counters.get("limit_hits", 0), "count"),
        "class_metrics.self_s": (layer["class_metrics"], "s"),
        "class_metrics.metrics.s": (t("compute_class_metrics"), "s"),
        "class_metrics.min_word.s": (t("min_factors_to_transposition")
                                     + t("min_factors_to_transposition_fixing"), "s"),
        "class_metrics.full_group.s": (t("generates_full_group"), "s"),
        "constructions.self_s": (layer["constructions"], "s"),
        "constructions.check.s": (sum(t(k) for k in calls if k.startswith("check_")), "s"),
        "constructions.check.rows": (counters.get("check_rows", 0), "count"),
        "constructions.certificate_moves": (counters.get("certificate_moves", 0), "count"),
        "constructions.tail.s": (t("rewrite_with_stable_tail"), "s"),
        "reports.self_s": (layer["reports"], "s"),
        "reports.components.s": (t("count_components"), "s"),
        "reports.theorem.s": (t("theorem_report"), "s"),
        "reports.emit.s": (t("emit"), "s"),
        "reports.emit.bytes": (counters.get("emit_bytes", 0), "B"),
        "reports.cache_get.s": (t("cache_get"), "s"),
        "reports.cache_hits": (counters.get("cache_hits", 0), "count"),
        "reports.cache_put.s": (t("cache_put"), "s"),
        "cli.main.s": (t("main"), "s"),
        "cli.self_s": (layer["cli"], "s"),
        "other.s": (wall - sum(layer.values()), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - statistics.median(untraced_walls), "s"),
    }
    if malloc is not None:
        m["orbits.bfs_bytes_per_state"] = (malloc, "B/state")
    return m


def tracemalloc_probe(queries, cap_s):
    """Allocation peak per state of the first t4x7 orbit (c4x5 under
    --smoke), in its own child."""
    q = next(q for q in queries if q.get("template") in ("t4x7", "c4x5"))
    r = batch_round([q], cap_s, malloc=True)
    res = r["results"][0]
    if res.get("error") or res.get("code") != 0:
        return None
    return res["malloc_peak"] / json.loads(res["payload"])["orbit_size"]


def run_workload(workload, seed, seconds, trace, expected, say, smoke=False):
    t_start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    # One untimed launch writes the bytecode cache, as an installed package
    # has it; the timed launches are split around the rounds so that they
    # sample the whole run.
    measure_setup(1)
    setup = measure_setup(SETUP_LAUNCHES // 2)
    queries = workloads.queries(workload, seed, expected, ".perfbench/cache", smoke)
    shutil.rmtree(OUT / "trace", ignore_errors=True)
    rounds = []
    t_measure = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        cap = RUN_CAP_S - (time.perf_counter() - t_start)
        r = run_round(workload, queries, cap,
                      OUT / "trace" / f"round-{len(rounds)}" if traced else None)
        r["traced"] = traced
        errors = check.check_round(workload, queries, r["results"], seed, expected)
        r["ok"] = [not e for e in errors]
        for q, e in zip(queries, errors):
            for msg in e:
                say(f"FAIL {workload} round {len(rounds)} {q['id']}: {msg}")
        rounds.append(r)
        elapsed = time.perf_counter() - t_measure
        last = statistics.median(x["wall"] for x in rounds)
        need_traced = trace and not any(x["traced"] for x in rounds)
        if any(not ok for ok in r["ok"]) and not need_traced:
            break
        if not need_traced and elapsed + last > seconds:
            break
        if time.perf_counter() - t_start + 1.2 * r["wall"] > RUN_CAP_S:
            break
    setup += measure_setup(SETUP_LAUNCHES - len(setup))
    attempted = sum(len(r["results"]) for r in rounds)
    failed = sum(r["ok"].count(False) for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    e2e = end_to_end(workload, plain, queries, setup)
    say(f"{workload}: seed {seed}, {len(plain)} untraced round(s) of {len(queries)} queries, "
        f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    for name, (med, q1, q3, n, unit, what) in e2e.items():
        say(f"  {name:<12} {med:12.4f} {unit:<4} q1 {q1:.4f} q3 {q3:.4f} n={n}  ({what})")
    say(f"  error_rate   {failed / attempted:12.4f} ratio ({failed} failed of {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace and not any(r["traced"] for r in rounds):
        say("  no traced round fitted in the run")
        result.update(correct=False, metrics={})
    elif trace:
        traced = [r for r in rounds if r["traced"]]
        malloc = None
        if workload == "orbit":
            malloc = tracemalloc_probe(queries, RUN_CAP_S - (time.perf_counter() - t_start))
        layers = per_layer(traced, [r["wall"] for r in plain], malloc)
        say(f"  per-layer, mean of {len(traced)} traced round(s):")
        for name, (value, unit) in layers.items():
            say(f"    {name:<34} {value:16.4f} {unit}")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        result["metrics"] = {k: {"value": v[0], "unit": v[4]} for k, v in e2e.items()}
    return result


def load_bench_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="only the cheapest query of each kind (for the smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hurwitz" / "cli.py").is_file():
        print("perfbench: src/hurwitz is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    e2e_names, layer_names = load_bench_metrics()

    def say(line):
        print(line, flush=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace, expected, say, args.smoke)
               for w in names]
    shutil.rmtree(OUT / "cache", ignore_errors=True)
    bad = [r for r in results if not r["correct"]]
    if args.workload == "all":
        return 1 if bad else 0
    result = results[0]
    wanted = layer_names if args.trace else e2e_names
    missing = [k for k in wanted if k not in result["metrics"]]
    if missing:
        say(f"perfbench: metrics not measured: {missing}")
        result["correct"] = False
    result["metrics"] = {k: result["metrics"][k] for k in wanted if k in result["metrics"]}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
