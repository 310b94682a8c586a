"""Regenerate expected.json, the frozen values the checker compares against.

    PYTHONPATH=src python3 perfbench/freeze.py

Run from the root of a checkout whose outputs are trusted (it was run at
the commit that introduced the benchmark).  Every frozen value is
cross-checked here before it is written: template orbit sizes must equal a
single-orbit full-group fiber, unconstrained fiber sizes must equal the
benchmark's own prefix-product count, equivalence certificates must replay
with the benchmark's own move code, and every default-seed answer must
pass the checker.  Takes a few minutes.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hurwitz import (  # noqa: E402
    ComponentQuery,
    Factorization,
    FiberSpec,
    Perm,
    SearchLimits,
    TypeVector,
    are_equivalent,
    count_components,
    count_orbits_in_fiber,
    stable_length_scan,
)
from hurwitz.cli import main as cli_main  # noqa: E402
from hurwitz.reports import _all_type_vectors, scan_rows_to_dicts  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from algebra import (  # noqa: E402
    class_elements,
    cycle_types,
    fiber_size,
    format_perm,
    generates_symmetric_group,
    parse_type,
    random_walk,
    replay,
)

LIMITS = SearchLimits()

# (degree, word length, pairs, accepted range of states explored).  One
# narrow band for both degrees gives queries of near-equal cost (~0.3 s at
# the seed commit), so the median latency of the set is steady.
EQUIV_POOL = [(4, 10, 6, (15_000, 19_000)), (5, 8, 6, (15_000, 19_000))]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {argv}")
    return buf.getvalue()


def as_word(d, word):
    return Factorization(d, tuple(Perm(f) for f in word))


def orbit_sizes():
    rng = random.Random("freeze-orbits")
    out = {}
    for name, d, type_text, product_ct, conj_q, _count in workloads.ORBIT_TEMPLATES:
        word = workloads.template_word(rng, d, type_text, product_ct)
        target = Perm(class_elements(d, product_ct)[0])
        spec = FiberSpec(d, TypeVector.parse(type_text, d), target, "full_group")
        fiber = count_orbits_in_fiber(spec, LIMITS)
        if fiber.orbit_count != 1:
            raise RuntimeError(f"{name}: full-group fiber has {fiber.orbit_count} orbits")
        size = fiber.fiber_size * (len(class_elements(d, product_ct)) if conj_q else 1)
        argv = ["orbit", "--d", str(d), "--word", " ".join(format_perm(f) for f in word)]
        body = json.loads(run_cli(argv + (["--conj"] if conj_q else [])))
        if body["orbit_size"] != size:
            raise RuntimeError(f"{name}: orbit {body['orbit_size']} != fiber count {size}")
        out[name] = size
        print(f"orbit template {name}: {size} states", flush=True)
    return out


def equiv_pool():
    rng = random.Random("freeze-equiv")
    pool = []
    for d, n, count, (lo, hi) in EQUIV_POOL:
        trans = class_elements(d, (2,) + (1,) * (d - 2))
        found = 0
        while found < count:
            w1 = tuple(rng.choice(trans) for _ in range(n))
            if not generates_symmetric_group(w1, d):
                continue
            w2 = random_walk(rng, w1, rng.randint(200, 500))
            eq = are_equivalent(as_word(d, w1), as_word(d, w2), SearchLimits(max_states=hi))
            if eq.status != "yes" or not lo <= eq.states_explored <= hi:
                continue
            if replay(w1, [str(m) for m in eq.certificate]) != w2:
                raise RuntimeError("certificate does not replay")
            pool.append({"d": d, "word1": [format_perm(f) for f in w1],
                         "word2": [format_perm(f) for f in w2],
                         "states_explored": eq.states_explored})
            found += 1
            print(f"equiv pair d={d} n={n}: {eq.states_explored} states", flush=True)
    return pool


def components_table():
    out = {}
    for tv in _all_type_vectors(4, 5):
        body = count_components(ComponentQuery(4, 5, tv, False, True, True), LIMITS)
        row = body["rows"][0]
        out[row["type"]] = [row["fiber_size"], row["components"]]
    print(f"components: {len(out)} types, total {sum(c for _, c in out.values())}", flush=True)
    return out


def fiber_count_table():
    out = {}
    for t in workloads.FIBER_COUNT_TYPES:
        counts = parse_type(t)
        for ct in cycle_types(4):
            target = class_elements(4, ct)[0]
            if fiber_size(4, counts, target) == 0:
                continue
            for constraint in ("none", "transitive"):
                spec = FiberSpec(4, TypeVector.parse(t, 4), Perm(target), constraint)
                r = count_orbits_in_fiber(spec, LIMITS)
                if constraint == "none" and r.fiber_size != fiber_size(4, counts, target):
                    raise RuntimeError(f"fiber {t} {ct}: enumeration disagrees with the count")
                out[f"{t}|{check.ct_key(ct)}|{constraint}"] = [r.fiber_size, r.orbit_count]
    return out


def main() -> int:
    expected = {"orbit_sizes": orbit_sizes(), "equiv_pool": equiv_pool(),
                "components": components_table(), "fiber_count": fiber_count_table()}
    rows = stable_length_scan(4, (2, 1, 1), Perm.identity(4), 2, 8, LIMITS)
    expected["stable_length"] = scan_rows_to_dicts(rows)
    expected["cli"] = [None if check.seeded_claim(k) else
                       check.seedless_digest(run_cli(["--seed", "0"] + cmd))
                       for k, cmd in enumerate(workloads.CLI_COMMANDS)]
    expected["default_payloads"] = {}
    for w in workloads.WORKLOADS:
        qs = workloads.queries(w, check.DEFAULT_SEED, expected, cache_dir="unused")
        results = []
        for q in qs:
            argv = list(q["argv"])
            if "--cache-dir" in argv:
                k = argv.index("--cache-dir")
                del argv[k:k + 2]
            results.append({"code": 0, "payload": run_cli(argv), "elapsed": 0.0})
        expected["default_payloads"][w] = {q["id"]: check.digest(r["payload"])
                                           for q, r in zip(qs, results)}
        errors = check.check_round(w, qs, results, check.DEFAULT_SEED, expected)
        bad = [(q["id"], e) for q, e in zip(qs, errors) if e]
        if bad:
            raise RuntimeError(f"default-seed answers fail the checker: {bad}")
        print(f"default payloads {w}: {len(qs)} queries pass", flush=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
