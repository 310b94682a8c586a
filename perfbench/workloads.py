"""Seeded query lists for the three workloads.

The in-process lists are shuffled, so that queries of one kind are spread
over the whole round and their latencies sample the whole run.

A query is a dict with the CLI arguments the program receives (``argv``)
and what the checker needs to judge the answer.  The same seed always gives
the same list.  Every random choice is made so that the amount of work in a
list does not depend on the seed, only the concrete inputs do: orbit words
come from templates that fix degree, type, product class and the full
generated group (so the orbit size is fixed), equivalence pairs are a frozen
pool relabelled by a random conjugation (which keeps the search isomorphic),
fiber products range over every class of the right parity, and component
types are drawn from strata of types that cost about the same.
"""
from __future__ import annotations

import random

from algebra import (
    class_elements,
    conj,
    cycle_type,
    cycle_types,
    generates_symmetric_group,
    parity,
    parse_type,
    parse_word,
    product,
    random_walk,
    word_arg,
)

# name, degree, type, product cycle type, conjugation quotient, words drawn;
# every word but the big one is followed by its own random-walk scramble.
# Sizes seen at the seed commit (Python 3.11, 2 cores): big 131,040 states in
# ~6.5 s; t4x7 23,296 in ~0.9 s; t5x6 15,625 in ~0.5 s; m4x6 23,328 in
# ~0.65 s; c4x5 2,880 in ~0.16 s.
ORBIT_TEMPLATES = [
    ("big", 4, "2,1,1:8", (1, 1, 1, 1), False, 1),
    ("t4x7", 4, "2,1,1:7", (4,), False, 1),
    ("t5x6", 5, "2,1,1,1:6", (5,), False, 1),
    ("m4x6", 4, "2,1,1:5;4:1", (3, 1), False, 1),
    ("c4x5", 4, "2,1,1:5", (2, 1, 1), True, 2),
    ("c3x6", 3, "2,1:6", (3,), True, 2),
]

# Each frozen equivalence pair is asked this many times, under independent
# random relabellings.
EQUIV_RELABELS = 3

# One type is drawn from each stratum per list.  Types in a stratum have
# near-equal `components --d 4 --b 5` cost at the seed commit (seconds):
# 2.18/2.18, 1.34/1.38, 0.63/0.64/0.66, 0.43/0.45/0.45, 0.16/0.17, and the
# last stratum holds types whose fiber is empty by parity.
COMPONENT_STRATA = [
    ["2,1,1:1;3,1:1;4:3", "2,1,1:3;3,1:1;4:1"],
    ["2,1,1:1;2,2:2;3,1:1;4:1", "2,1,1:2;3,1:3"],
    ["2,1,1:1;2,2:1;4:3", "2,1,1:2;2,2:2;3,1:1", "2,2:2;3,1:1;4:2"],
    ["3,1:5", "2,2:2;3,1:3", "2,1,1:4;3,1:1"],
    ["2,2:1;4:4", "2,1,1:1;2,2:3;4:1"],
    ["2,1,1:5", "4:5", "2,1,1:1;3,1:4", "2,2:1;3,1:1;4:3"],
]

STABLE_LENGTH = ["stable-length", "--d", "4", "--class", "2,1,1", "--from", "2", "--to", "8"]

# Every product class of the right parity, four random products each, with
# and without --transitive: 24 queries of near-equal cost (~0.3 s).
FIBER_COUNT_TYPES = ["2,1,1:6"]
FIBER_COUNT_DRAWS = 4

CLI_COMMANDS = [
    ["fiber-count", "--d", "4", "--type", "2,1,1:6", "--product", "()", "--full-group"],
    ["stable-length", "--d", "3", "--class", "2,1", "--product", "()", "--from", "2", "--to", "8"],
    ["verify", "--d", "4", "--class", "2,1,1", "--claim", "1"],
    ["verify", "--d", "4", "--class", "2,1,1", "--claim", "2"],
    ["verify", "--d", "4", "--class", "2,1,1", "--claim", "3"],
    ["verify", "--d", "3", "--class", "2,1", "--claim", "5"],
    ["verify", "--d", "3", "--claim", "relations"],
    ["theorem1-report", "--d", "4", "--class", "2,1,1", "--from", "2", "--to", "6"],
    ["class-info", "--d", "8", "--class", "3,2,1,1,1"],
]

WORKLOADS = ("orbit", "fiber", "cli")


def template_word(rng, d, type_text, product_ct, max_tries=100_000):
    """A random word of the given type whose product lies in ``product_ct``
    and whose factors generate S_d.  Only odd classes are accepted: even ones
    generate at most A_d, and the loop would never end."""
    classes = [ct for ct, n in parse_type(type_text) for _ in range(n)]
    if any(parity(ct) == 0 for ct in classes):
        raise ValueError(f"full-group template {type_text} has an even class")
    members = {ct: class_elements(d, ct) for ct in set(classes)}
    for _ in range(max_tries):
        rng.shuffle(classes)
        word = tuple(rng.choice(members[ct]) for ct in classes)
        if cycle_type(product(word, d)) == product_ct and generates_symmetric_group(word, d):
            return word
    raise RuntimeError(f"no word found for template {type_text}")


def orbit_queries(seed, expected):
    rng = random.Random(f"orbit-{seed}")
    out = []
    for name, d, type_text, product_ct, conj_q, count in ORBIT_TEMPLATES:
        for j in range(count):
            word = template_word(rng, d, type_text, product_ct)
            words = [word]
            if name != "big":
                words.append(random_walk(rng, word, rng.randint(50, 100), d if conj_q else None))
            for k, w in enumerate(words):
                argv = ["orbit", "--d", str(d), "--word", word_arg(w)]
                out.append({"id": f"{name}.{j}.{k}", "kind": "orbit", "template": name, "d": d,
                            "conj": conj_q, "pair": f"{name}.{j}",
                            "argv": argv + (["--conj"] if conj_q else [])})
    for j in range(EQUIV_RELABELS):
        for k, pair in enumerate(expected["equiv_pool"]):
            d = pair["d"]
            g = tuple(rng.sample(range(1, d + 1), d))
            w1, w2 = (tuple(conj(g, f) for f in parse_word(pair[side], d))
                      for side in ("word1", "word2"))
            out.append({"id": f"equiv.{j}.{k}", "kind": "equiv", "d": d,
                        "argv": ["equiv", "--d", str(d), "--word1", word_arg(w1),
                                 "--word2", word_arg(w2)]})
    # The big orbit stays first: it sets the peak RSS, which then does not
    # depend on how the smaller queries fragmented the heap before it.
    big, rest = out[0], out[1:]
    rng.shuffle(rest)
    return [big] + rest


def fiber_queries(seed, expected):
    rng = random.Random(f"fiber-{seed}")
    flags = ["--workers", "2"]
    out = []
    for k, stratum in enumerate(COMPONENT_STRATA):
        t = rng.choice(stratum)
        out.append({"id": f"components.{k}", "kind": "components", "type": t,
                    "argv": flags + ["components", "--d", "4", "--b", "5", "--type", t]})
    out.append({"id": "stable-length", "kind": "stable_length", "argv": flags + STABLE_LENGTH})
    for t in FIBER_COUNT_TYPES:
        counts = parse_type(t)
        want = sum(parity(ct) * n for ct, n in counts) % 2
        for ct in cycle_types(4):
            if parity(ct) != want:
                continue
            for draw in range(FIBER_COUNT_DRAWS):
                target = rng.choice(class_elements(4, ct))
                for constraint in ("none", "transitive"):
                    argv = ["fiber-count", "--d", "4", "--type", t, "--product", word_arg([target])]
                    if constraint == "transitive":
                        argv.append("--transitive")
                    out.append({"id": f"fiber-count.{t}.{','.join(map(str, ct))}.{draw}.{constraint}",
                                "kind": "fiber_count", "type": t, "product": target,
                                "constraint": constraint, "argv": flags + argv})
    rng.shuffle(out)
    return out


def cli_queries(seed, cache_dir):
    """Each command twice against one fresh cache directory: a miss that
    computes and writes the entry, then a hit that reads it."""
    out = []
    for k, cmd in enumerate(CLI_COMMANDS):
        for attempt in ("miss", "hit"):
            argv = ["--workers", "2", "--seed", str(seed), "--cache-dir", cache_dir] + cmd
            out.append({"id": f"{cmd[0]}.{k}.{attempt}", "kind": "cli", "command": k,
                        "cache": attempt, "argv": argv})
    return out


# Query ids kept by --smoke: the cheapest query of each kind.
SMOKE = {
    "orbit": ("c3x6.0.0", "c3x6.0.1", "c4x5.0.0", "c4x5.0.1", "equiv.0.6"),
    "fiber": ("components.4", "components.5", "fiber-count.2,1,1:6.2,2.0.none",
              "fiber-count.2,1,1:6.2,2.0.transitive"),
    "cli": ("fiber-count.0.miss", "fiber-count.0.hit", "verify.2.miss", "verify.2.hit",
            "verify.5.miss", "verify.5.hit", "verify.6.miss", "verify.6.hit"),
}


def queries(workload, seed, expected, cache_dir=None, smoke=False):
    if workload == "orbit":
        out = orbit_queries(seed, expected)
    elif workload == "fiber":
        out = fiber_queries(seed, expected)
    else:
        out = cli_queries(seed, cache_dir)
    return [q for q in out if q["id"] in SMOKE[workload]] if smoke else out
