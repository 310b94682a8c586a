"""Output checker that does not trust the code under test.

Every answer is checked against invariants computed here with the
benchmark's own arithmetic (:mod:`algebra`) or against values frozen in
``expected.json`` by ``freeze.py``:

* orbit sizes equal the frozen size of the query's template, and a word and
  its random-walk scramble report the same size and ``canonical``, which
  must be a word of the same length, type and product (product class under
  ``--conj``) no larger than the query word;
* ``equiv`` answers "yes" with a certificate that replays word1 to word2;
* unconstrained fiber sizes equal the prefix-product count, and fiber
  sizes and orbit counts equal the frozen per-class tables; representatives
  are sorted, distinct, of the right type and product (and transitive when
  asked for);
* ``components`` rows and ``stable-length`` rows equal frozen values;
* CLI payloads equal frozen ones (with the ``seed`` field set to 0) where
  they do not depend on the seed; for the seeded claims the sampled words
  are rebuilt here and every certificate is replayed; a cache hit is
  byte-identical to the miss before it.

For the default seed every payload must also be byte-identical to the one
frozen for that seed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

from algebra import (
    class_elements,
    conj,
    cycle_type,
    fiber_size,
    format_perm,
    generates_symmetric_group,
    identity,
    is_transitive,
    parse_perm,
    parse_type,
    parse_word,
    product,
    replay,
    type_of,
)
from workloads import CLI_COMMANDS

DEFAULT_SEED = 0



def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seedless_digest(payload: str) -> str:
    body = json.loads(payload)
    body["seed"] = 0
    return digest(json.dumps(body, indent=2, ensure_ascii=True) + "\n")


def ct_key(ct) -> str:
    return ",".join(map(str, ct))


def _word_from_argv(argv, flag):
    return argv[argv.index(flag) + 1].split()


def check_orbit(q, body, expected):
    d = q["d"]
    errors = []
    word = parse_word(_word_from_argv(q["argv"], "--word"), d)
    want = expected["orbit_sizes"][q["template"]]
    if body["orbit_size"] != want:
        errors.append(f"orbit_size {body['orbit_size']} != {want}")
    if body["complete"] is not True or body["limit_hit"] is not None:
        errors.append("orbit not complete")
    if body["states_explored"] != body["orbit_size"]:
        errors.append("states_explored != orbit_size")
    if body["query"]["word"] != [format_perm(f) for f in word]:
        errors.append("query word not echoed")
    canon = parse_word(body["canonical"] or [], d)
    if len(canon) != len(word) or type_of(canon) != type_of(word):
        errors.append("canonical has another length or type")
    elif q["conj"]:
        if cycle_type(product(canon, d)) != cycle_type(product(word, d)):
            errors.append("canonical product not conjugate to the word's")
    elif product(canon, d) != product(word, d):
        errors.append("canonical has another product")
    if canon > word:
        errors.append("canonical is larger than a member of its orbit")
    return errors


def check_equiv(q, body):
    d = q["d"]
    w1 = parse_word(_word_from_argv(q["argv"], "--word1"), d)
    w2 = parse_word(_word_from_argv(q["argv"], "--word2"), d)
    if body["result"] != "yes":
        return [f"equiv result {body['result']!r}, want 'yes'"]
    try:
        end = replay(w1, body["certificate"])
    except (ValueError, TypeError) as exc:
        return [f"certificate does not replay: {exc}"]
    return [] if end == w2 else ["certificate replays to another word"]


def check_components(q, body, expected):
    size, comps = expected["components"][q["type"]]
    want = [{"type": q["type"], "fiber_size": size, "components": comps, "complete": True}]
    errors = []
    if body["rows"] != want:
        errors.append(f"components rows {body['rows']} != {want}")
    if body["total_components"] != comps or body["all_rows_unknown"]:
        errors.append("components totals wrong")
    if body["convention"] != {"product": "identity", "constraint": "transitive",
                              "conjugation_quotient": True}:
        errors.append("components convention wrong")
    return errors


def check_stable_length(body, want_rows):
    if body["rows"] != want_rows or body["all_rows_unknown"]:
        return [f"stable-length rows {body['rows']} != {want_rows}"]
    return []


def check_fiber_count(q, body, expected):
    d = 4
    target = tuple(q["product"])
    counts = parse_type(q["type"])
    key = f"{q['type']}|{ct_key(cycle_type(target))}|{q['constraint']}"
    size, orbits = expected["fiber_count"][key]
    errors = []
    if q["constraint"] == "none" and body["fiber_size"] != fiber_size(d, counts, target):
        errors.append("fiber_size differs from the prefix-product count")
    if body["fiber_size"] != size or body["orbit_count"] != orbits:
        errors.append(f"fiber {body['fiber_size']}/{body['orbit_count']} != {size}/{orbits}")
    if body["complete"] is not True:
        errors.append("fiber not complete")
    reps = [parse_word(r, d) for r in body["representatives"]]
    if len(reps) != body["orbit_count"] or reps != sorted(set(reps)):
        errors.append("representatives not sorted, distinct, one per orbit")
    want_type = {ct: n for ct, n in counts}
    for r in reps:
        if dict(type_of(r)) != want_type or product(r, d) != target:
            errors.append("representative outside the fiber")
        elif q["constraint"] == "transitive" and not is_transitive(r, d):
            errors.append("representative not transitive")
    return errors


# -- seeded CLI claims: rebuild the sampled words and replay -----------------------

def _rows_replay(body, pairs):
    errors = []
    rows = [r for r in body["rows"] if r["check"] != "pigeonhole precheck"]
    if len(rows) != len(pairs):
        return [f"{len(rows)} certified rows, want {len(pairs)}"]
    for row, (start, goal) in zip(rows, pairs):
        if row["status"] != "yes" or row["certificate"] is None:
            errors.append(f"row {row['check']!r} not certified")
            continue
        end = replay(start, row["certificate"])
        if not goal(end):
            errors.append(f"row {row['check']!r}: certificate misses its goal")
    return errors


def check_claim5(body, seed, d=3):
    """``verify --d 3 --class 2,1 --claim 5``: random generating words of
    length 3(d-1)+1 rewritten to end in the cubed ladder."""
    rng = random.Random(seed)
    gens = class_elements(d, (2,) + (1,) * (d - 2))
    tail = tuple(parse_perm(f"({i},{i + 1})", d) for i in range(1, d)) * 3
    samples = body["rows"][1:]
    pairs = []
    while len(pairs) < len(samples):
        word = tuple(rng.choice(gens) for _ in range(len(tail) + 1))
        if generates_symmetric_group(word, d):
            pairs.append((word, lambda w: w[len(w) - len(tail):] == tail))
    return _rows_replay(body, pairs)


def check_relations(body, seed, d=3):
    """``verify --d 3 --claim relations``: s1 ++ s2 ~ s2^product(s1) ++ s1."""
    rng = random.Random(seed)
    pool = [p for p in itertools.permutations(range(1, d + 1)) if p != identity(d)]
    pairs = []
    for _ in body["rows"]:
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        s1 = tuple(rng.choice(pool) for _ in range(n1))
        s2 = tuple(rng.choice(pool) for _ in range(n2))
        g = product(s1, d)
        rhs = tuple(conj(g, f) for f in s2) + s1
        pairs.append((s1 + s2, lambda w, rhs=rhs: w == rhs))
    return _rows_replay(body, pairs)


def check_class_info(body):
    """``class-info --d 8 --class 3,2,1,1,1``: constants by formula, and the
    witness multiplies to (1,2) with every factor in the class."""
    ct = (3, 2, 1, 1, 1)
    d = 8
    size = math.factorial(d) // math.prod(
        c ** ct.count(c) * math.factorial(ct.count(c)) for c in set(ct))
    errors = []
    if (body["n_C"], body["k_C"], body["f_C"], body["parity"]) != (6, size, 3, "odd"):
        errors.append("class constants wrong")
    witness = parse_word(body["witness"] or [], d)
    if any(cycle_type(f) != ct for f in witness) or product(witness, d) != parse_perm("(1,2)", d):
        errors.append("witness is not a class word for (1,2)")
    elif len(witness) not in (body["m_C"], body["m_C_constrained"]):
        errors.append("witness length matches no reported minimum")
    return errors


# Checks for the claims whose payload depends on --seed beyond the echoed
# seed field, by the value of --claim.
SEEDED_CLAIMS = {"5": check_claim5, "relations": check_relations}


def seeded_claim(k):
    """The seeded-claim check of CLI command k, or None."""
    cmd = CLI_COMMANDS[k]
    return SEEDED_CLAIMS.get(cmd[-1]) if cmd[0] == "verify" else None


def check_cli(q, body, payload, seed, expected):
    k = q["command"]
    errors = []
    if body.get("falsified") or body.get("falsification_found"):
        errors.append("report claims a falsification")
    if body.get("complete") is False:
        errors.append("report incomplete")
    if seeded_claim(k):
        errors += seeded_claim(k)(body, seed)
    elif seedless_digest(payload) != expected["cli"][k]:
        errors.append("payload differs from the frozen one")
    if CLI_COMMANDS[k][0] == "class-info":
        errors += check_class_info(body)
    return errors


def check_round(workload, queries, results, seed, expected):
    """One error list per query; an empty list means the answer is right."""
    errors = [[] for _ in queries]
    frozen = expected["default_payloads"][workload] if seed == DEFAULT_SEED else None
    bodies = [None] * len(queries)
    for i, (q, r) in enumerate(zip(queries, results)):
        if r.get("error"):
            errors[i].append(r["error"])
            continue
        if r.get("code") != 0:
            errors[i].append(f"exit code {r.get('code')}")
        try:
            body = json.loads(r["payload"])
        except ValueError:
            errors[i].append("payload is not JSON")
            continue
        bodies[i] = body
        if frozen is not None and digest(r["payload"]) != frozen[q["id"]]:
            errors[i].append("payload differs from the one frozen for the default seed")
        try:
            if q["kind"] == "orbit":
                errors[i] += check_orbit(q, body, expected)
            elif q["kind"] == "equiv":
                errors[i] += check_equiv(q, body)
            elif q["kind"] == "components":
                errors[i] += check_components(q, body, expected)
            elif q["kind"] == "stable_length":
                errors[i] += check_stable_length(body, expected["stable_length"])
            elif q["kind"] == "fiber_count":
                errors[i] += check_fiber_count(q, body, expected)
            elif q["kind"] == "cli":
                errors[i] += check_cli(q, body, r["payload"], seed, expected)
        except (KeyError, TypeError, ValueError) as exc:
            errors[i].append(f"malformed payload: {type(exc).__name__}: {exc}")
    # Cross-query agreement: scrambled twins, cache hit against miss.
    groups = {}
    for i, q in enumerate(queries):
        key = q.get("pair") if q["kind"] == "orbit" else (q.get("command") if q["kind"] == "cli" else None)
        if key is not None and bodies[i] is not None:
            groups.setdefault((q["kind"], key), []).append(i)
    for (kind, _), members in groups.items():
        first = members[0]
        for i in members[1:]:
            if kind == "orbit":
                a, b = bodies[first], bodies[i]
                if (a["orbit_size"], a["canonical"]) != (b["orbit_size"], b["canonical"]):
                    errors[i].append("scrambled twin reports another orbit")
            elif (results[i]["payload"], results[i]["code"]) != (results[first]["payload"], results[first]["code"]):
                errors[i].append("cache hit differs from the miss")
    return errors

