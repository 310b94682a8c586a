"""The benchmark's own permutation and word arithmetic.

Nothing here imports the package under test: the query generators and the
output checker use this module so that a wrong answer from the program
cannot be confirmed by the program's own code.

A permutation is a tuple in one-line notation with values ``1..d`` (entry
``i - 1`` is the image of ``i``), composed as ``(p * q)(i) = p(q(i))``.  The
moves on words are

    R at i:  (g_i, g_{i+1})  ->  (g_i g_{i+1} g_i^-1, g_i)
    L at i:  (g_i, g_{i+1})  ->  (g_{i+1}, g_{i+1}^-1 g_i g_{i+1})
"""
from __future__ import annotations

import itertools
import math
import re
from collections import Counter

_CYCLE = re.compile(r"\(([0-9,]*)\)")


def identity(d):
    return tuple(range(1, d + 1))


def mul(p, q):
    """q acts first."""
    return tuple(p[x - 1] for x in q)


def inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def conj(g, a):
    """g a g^-1."""
    return mul(mul(g, a), inv(g))


def product(word, d):
    p = identity(d)
    for f in word:
        p = mul(p, f)
    return p


def cycle_type(p):
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        n = 0
        i = start
        while not seen[i]:
            seen[i] = True
            n += 1
            i = p[i] - 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def parity(ct):
    return sum(c - 1 for c in ct) % 2


def class_elements(d, ct):
    """Members of a class, sorted in one-line order."""
    return [p for p in itertools.permutations(range(1, d + 1)) if cycle_type(p) == tuple(ct)]


def cycle_types(d):
    out = []

    def rec(left, top, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(left, top), 0, -1):
            rec(left - part, part, prefix + [part])

    rec(d, d, [])
    return out


def generates_symmetric_group(word, d):
    seen = {identity(d)}
    frontier = [identity(d)]
    gens = set(word)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == math.factorial(d)


def is_transitive(word, d):
    reached = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for f in word:
            for y in (f[x - 1], inv(f)[x - 1]):
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return len(reached) == d


# -- text forms ---------------------------------------------------------------

def parse_perm(text, d):
    img = list(range(1, d + 1))
    for body in _CYCLE.findall(text):
        if not body:
            continue
        pts = [int(x) for x in body.split(",")]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b
    if "".join(f"({b})" for b in _CYCLE.findall(text)) != text.replace(" ", ""):
        raise ValueError(f"not cycle notation: {text!r}")
    if sorted(img) != list(range(1, d + 1)):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(img)


def format_perm(p):
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen or p[start - 1] == start:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = p[x - 1]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def parse_word(factors, d):
    """A word from the list-of-factors form the reports use."""
    return tuple(parse_perm(f, d) for f in factors)


def word_arg(word):
    """The CLI's spaced inline form: one factor per whitespace-separated token."""
    return " ".join(format_perm(f) for f in word)


def type_of(word):
    return Counter(cycle_type(f) for f in word)


def parse_type(text):
    """``"2,1,1:5;4:1"`` -> list of (cycle type, count)."""
    out = []
    for chunk in text.split(";"):
        ct, n = chunk.split(":")
        out.append((tuple(int(x) for x in ct.split(",")), int(n)))
    return out


# -- moves --------------------------------------------------------------------

def move(word, name):
    """Apply one move named like ``"R3"`` (1-based position)."""
    i = int(name[1:]) - 1
    if name[0] not in "RL" or not 0 <= i < len(word) - 1:
        raise ValueError(f"bad move {name!r} for a word of length {len(word)}")
    a, b = word[i], word[i + 1]
    if name[0] == "R":
        pair = (conj(a, b), a)
    else:
        pair = (b, conj(inv(b), a))
    return word[:i] + pair + word[i + 2:]


def replay(word, moves):
    for m in moves:
        word = move(word, m)
    return word


def random_walk(rng, word, steps, d=None):
    """``steps`` random moves; with ``d`` given, also random conjugations by
    transpositions (the conjugation-quotient orbit)."""
    n = len(word)
    trans = class_elements(d, (2,) + (1,) * (d - 2)) if d else []
    for _ in range(steps):
        if trans and rng.random() < 0.2:
            g = rng.choice(trans)
            word = tuple(conj(g, f) for f in word)
        else:
            word = move(word, rng.choice("RL") + str(rng.randint(1, n - 1)))
    return word


# -- fiber sizes ----------------------------------------------------------------

def fiber_size(d, type_counts, target):
    """Number of words with the given type (any order of classes) and product:
    a prefix-product count over the remaining class multiset."""
    classes = [ct for ct, _ in type_counts]
    members = {ct: class_elements(d, ct) for ct in classes}
    layer = {(tuple(n for _, n in type_counts), identity(d)): 1}
    for _ in range(sum(n for _, n in type_counts)):
        nxt = Counter()
        for (left, p), ways in layer.items():
            for k, ct in enumerate(classes):
                if left[k] == 0:
                    continue
                rest = left[:k] + (left[k] - 1,) + left[k + 1:]
                for g in members[ct]:
                    nxt[(rest, mul(p, g))] += ways
        layer = nxt
    return sum(ways for (_, p), ways in layer.items() if p == target)
