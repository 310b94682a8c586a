"""Orbit enumeration, equivalence certificates, and fiber counting.

Everything here is exhaustive and certified: an answer is only reported as
definite when the underlying search ran to completion within its limits, and
hitting a limit is a first-class outcome (``complete=False`` / ``"unknown"``),
never a silent truncation.

Every search runs on coded words: the integer factor codes of the one
:class:`~hurwitz.words.MoveKernel` of its degree that a process keeps
(:func:`~hurwitz.words.kernel_of`).  The equivalence search and the
stable-tail search in :mod:`hurwitz.constructions` certify a path, so they
run on :func:`expand`, the breadth-first traversal over every R and L move
that records each word's parent; :func:`trace_moves` reads the moves back.
These two searches hold each word as one int, its codes packed as base-d!
digits with the first factor most significant
(:class:`~hurwitz.words.Packing`): a move adds one delta, read off the pair
of digits it rewrites, times a power of d!, so no tuple is built or hashed.
Packed words of one length compare as their coded tuples do and a move
rewrites the same two factors, so the searches visit the same words in the
same order, and give the same certificates, as on tuples.  The orbit
closure and the fiber's orbits follow each word to its images under two
braid generators, R_1 and the rotation (:func:`orbit_images`), on tuples:
the rotation's image is one whole-row ``map``, where a packed word would
take a digit operation per factor.  Fiber enumeration carries target^-1
prefix as a code, one row of ``kernel.mul`` per node, and reads the last
factor off its inverse, so only Z(p)'s tables below depend on the product.

Every fiber takes one labelled search (:func:`_sub_fiber_classes`) on the
sub-fiber of G = Z(p), the centraliser of its product p: the words whose
first two factors are the least pair of their G-orbit, found one factor at
a time, each the least of its orbit under the stabiliser of those before it
(:func:`_conjugation_orbits`).
Each class splits into braid orbits, the cosets of the stabiliser its
Schreier labels generate, which give the counts, least words and partitions
(:func:`count_orbits_in_fiber`, whose row is :func:`count_orbits`).  Every
lazily filled table is a :class:`~hurwitz.words.Memo`.
``Perm`` words appear only at the boundaries: coding the inputs, decoding
the results, and replaying certificates.  Coding keeps order, so the least
coded word of an orbit decodes to its least word, and a fiber's coded words
come out in the order of its ``Perm`` words.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .perms import (Chain, CycleType, Perm, centraliser_generators, class_elements, class_reflection_length,
                    class_size, closure, generates_symmetric_group, is_transitive, validate_cycle_type)
from .words import (
    Coded,
    Factorization,
    Memo,
    Move,
    MoveKernel,
    Packing,
    State,
    TypeVector,
    kernel_of,
)


@dataclass(frozen=True)
class SearchLimits:
    """Caps for the exhaustive searches; exceeding one yields an incomplete
    (never wrong) answer."""

    max_states: int = 10_000_000
    max_fiber: int = 10_000_000

    def __post_init__(self) -> None:
        # The equivalence search holds both of its roots before it tests the
        # limit, so no search keeps to a state limit below 2.
        if self.max_states < 2:
            raise ValueError(f"max_states must be at least 2, got {self.max_states}")
        if self.max_fiber < 1:
            raise ValueError(f"max_fiber must be at least 1, got {self.max_fiber}")


DEFAULT_LIMITS = SearchLimits()


def neighbors(packing: Packing, w: int) -> list[int]:
    """The neighbours of a packed word, in a fixed order: R then L at each
    position, left to right.

    A neighbour's index in the list is its move code; :func:`trace_moves`
    turns the codes back into :class:`Move` objects.
    """
    deltas, square = packing.deltas, packing.base ** 2
    out = []
    for place in packing.places:
        dr, dl = deltas[w // place % square]
        out += (w + dr * place, w + dl * place)
    return out


#: A search tree: each reached packed word maps to its parent, the root to None.
Parents = dict[int, int | None]


def expand(packing: Packing, frontier: list[int], parents: Parents) -> Iterator[int]:
    """The breadth-first traversal of the searches that certify a path: for
    each packed word of ``frontier``, in order, record each neighbour not yet
    in ``parents`` with that word as its parent, and yield it.

    The neighbours come in the order of :func:`neighbors`, R then L at each
    position, left to right, each the word plus one delta times a place of
    :class:`~hurwitz.words.Packing`; the loop is written out here, not
    called, and :func:`trace_moves` relies on the two orders agreeing.
    Packing changes neither the words nor that order, only how a word is
    stored and hashed, so a search visits the words of a coded or ``Perm``
    search in the same order, with the same parents.

    The caller may append to ``frontier`` while this runs, so a search that
    feeds every yielded word back in walks its whole queue; the caller keeps
    its own stop rules and simply stops iterating.
    """
    deltas, square, places = packing.deltas, packing.base ** 2, packing.places
    for s in frontier:
        for place in places:
            dr, dl = deltas[s // place % square]
            ns = s + dr * place
            if ns not in parents:
                parents[ns] = s
                yield ns
            ns = s + dl * place
            if ns not in parents:
                parents[ns] = s
                yield ns


def trace_moves(packing: Packing, parents: Parents, w: int) -> list[Move]:
    """The moves leading from the root of ``parents`` to the packed word ``w``.

    :func:`expand` records a word from the first neighbour of its parent that
    equals it, so that neighbour's index in :func:`neighbors` is the move that
    was taken; packed words are equal exactly when their coded words are.
    """
    codes: list[int] = []
    while (parent := parents[w]) is not None:
        codes.append(neighbors(packing, parent).index(w))
        w = parent
    return [Move(code // 2 + 1, "RL"[code % 2]) for code in reversed(codes)]


@dataclass
class OrbitReport:
    start: Factorization
    size: int
    complete: bool
    canonical: Factorization | None
    states_explored: int
    limit_hit: str | None = None


def symmetric_generators(degree: int) -> tuple[Perm, ...]:
    """(1,2) and (1 2 ... d), which generate S_d = Z(1); deduplicated for d <= 2."""
    return centraliser_generators(Perm.identity(degree))


def orbit_images(kernel: MoveKernel,
                 conjugation_quotient: bool = False) -> Callable[[Coded], Iterable[Coded]]:
    """The images of a coded word under two braid generators, read off the
    row of its first factor in ``kernel.conjugate`` (none below two factors),

        R_1:  (g_1, g_2, ..., g_n) -> (g_1 g_2 g_1^-1, g_1, g_3, ..., g_n),
        D:    (g_1, ..., g_n) -> (g_1 g_2 g_1^-1, ..., g_1 g_n g_1^-1, g_1),

    then, under the conjugation quotient, its conjugates by
    :func:`symmetric_generators`.  The words reached forward along these
    images are the whole orbit of the braid group (times S_d under the
    quotient).  The R moves generate the braid action (L undoes R), and R_1
    and D generate the same group: D applied k times, then R_1, then D^-1 k
    times is R at position k + 1 (for n = 2, D is R_1).  Each image map is a
    bijection of the finite set of words of one length and type, so a power
    of each is its inverse.
    """
    rows = kernel.conjugate
    conj = kernel.encode_word(symmetric_generators(kernel.degree)) if conjugation_quotient else ()
    conj_rows = [rows[g] for g in conj]

    def braid(w: Coded) -> tuple[Coded, ...]:
        if len(w) < 2:
            return ()
        a = w[0]
        row = rows[a]
        return (row[w[1]], a) + w[2:], tuple(map(row.__getitem__, w[1:])) + (a,)

    def with_conjugates(w: Coded) -> list[Coded]:
        return [*braid(w), *[tuple(map(r.__getitem__, w)) for r in conj_rows]]

    return with_conjugates if conj_rows else braid


def _orbit_states(kernel: MoveKernel, state0: Coded, max_states: int,
                  conjugation_quotient: bool = False) -> tuple[set[Coded], bool]:
    """The orbit of ``state0`` as a set, the forward closure under
    :func:`orbit_images`, and whether it is complete; an incomplete closure
    holds exactly ``max_states`` words."""
    images = orbit_images(kernel, conjugation_quotient)
    visited = {state0}
    queue = [state0]
    for w in queue:  # grows while it is walked
        for v in images(w):
            if v not in visited:
                if len(visited) == max_states:
                    return visited, False
                visited.add(v)
                queue.append(v)
    return visited, True


def enumerate_orbit(start: Factorization, limits: SearchLimits = DEFAULT_LIMITS,
                    conjugation_quotient: bool = False) -> OrbitReport:
    """Enumerate the move orbit of ``start`` (plus conjugation edges when
    ``conjugation_quotient``).

    When complete, ``canonical`` is the lexicographically least word of the
    orbit (factors compared in one-line notation, words left to right).
    """
    kernel = kernel_of(start.degree)
    visited, complete = _orbit_states(kernel, kernel.encode_word(start.factors),
                                      limits.max_states, conjugation_quotient)
    canonical = None
    if complete:
        canonical = Factorization.from_state(start.degree, kernel.decode_word(min(visited)))
    return OrbitReport(
        start=start,
        size=len(visited),
        complete=complete,
        canonical=canonical,
        states_explored=len(visited),
        limit_hit=None if complete else f"max_states={limits.max_states}",
    )


@dataclass
class EquivalenceReport:
    """Outcome of an equivalence query.

    ``status`` is "yes", "no", or "unknown"; a "yes" carries a move sequence
    transforming the first word into the second, replayable for verification.
    """

    status: str
    certificate: tuple[Move, ...] | None
    states_explored: int
    reason: str | None = None


def are_equivalent(s1: Factorization, s2: Factorization,
                   limits: SearchLimits = DEFAULT_LIMITS) -> EquivalenceReport:
    """Decide whether two words represent the same semigroup element.

    Cheap invariants (length, product, type, generated subgroup, the last
    by :class:`~hurwitz.perms.Chain` order and membership, no degree gate)
    separate inequivalent words immediately; otherwise a bidirectional
    breadth-first search over the move graph looks for a meeting word.
    "unknown" occurs only when the state limit is exhausted.
    """
    if s1.degree != s2.degree:
        return EquivalenceReport("no", None, 0, "degrees differ")
    if len(s1) != len(s2):
        return EquivalenceReport("no", None, 0, "lengths differ")
    if s1.product() != s2.product():
        return EquivalenceReport("no", None, 0, "products differ")
    if s1.type_vector() != s2.type_vector():
        return EquivalenceReport("no", None, 0, "types differ")
    if s1.factors == s2.factors:
        return EquivalenceReport("yes", (), 0)
    group = Chain(s1.degree, s1.factors)
    if group.order() != Chain(s2.degree, s2.factors).order() or not all(f in group for f in s2.factors):
        return EquivalenceReport("no", None, 0, "generated subgroups differ")

    kernel = kernel_of(s1.degree)
    packing = Packing(kernel, len(s1))
    c1 = packing.pack(kernel.encode_word(s1.factors))
    c2 = packing.pack(kernel.encode_word(s2.factors))
    sides: list[Parents] = [{c1: None}, {c2: None}]
    frontiers: list[list[int]] = [[c1], [c2]]

    def build_certificate(meeting: int) -> tuple[Move, ...]:
        forward = trace_moves(packing, sides[0], meeting)
        backward = trace_moves(packing, sides[1], meeting)
        return tuple(forward + [m.invert() for m in reversed(backward)])

    explored = 2
    while True:
        # Expand the smaller frontier.  Both start non-empty, and an empty
        # one ends the search below.
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = sides[side], sides[1 - side]
        new_frontier: list[int] = []
        for ns in expand(packing, frontiers[side], mine):
            if explored >= limits.max_states:
                return EquivalenceReport("unknown", None, explored,
                                         f"max_states={limits.max_states}")
            explored += 1
            new_frontier.append(ns)
            if ns in other:
                return EquivalenceReport("yes", build_certificate(ns), explored)
        frontiers[side] = new_frontier
        # One exhausted side means its whole orbit is known and misses the other word.
        if not new_frontier:
            return EquivalenceReport("no", None, explored,
                                     "one orbit fully enumerated without meeting")


# -- fibers ------------------------------------------------------------------

CONSTRAINTS = ("none", "full_group", "transitive")


@dataclass(frozen=True)
class FiberSpec:
    """The set of words with a fixed type and product, optionally constrained
    to generate the full symmetric group or act transitively."""

    degree: int
    type_vector: TypeVector
    product: Perm
    constraint: str = "none"
    conjugation_quotient: bool = False

    def __post_init__(self) -> None:
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"constraint must be one of {CONSTRAINTS}")
        if len(self.product) != self.degree:
            raise ValueError("product degree mismatch")
        self.type_vector.check_degree(self.degree)
        if (1,) * self.degree in self.type_vector.as_dict():
            raise ValueError(f"type {self.type_vector} holds the identity class, which no factor has")
        if self.conjugation_quotient and not (self.degree <= 2 or self.product.is_identity()):
            raise ValueError(
                "conjugation quotient needs a conjugation-invariant product "
                "(the identity for degree >= 3)")


@dataclass
class FiberReport:
    """The words of a fiber, or of its first-pair sub-fiber, kept coded by
    the kernel that enumerated them.

    ``size`` counts the words of the whole fiber that were found, also when
    only the sub-fiber is kept: there it is the sum over the kept words of
    the size |X| |Y| of their first pair's orbit under G (a first factor's
    |X| below three factors).
    """

    coded: list[Coded]
    kernel: MoveKernel
    size: int
    complete: bool
    limit_hit: str | None = None

    @property
    def words(self) -> list[State]:
        return list(map(self.kernel.decode_word, self.coded))


def enumerate_fiber(spec: FiberSpec, limits: SearchLimits = DEFAULT_LIMITS, *,
                    sub_fiber: bool = False) -> FiberReport:
    """All words matching the spec, by backtracking with prefix-product pruning.

    A prefix is pruned when the suffix still needed requires more
    transpositions than the remaining factors can carry (reflection length is
    subadditive).  Parity is checked once, at the root: the needed suffix and
    the remaining factors then have the same parity at every node, because a
    factor changes both by its own parity.  The search carries
    r = target^-1 prefix as a code of the degree's kernel, target^-1 at the
    root: a node's children read theirs off its row of ``kernel.mul``, and
    the suffix still needed, r^-1, has reflection length
    ``kernel.reflection[r]``.  The last factor is r'^-1, for the r' of the
    other factors, so the loop that places the one before it keeps the word if
    r' lies in the one class left (classes are closed under inversion) and
    reads the last factor off ``kernel.inverse``; no class is looped over and
    no call is made per word.  Those tables depend only on the degree, and
    the process keeps the constraint verdicts, per factor set, too, so every
    fiber reads what earlier fibers filled.  Class elements are tried in
    sorted order, so the words come out in the same order as a backtracking
    over ``Perm`` values would give them.

    With ``sub_fiber``, only the words whose first pair (c_X, c_Y) is the
    least of its orbit under G = Z(p), the centraliser of the product p
    (:func:`_conjugating_group`), are kept: the top level tries the least
    members c_X of the orbits X of G, and the second level the least
    members c_Y of the orbits Y of Stab_G(c_X); this is the sub-fiber of
    :func:`_sub_fiber_classes`.  G conjugates the fiber onto itself, and
    conjugating by an h in G with h (x, y) h^-1 = (c_X, c_Y) maps the words
    starting with (x, y) onto those starting with (c_X, c_Y), so each kept
    word stands for |X| |Y| fiber words.  At two factors the second is
    forced, c_X^-1 p, and Stab_G(c_X) fixes it, so the weight stays |X|; at
    one factor the word is p, which G fixes.  The report's ``size`` and
    ``max_fiber`` both count the whole fiber: the enumeration is complete
    exactly when the whole fiber has at most ``max_fiber`` words.
    """
    d = spec.degree
    kernel = kernel_of(d)
    counts = dict(spec.type_vector.counts)
    per_class = {ct: kernel.encode_word(class_elements(d, ct)) for ct in counts}
    in_class = {ct: frozenset(members) for ct, members in per_class.items()}
    refl = {ct: class_reflection_length(ct) for ct in counts}
    order = sorted(counts)  # fixed class iteration order
    target = spec.product
    total = spec.type_vector.total()
    if sub_fiber:  # each c_X -> |X|, and each c_X to its c_Y -> |Y|
        _, _, back, second = _conjugating_group(d, target, tuple(order), total > 2)
        orbit_sizes = Counter(kernel.conjugate[h][x] for x, h in back.items())
        pair_sizes = Memo(lambda c: Counter(kernel.conjugate[h][y] for y, h in second[c][0].items()))

    # Word-independent emptiness check: total parity must match the product.
    budget = sum(refl[ct] * n for ct, n in counts.items())
    if budget % 2 != target.parity():
        return FiberReport([], kernel, 0, True)

    words: list[Coded] = []
    size = 0  # fiber words counted so far
    weight = 1  # fiber words each kept word stands for
    prefix: list[int] = []
    mul, inverse, reflection = kernel.mul, kernel.inverse, kernel.reflection
    unconstrained = spec.constraint == "none"
    verdicts = _verdicts(d, spec.constraint)  # keyed by the set of factor codes
    if len(verdicts) > VERDICTS_KEPT:
        verdicts.clear()
    limit_hit: list[str] = []

    def least(ct: CycleType, sizes: Counter, scale: int) -> Iterator[int]:
        # the least members of class ct, each setting the weight scale * its orbit's size
        nonlocal weight
        for c in filter(sizes.__contains__, per_class[ct]):
            weight = scale * sizes[c]
            yield c

    def rec(r: int, remaining: int, budget_left: int) -> None:
        # r is target^-1 prefix; the prefix is admissible (pruned before the call), two factors or more are left.
        nonlocal size
        row = mul[r]
        for ct in order:
            if counts[ct] == 0:
                continue
            counts[ct] -= 1
            child_budget = budget_left - refl[ct]
            if sub_fiber and remaining == total:  # c_X, weight |X|
                members = least(ct, orbit_sizes, 1)
            elif sub_fiber and remaining == total - 1:  # c_Y, weight |X| |Y|, at three factors or more
                members = least(ct, pair_sizes[prefix[0]], orbit_sizes[prefix[0]])
            else:
                members = per_class[ct]
            if remaining == 2:
                # The last factor (prefix g)^-1 target is r'^-1 for r' = row[g], in the class left
                # when r' is (classes are closed under inversion), and its reflection length is the budget.
                rest = in_class[next(c for c in order if counts[c])]
                for g in members:
                    r_last = row[g]
                    if r_last not in rest:
                        continue
                    word = (*prefix, g, inverse[r_last])
                    if unconstrained or verdicts[frozenset(word)]:
                        if size + weight > limits.max_fiber:
                            limit_hit.append(f"max_fiber={limits.max_fiber}")
                            break
                        size += weight
                        words.append(word)
            else:
                for g in members:
                    child = row[g]
                    if reflection[child] > child_budget:
                        continue
                    prefix.append(g)
                    rec(child, remaining - 1, child_budget)
                    prefix.pop()
                    if limit_hit:
                        break
            counts[ct] += 1
            if limit_hit:
                break

    goal = kernel.encode(target)
    if total < 2:  # the word is () or (p,); max_fiber >= 1 holds it
        word = (goal,) * total
        if (goal in in_class[order[0]] if total else goal == kernel.identity) and (
                unconstrained or verdicts[frozenset(word)]):
            words, size = [word], 1
    elif reflection[goal] <= budget:  # the parity was checked above
        rec(inverse[goal], total, budget)
    # rec refers to itself through its closure, a cycle that only the cyclic
    # collector frees, and it holds the word list: break it, so the words go
    # with the report and not at some later full collection.
    del rec
    if limit_hit:
        return FiberReport(words, kernel, size, False, limit_hit[0])
    return FiberReport(words, kernel, size, True)


#: Kept for later counts: the 64 conjugating groups used last, and 2^14
#: verdicts per degree and constraint; every other fiber table is the kernel's.
TABLES_KEPT = 64
VERDICTS_KEPT = 1 << 14


@functools.cache
def _verdicts(d: int, constraint: str) -> Memo:
    """Whether a frozenset of factor codes of degree d meets ``constraint``."""
    kernel = kernel_of(d)
    test = is_transitive if constraint == "transitive" else generates_symmetric_group
    return Memo(lambda factors: test(d, kernel.decode_word(tuple(factors))))


def _conjugation_orbits(kernel: MoveKernel, gens: Iterable[int], members: Iterable[int]) -> tuple[dict, dict]:
    """The orbits through the codes ``members`` of the group generated by the
    codes ``gens``, acting by conjugation: each x reached maps to an h_x with
    h_x x h_x^-1 = c_X, and each c_X to generators of its stabiliser.

    Each member not yet reached is the c_X of its orbit X, its least member
    when the sorted members are a union of orbits.  A breadth-first walk
    from c_X gives each new y = z v z^-1 the t_y = z t_v, so h_y = t_y^-1;
    every other edge gives a Schreier generator t_y^-1 z t_v (Seress, 2003,
    ch. 4), kept only when it grows the :class:`~hurwitz.perms.Chain` of
    those kept.  The elements are codes, multiplied and inverted by tables.
    """
    identity, rows, mul, inverse = kernel.identity, kernel.conjugate, kernel.mul, kernel.inverse
    back, stabilisers = {}, {}
    for c in members:
        if c not in back:
            t, queue, chain, kept = {c: identity}, [c], Chain(kernel.degree), []
            for v in queue:  # grows while it is walked
                for z in gens:
                    y, zt = rows[z][v], mul[z][t[v]]
                    if y not in t:
                        t[y] = zt
                        queue.append(y)
                    elif chain.add(kernel.decode(s := mul[inverse[t[y]]][zt])):
                        kept.append(s)
            back.update((y, inverse[ty]) for y, ty in t.items())
            stabilisers[c] = tuple(kept)
    return back, stabilisers


@functools.lru_cache(maxsize=TABLES_KEPT)
def _conjugating_group(d: int, product: Perm, classes: tuple[CycleType, ...],
                       deep: bool) -> tuple[int, tuple[int, ...], dict, Memo]:
    """G = Z(p), the centraliser of the product p of the fibers of degree d
    with the classes ``classes``: its order d! / |p's class|, its generators
    (:func:`~hurwitz.perms.centraliser_generators`), the x -> h_x of its
    :func:`_conjugation_orbits` on those classes, and the second level,
    filled per c_X: the orbits of Stab_G(c_X) on the same classes, y -> h'_y
    with h'_y y h'_y^-1 = c_Y, and each c_Y -> generators of
    Stab_G(c_X, c_Y).  Without ``deep`` a word has at most two factors, which
    force the second, c_X^-1 p, and Stab_G(c_X) fixes it, so there the level
    is read off without a walk.  Kept for the fibers that follow, like the kernel."""
    kernel = kernel_of(d)
    gens = kernel.encode_word(centraliser_generators(product))
    members = sorted(kernel.encode(x) for ct in classes for x in class_elements(d, ct))
    back, stabilisers = _conjugation_orbits(kernel, gens, members)

    def second(c: int) -> tuple[dict, dict]:
        if deep:
            return _conjugation_orbits(kernel, stabilisers[c], members)
        y = kernel.mul[kernel.inverse[c]][kernel.encode(product)]
        return {y: kernel.identity}, {y: stabilisers[c]}

    return math.factorial(d) // class_size(d, product.cycle_type()), gens, back, Memo(second)


#: The edges from one word of a labelled search: its images, and for each the
#: ``kernel.mul`` row of the f that conjugated it, mapping a's code to f a's.
Edges = Callable[[Coded], tuple[Iterable[Coded], tuple[Memo, ...]]]


def _sub_fiber_edges(kernel: MoveKernel, back: dict[int, int], second: Memo) -> Edges:
    """The edges of :func:`_sub_fiber_classes` on the sub-fiber F_0 of G:
    ``back`` maps each x to h_x, and ``second`` each c_X to its second
    level, y -> h'_y and c_Y -> generators of Stab_G(c_X, c_Y)
    (:func:`_conjugating_group`); for words of at least two factors."""
    rows, mul = kernel.conjugate, kernel.mul

    def pi(x: int, y: int) -> int:  # h = h'_y' h_x, taking (x, y) to (c_X, c_Y)
        h = back[x]
        return mul[second[rows[h][x]][0][rows[h][y]]][h]

    def step_of(triple: Coded) -> tuple:
        # What the images of (c, g, w_3, ...) need.  Both braid images start
        # with x = c g c^-1; R_1's image goes on with c, D's with c w_3 c^-1
        # (with c at two factors).  pi conjugates R_1's image by h_R, so it
        # becomes (h_R x h_R^-1, h_R c h_R^-1) followed by the rest conjugated
        # by h_R, and D's image by h_D, so it becomes (g, w_3, ...) conjugated
        # by h_D c, then h_D c h_D^-1.
        c, g = triple[:2]
        x = rows[c][g]
        h_r = pi(x, c)
        h_d = pi(x, rows[c][triple[2]]) if len(triple) > 2 else h_r
        z = second[c][1][g]
        return ((rows[h_r][x], rows[h_r][c]), rows[h_r], rows[mul[h_d][c]], (rows[h_d][c],),
                [rows[f] for f in z], (mul[h_r], mul[h_d], *(mul[f] for f in z)))

    steps = Memo(step_of)  # keyed by a word's first three factors

    def edges(w: Coded) -> tuple[list[Coded], tuple[Memo, ...]]:
        head, row_r, row_dc, tail, z_rows, factors = steps[w[:3]]
        out = [head + tuple(map(row_r.__getitem__, w[2:])),
               tuple(map(row_dc.__getitem__, w[1:])) + tail]
        out += [tuple(map(r.__getitem__, w)) for r in z_rows]
        return out, factors

    return edges


def _sub_fiber_classes(coded: list[Coded], edges: Edges, identity: int
                       ) -> tuple[list[int], list[tuple[list[int], set[tuple[int, int]]]]]:
    """The classes Q of B_n x G on G's sub-fiber ``coded``, by one labelled
    search: each word's label (a code; ``identity`` is 1's), and each class
    as its indices into ``coded`` and its Schreier pairs (b, f a), whose
    b^-1 f a generate H_Q.

    G, acting by conjugation, is Z(p), the centraliser of the fiber's
    product p (:func:`count_orbits_in_fiber`).  Its sub-fiber F_0 holds the
    words whose first pair is the least pair (c_X, c_Y) of its orbit P under
    G: ``enumerate_fiber(sub_fiber=True)``.  Let pi conjugate a word whose
    first pair (x, y) lies in P by a fixed h in G with
    h (x, y) h^-1 = (c_X, c_Y), namely h = h'_y' h_x: h_x in G takes x to
    c_X, and h'_y' in Stab_G(c_X) takes y' = h_x y h_x^-1 to c_Y.  The edges
    from a word w of F_0 are pi(R_1 w) and pi(D w), each by its own h, and
    w conjugated by each generator z of the stabiliser Stab_G(c_X, c_Y), by
    z: those of :func:`_sub_fiber_edges`.  The classes are exact:

    * every class meets F_0, since pi maps each word into F_0;
    * every edge stays in its class, since the moves commute with
      conjugation;
    * the search reaches forward from u every v of F_0 in u's class.  Write
      v = g b(u), with b a positive word in R_1 and D and g in G, and
      follow b's letters through pi: the walk ends at g' b(u) for some g' in
      G, a word of F_0 that conjugation by g g'^-1 maps to v.  That
      conjugation maps the least pair of P to itself, so it lies in
      Stab_G(c_X, c_Y) and is a positive word in the generators.

    So each word not yet reached starts a new class, whose search never
    meets a word of an earlier class.  An image outside F_0 is a fault.

    G commutes with the braids, so Q splits into [G : H_Q] braid orbits,
    where H_Q is the stabiliser of one braid orbit O in Q.  The search
    labels each word it reaches with an a in G such that the word lies in
    a O: the class's first word u_0 gets the identity, and an edge by f
    takes the label a to f a.  When an edge by f from a word labelled a
    reaches a word already labelled b, the pair (b, f a) is kept, and
    b^-1 f a lies in H_Q, because two labels of one word name one orbit.
    These elements generate H_Q (Schreier's lemma; Seress, *Permutation
    Group Algorithms*, 2003, ch. 4).  Every edge gives f a in b K, for the
    group K they generate, so a walk from u_0 to a word labelled b whose
    edges multiply to M has M in b K.  Take g in H_Q, so that
    g u_0 = beta(u_0) for a positive word beta in R_1 and D.  Follow beta's
    letters from u_0 along braid edges: the walk ends at a word v = M g u_0
    of F_0 with M in b K.  Both v and u_0 start with (c_X, c_Y), so M g lies
    in Stab_G(c_X, c_Y), and the stabiliser edges walk from v back to u_0 by
    (M g)^-1.
    The whole walk multiplies to g^-1 and ends at u_0, labelled 1, so g^-1
    is in K.

    The braid orbits of Q are the c O, one for each left coset c H_Q.  A
    word g u of Q, with g in G and u in F_0 labelled a, lies in g a O.  So
    the words of c O starting with (x, y) are the h^-1 u for the u of F_0
    in Q that start with (c_X, c_Y) and have h^-1 a in c H_Q, and the least
    word of c O is the least of them, over every y, for the least x that
    has one.
    """
    index = {w: i for i, w in enumerate(coded)}.get
    labels = [-1] * len(coded)  # kernel codes are never negative
    classes = []
    for i in range(len(coded)):
        if labels[i] >= 0:
            continue
        labels[i] = identity
        members = [i]
        schreier = set()
        for j in members:  # grows while it is walked
            a = labels[j]
            images, factors = edges(coded[j])
            for v, f in zip(images, factors):
                k = index(v)
                if k is None:
                    raise RuntimeError("moves must stay inside the fiber")
                label = f[a]
                b = labels[k]
                if b < 0:
                    labels[k] = label
                    members.append(k)
                elif b != label:
                    schreier.add((b, label))
        classes.append((members, schreier))
    return labels, classes


def _cosets(kernel: MoveKernel, stabiliser: Chain) -> Callable[[int], int]:
    """The number of the left coset g H of each code g, for H given by its
    chain: cosets are numbered as met, each kept as its first element r, and
    g lies in the first r H with r^-1 g in H (one strip per code)."""
    inside = Memo(lambda code: kernel.decode(code) in stabiliser)
    firsts: list[Memo] = []  # the kernel.mul row of r^-1 for each coset

    def number(g: int) -> int:
        for k, row in enumerate(firsts):
            if inside[row[g]]:
                return k
        firsts.append(kernel.mul[kernel.inverse[g]])
        return len(firsts) - 1

    return Memo(number).__getitem__


def _least_words(kernel: MoveKernel, coded: list[Coded], members: list[int], labels: list[int],
                 back: dict[int, int], second: Memo, coset: Callable[[int], int], index: int) -> list[Coded]:
    """The least word of each of the ``index`` braid orbits of one class of
    G on F_0 (proof in :func:`_sub_fiber_classes`): walk x in code order,
    and give each coset first reached the least of its h^-1 u, over the
    pairs (x, y), for h = h'_y' h_x."""
    rows, mul, inverse = kernel.conjugate, kernel.mul, kernel.inverse
    starting: dict[Coded, list[int]] = {}  # (c_X, c_Y) -> the members starting with it
    for i in members:
        starting.setdefault(coded[i][:2], []).append(i)
    firsts = {pair[0] for pair in starting}
    least: dict[int, Coded] = {}
    for x in sorted(back):
        h = back[x]
        c = rows[h][x]
        reached: dict[int, Coded] = {}
        for y, h_y in second[c][0].items() if c in firsts else ():
            for i in starting.get((c, rows[h_y][y]), ()):
                h_inv = inverse[mul[h_y][h]]
                k = coset(mul[h_inv][labels[i]])
                if k not in least:
                    w = tuple(map(rows[h_inv].__getitem__, coded[i]))
                    reached[k] = min(reached.get(k, w), w)
        least.update(reached)
        if len(least) == index:
            break
    return list(least.values())


@dataclass
class FiberOrbitReport:
    """The move orbits of one fiber.  ``fiber_size`` and ``orbit_count`` are
    None when ``max_fiber`` cut the enumeration (``complete`` is false): the
    words found by then do not give the fiber's size."""

    fiber_size: int | None
    orbit_count: int | None
    representatives: list[Factorization]
    complete: bool
    limit_hit: str | None = None
    partition: list[frozenset[State]] | None = None


def count_orbits_in_fiber(spec: FiberSpec, limits: SearchLimits = DEFAULT_LIMITS,
                          want_partition: bool = False) -> FiberOrbitReport:
    """The size of the fiber and the number of its orbits, with the least
    word of each, and with ``want_partition`` the orbits themselves: braid
    orbits, or classes of B_n x S_d under the conjugation quotient.
    ``max_fiber`` caps the whole fiber.

    G (:func:`_sub_fiber_classes`) is Z(p), the centraliser of the product
    p, so S_d for a central one.  A class of words with fewer than two
    factors is one orbit: no braid moves them, and G fixes them.  A class Q
    is one orbit under the quotient (H_Q = G), whose least word is in F_0,
    and else [G : H_Q], by H_Q's chain; only ``want_partition`` lists G.
    """
    d, n = spec.degree, spec.type_vector.total()
    fr = enumerate_fiber(spec, limits, sub_fiber=True)
    coded, kernel = fr.coded, fr.kernel
    if not fr.complete:
        return FiberOrbitReport(None, None, [], False, fr.limit_hit)

    mul, rows, inverse = kernel.mul, kernel.conjugate, kernel.inverse
    order, gens, back, second = _conjugating_group(d, spec.product, tuple(spec.type_vector.as_dict()), n > 2)
    edges = _sub_fiber_edges(kernel, back, second) if n > 1 else lambda w: ((), ())
    labels, classes = _sub_fiber_classes(coded, edges, kernel.identity)

    group = kernel.encode_word(closure(d, kernel.decode_word(gens))) if want_partition else ()
    count, least, blocks = 0, [], []
    for members, schreier in classes:
        if spec.conjugation_quotient or n < 2:
            index, coset = 1, lambda g: 0
        else:
            stabiliser = Chain(d, [kernel.decode(mul[inverse[b]][fa]) for b, fa in schreier])
            index, coset = order // stabiliser.order(), _cosets(kernel, stabiliser)
        count += index
        if index == 1:
            least.append(min(map(coded.__getitem__, members)))
        else:
            least += _least_words(kernel, coded, members, labels, back, second, coset, index)
        if want_partition:  # g u, for u labelled a, lies in the orbit of g a's coset
            parts = [set() for _ in range(index)]
            for i in members:
                for g in group:
                    parts[coset(mul[g][labels[i]])].add(tuple(map(rows[g].__getitem__, coded[i])))
            blocks += parts
    return FiberOrbitReport(
        fiber_size=fr.size,
        orbit_count=count,
        representatives=[Factorization.from_state(d, kernel.decode_word(w)) for w in sorted(least)],
        complete=True,
        partition=[frozenset(map(kernel.decode_word, part)) for part in sorted(blocks, key=min)]
        if want_partition else None,
    )


def orbit_partition_by_sweeps(words: list[State], degree: int,
                              limits: SearchLimits = DEFAULT_LIMITS,
                              conjugation_quotient: bool = False) -> list[frozenset[State]] | None:
    """Partition a fiber by repeated full orbit enumerations.

    A second algorithm for the same partition as :func:`count_orbits_in_fiber`,
    used to cross-check it.  It is independent of the labelling search, the
    first-pair sub-fiber and the conjugation back to a least first pair,
    but not of the moves: both follow :func:`orbit_images`.  The references
    that share no code with this module are ``tests/oracle.py`` and the
    union-find over every R position in ``tests/test_fiber_engine.py``.
    Returns None if any orbit enumeration hits the state limit; an orbit
    that leaves ``words`` is a fault.
    """
    kernel = kernel_of(degree)
    coded = [kernel.encode_word(w) for w in words]
    fiber = set(coded)
    remaining = set(coded)
    out: list[frozenset[State]] = []
    for c in coded:  # fixed order for determinism
        if c not in remaining:
            continue
        visited, complete = _orbit_states(kernel, c, limits.max_states, conjugation_quotient)
        if not complete:
            return None
        if not visited <= fiber:
            raise RuntimeError("orbit escaped the fiber")
        out.append(frozenset(map(kernel.decode_word, visited)))
        remaining -= visited
    return sorted(out, key=min)


@dataclass
class ScanRow:
    n: int
    fiber_size: int | None
    orbit_count: int | None
    complete: bool
    limit_hit: str | None = None


def count_orbits(spec: FiberSpec, limits: SearchLimits = DEFAULT_LIMITS) -> ScanRow:
    """The ``fiber_size`` and ``orbit_count`` of :func:`count_orbits_in_fiber`
    as the row of ``components``, :func:`stable_length_scan` and the theorem
    report."""
    r = count_orbits_in_fiber(spec, limits)
    return ScanRow(spec.type_vector.total(), r.fiber_size, r.orbit_count, r.complete, r.limit_hit)


def stable_length_scan(degree: int, cycle_type, product: Perm,
                       n_from: int, n_to: int,
                       limits: SearchLimits = DEFAULT_LIMITS) -> list[ScanRow]:
    """Orbit counts (:func:`count_orbits`) of the full-group fiber with n
    class factors, for each n in the range.  The least n from which every
    nonempty fiber is a single orbit witnesses a lower bound for the
    stability threshold.
    """
    ct = validate_cycle_type(cycle_type, degree)
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= from <= to")
    return [count_orbits(FiberSpec(degree, TypeVector.single(ct, n), product, "full_group"), limits)
            for n in range(n_from, n_to + 1)]
