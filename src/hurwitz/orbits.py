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
factor off its inverse, so only Z(p)'s tables below depend on the product,
and they depend on nothing else: one set per product serves every type.

Every fiber takes one labelled search (:func:`_sub_fiber_classes`) on the
sub-fiber of G = Z(p), the centraliser of its product p: the least word of
each G-orbit, found one factor at a time, each the least of its orbit under
the stabiliser in G of those before it until that stabiliser is trivial
(orderly generation, on the levels of :func:`_conjugating_group`, whose
orbits are walked on demand, each from its least member).  Each class
splits into braid orbits, the cosets of the stabiliser its Schreier labels
generate, which give the counts, least words and partitions
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


def orbit_images(kernel: MoveKernel,
                 conjugation_quotient: bool = False) -> Callable[[Coded], Iterable[Coded]]:
    """The images of a coded word under two braid generators, read off the
    row of its first factor in ``kernel.conjugate`` (none below two factors),

        R_1:  (g_1, g_2, ..., g_n) -> (g_1 g_2 g_1^-1, g_1, g_3, ..., g_n),
        D:    (g_1, ..., g_n) -> (g_1 g_2 g_1^-1, ..., g_1 g_n g_1^-1, g_1),

    then, under the conjugation quotient, its conjugates by the generators
    of S_d = Z(1) (:func:`~hurwitz.perms.centraliser_generators`).  The
    words reached forward along these images are the whole orbit of the
    braid group (times S_d under the quotient).  The R moves generate the
    braid action (L undoes R), and R_1 and D generate the same group: D
    applied k times, then R_1, then D^-1 k times is R at position k + 1
    (for n = 2, D is R_1).  Each image map is a bijection of the finite set
    of words of one length and type, so a power of each is its inverse.
    """
    rows = kernel.conjugate
    conj = kernel.encode_word(centraliser_generators(Perm.identity(kernel.degree))) if conjugation_quotient else ()
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
    """The words of a fiber, or of its sub-fiber, kept coded by the kernel
    that enumerated them.

    ``size`` counts the words of the whole fiber that were found, also when
    only the sub-fiber is kept: there it is the sum over the kept words of
    the sizes of their orbits under G.
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
    no call is made per word.  The constraints are monotone, since a factor
    more only grows the group, so that loop asks for a word's verdict only
    when its prefix's does not settle it.  Those tables depend only on the
    degree, and the process keeps the verdicts, per factor set, too, so every
    fiber reads what earlier fibers filled.  Class elements are tried in
    sorted order, so the words come out in the same order as a backtracking
    over ``Perm`` values would give them.

    With ``sub_fiber``, only the least word of each orbit of G = Z(p), the
    centraliser of the product p (:func:`_conjugating_group`), is kept: a
    factor is tried only when it is the least member c_X of its orbit X
    under the stabiliser in G of the factors before it, read off that
    stabiliser's level, and once the stabiliser is trivial every member is
    tried; the last factor is forced, and the stabiliser of the others fixes
    it.  This is orderly generation (Read, 1978; McKay, 1998), and gives the
    sub-fiber of :func:`_sub_fiber_classes`.  G conjugates the fiber onto
    itself, and a kept word's orbit under G has the product of the |X| of
    its factors as its size, the word's weight.  Without ``sub_fiber`` the
    same rule runs under the trivial group, where every word is its own
    orbit.  The report's ``size`` and ``max_fiber`` both count the whole
    fiber: the enumeration is complete exactly when the whole fiber has at
    most ``max_fiber`` words.
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
    _, gens, levels = _conjugating_group(d, target)

    def least_of(stabiliser: tuple[int, ...]) -> dict[CycleType, list[tuple[int, tuple[int, ...], int]]]:
        # per class, the least member c_X of each orbit X of the group that
        # ``stabiliser`` generates, with the generators of Stab(c_X) and |X|;
        # asked in code order, each orbit is first asked, and walked, at c_X
        back, level = levels[stabiliser]
        return {ct: [(c, level[c][0], len(level[c][1])) for c in per_class[ct] if back[c] == kernel.identity]
                for ct in order}

    least = Memo(least_of)

    # Word-independent emptiness check: total parity must match the product.
    budget = sum(refl[ct] * n for ct, n in counts.items())
    if budget % 2 != target.parity():
        return FiberReport([], kernel, 0, True)

    words: list[Coded] = []
    size = 0  # fiber words counted so far
    prefix: list[int] = []
    mul, inverse, reflection = kernel.mul, kernel.inverse, kernel.reflection
    unconstrained = spec.constraint == "none"
    verdicts = _verdicts(d, spec.constraint)  # keyed by the set of factor codes
    if len(verdicts) > VERDICTS_KEPT:
        verdicts.clear()
    limit_hit: list[str] = []

    def rec(r: int, remaining: int, budget_left: int, stabiliser: tuple[int, ...], weight: int) -> None:
        # r is target^-1 prefix; the prefix is admissible (pruned before the call), two factors or more are left;
        # ``stabiliser`` generates the prefix's stabiliser in G, and ``weight`` is the size of the prefix's orbit.
        nonlocal size
        row = mul[r]
        tried = least[stabiliser]
        settled = remaining == 2 and (unconstrained or verdicts[frozenset(prefix)])
        for ct in order:
            if counts[ct] == 0:
                continue
            counts[ct] -= 1
            child_budget = budget_left - refl[ct]
            if remaining == 2:
                # The last factor (prefix g)^-1 target is r'^-1 for r' = row[g], in the class left
                # when r' is (classes are closed under inversion), and its reflection length is the budget.
                rest = in_class[next(c for c in order if counts[c])]
                for g, _, k in tried[ct]:
                    r_last = row[g]
                    if r_last not in rest:
                        continue
                    word = (*prefix, g, inverse[r_last])
                    if settled or verdicts[frozenset(word)]:
                        if size + weight * k > limits.max_fiber:
                            limit_hit.append(f"max_fiber={limits.max_fiber}")
                            break
                        size += weight * k
                        words.append(word)
            else:
                for g, child_stabiliser, k in tried[ct]:
                    child = row[g]
                    if reflection[child] > child_budget:
                        continue
                    prefix.append(g)
                    rec(child, remaining - 1, child_budget, child_stabiliser, weight * k)
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
        rec(inverse[goal], total, budget, gens if sub_fiber else (), 1)
    # rec refers to itself through its closure, a cycle that only the cyclic
    # collector frees, and it holds the word list: break it, so the words go
    # with the report and not at some later full collection.
    del rec
    if limit_hit:
        return FiberReport(words, kernel, size, False, limit_hit[0])
    return FiberReport(words, kernel, size, True)


#: Kept for later counts: the conjugating groups of the 64 products used
#: last, each shared by every type and constraint, and 2^14 verdicts per
#: degree and constraint; every other fiber table is the kernel's.
TABLES_KEPT = 64
VERDICTS_KEPT = 1 << 14


@functools.cache
def _verdicts(d: int, constraint: str) -> Memo:
    """Whether a frozenset of factor codes of degree d meets ``constraint``."""
    kernel = kernel_of(d)
    test = is_transitive if constraint == "transitive" else generates_symmetric_group
    return Memo(lambda factors: test(d, kernel.decode_word(tuple(factors))))


def _conjugation_orbits(kernel: MoveKernel, gens: tuple[int, ...]) -> tuple[Memo, dict]:
    """The orbits of the group generated by the codes ``gens``, acting by
    conjugation, each walked the first time one of its members is asked for:
    ``back`` maps each member x of an orbit X walked to an h_x with
    h_x x h_x^-1 = c_X, the least member of X, and ``stabilisers`` maps each
    c_X walked to generators of its stabiliser and the members of X.

    A breadth-first walk from c gives each new y = z v z^-1 the t_y = z t_v,
    so h_y = t_y^-1; every other edge gives a Schreier generator
    t_y^-1 z t_v (Seress, 2003, ch. 4), kept only when it grows the
    :class:`~hurwitz.perms.Chain` of those kept.  A miss at x walks from x,
    and again from c_X when that is not x, so the tables hold the walks from
    each c_X, whichever member and whichever caller asked first; h_x is the
    identity exactly when x is c_X.  The elements are codes, multiplied and
    inverted by tables.
    """
    identity, rows, mul, inverse = kernel.identity, kernel.conjugate, kernel.mul, kernel.inverse
    stabilisers: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def walk(c: int) -> tuple[dict[int, int], list[int]]:
        t, queue, chain, kept = {c: identity}, [c], Chain(kernel.degree), []
        for v in queue:  # grows while it is walked
            for z in gens:
                y, zt = rows[z][v], mul[z][t[v]]
                if y not in t:
                    t[y] = zt
                    queue.append(y)
                elif chain.add(kernel.decode(s := mul[inverse[t[y]]][zt])):
                    kept.append(s)
        return t, kept

    def orbit_of(x: int) -> int:
        t, kept = walk(x)
        if (c := min(t)) != x:
            t, kept = walk(c)
        back.update((y, inverse[ty]) for y, ty in t.items())
        stabilisers[c] = tuple(kept), tuple(t)
        return back[x]

    back = Memo(orbit_of)
    return back, stabilisers


@functools.lru_cache(maxsize=TABLES_KEPT)
def _conjugating_group(d: int, product: Perm) -> tuple[int, tuple[int, ...], Memo]:
    """G = Z(p), the centraliser of the product p of the fibers of degree d:
    its order d! / |p's class|, its generators
    (:func:`~hurwitz.perms.centraliser_generators`), and its levels, which
    map the generators of each subgroup of G that a search meets, a
    stabiliser, to its :func:`_conjugation_orbits`.  The empty tuple is the
    trivial group, whose orbits are single members.  No table depends on a
    type, so every fiber of the product, of any type and constraint, reads
    the orbits that earlier fibers walked; kept for the fibers that follow,
    like the kernel."""
    kernel = kernel_of(d)
    levels = Memo(lambda gens: _conjugation_orbits(kernel, gens))
    order = math.factorial(d) // class_size(d, product.cycle_type())
    return order, kernel.encode_word(centraliser_generators(product)), levels


#: The edges from one word of a labelled search: its images, and for each the
#: ``kernel.mul`` row of the f that conjugated it, mapping a's code to f a's.
Edges = Callable[[Coded], tuple[Iterable[Coded], tuple[Memo, ...]]]


def _sub_fiber_edges(kernel: MoveKernel, gens: tuple[int, ...], levels: Memo) -> Edges:
    """The edges of :func:`_sub_fiber_classes` on the sub-fiber F_0 of G,
    the group that ``gens`` generate, with its ``levels``
    (:func:`_conjugating_group`); for words of at least two factors."""
    rows, mul, identity = kernel.conjugate, kernel.mul, kernel.identity

    def walk(h: int, stabiliser: tuple[int, ...], factors: Iterable[int]) -> tuple[int, tuple[int, ...]]:
        # h, then for each factor f in turn, while the stabiliser in G of those
        # before is not trivial, the h_x of x = h f h^-1 on its level times h;
        # and the generators of the stabiliser left
        for f in factors:
            if not stabiliser:
                break
            back, orbits = levels[stabiliser]
            x = rows[h][f]
            h_x = back[x]
            h = mul[h_x][h]
            stabiliser = orbits[rows[h_x][x]][0]
        return h, stabiliser

    def step_of(triple: Coded) -> tuple:
        # What the edges of (c, g, w_3, ...) need from its first factors, up
        # to two but the forced last.  Both braid images start with
        # x = c g c^-1; R_1's goes on with c, D's with c w_3 c^-1 (with c at
        # two factors).  pi conjugates R_1's image by h_R and D's by h_D.
        c, g = triple[:2]
        x, k = rows[c][g], len(triple) - 1
        h_r, stabiliser_r = walk(identity, gens, (x, c)[:k])
        h_d, stabiliser_d = walk(identity, gens, (x, rows[c][triple[-1]])[:k])
        return x, h_r, stabiliser_r, h_d, stabiliser_d, walk(identity, gens, triple[:k])[1]

    steps = Memo(step_of)  # keyed by a word's first three factors

    def edges(w: Coded) -> tuple[list[Coded], tuple[Memo, ...]]:
        # The rest of the walks goes on past the first three factors only
        # while a stabiliser is not trivial.  R_1's image goes on with
        # w_3, ..., w_n, and D's with c w_4 c^-1, ..., c w_n c^-1, then c;
        # the last factor is forced and is not walked.
        c = w[0]
        x, h_r, stabiliser_r, h_d, stabiliser_d, stabiliser = steps[w[:3]]
        if stabiliser_r:
            h_r = walk(h_r, stabiliser_r, w[2:-1])[0]
        if stabiliser_d:
            h_d = walk(h_d, stabiliser_d, map(rows[c].__getitem__, w[3:]))[0]
        if stabiliser:
            stabiliser = walk(identity, stabiliser, w[2:-1])[1]
        row_r, row_dc = rows[h_r], rows[mul[h_d][c]]
        out = [(row_r[x], row_r[c], *map(row_r.__getitem__, w[2:])),
               (*map(row_dc.__getitem__, w[1:]), rows[h_d][c]), *[w] * len(stabiliser)]
        return out, (mul[h_r], mul[h_d], *map(mul.__getitem__, stabiliser))

    return edges


def _sub_fiber_classes(coded: list[Coded], edges: Edges, identity: int
                       ) -> tuple[list[int], list[tuple[list[int], set[tuple[int, int]]]]]:
    """The classes Q of B_n x G on G's sub-fiber ``coded``, by one labelled
    search: each word's label (a code; ``identity`` is 1's), and each class
    as its indices into ``coded`` and its Schreier pairs (b, f a), whose
    b^-1 f a generate H_Q.

    G, acting by conjugation, is Z(p), the centraliser of the fiber's
    product p (:func:`count_orbits_in_fiber`).  Its sub-fiber F_0 holds the
    least word of each G-orbit of the fiber: ``enumerate_fiber(sub_fiber=True)``.
    So F_0 is a transversal of the G-orbits, and two words of F_0 in one
    G-orbit are equal.  Let pi conjugate a word by the h in G that
    :func:`_sub_fiber_edges` reads off the levels of
    :func:`_conjugating_group`: h_x takes the first factor x to the least
    member c_X of its orbit under G, then the h_y of the second factor so
    conjugated, in Stab_G(c_X), takes it to the least member of its orbit
    there, and so on until the stabiliser is trivial, so pi maps every word
    to the least word of its G-orbit.  The edges from a word u of F_0 are
    pi(R_1 u) and pi(D u), each by its own h, and one edge from u to itself
    by each generator z of Stab_G(u).  The classes are exact:

    * every class meets F_0, since pi maps each word into F_0;
    * every edge stays in its class, since the moves commute with
      conjugation;
    * the search reaches forward from u every v of F_0 in u's class.  Write
      v = g b(u), with b a positive word in R_1 and D and g in G, and
      follow b's letters through pi: the walk ends at g' b(u) for some g' in
      G, a word of F_0 in v's G-orbit, so v itself.

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
    letters from u_0 along braid edges: the walk ends at the word M g u_0
    of F_0, in u_0's G-orbit, so at u_0, labelled 1, and M lies in K.  Then
    M g lies in Stab_G(u_0), which the edges from u_0 to itself put in K,
    so g is in K.  The stabiliser edges serve only these labels: the
    classes come from the braid edges alone.

    The braid orbits of Q are the c O, one for each left coset c H_Q.  A
    word g u of Q, with g in G and u in F_0 labelled a, lies in g a O.  So
    the words of c O starting with x are the g u for the u of F_0 in Q
    that start with c_X and the g in h_x^-1 Stab_G(c_X) with g a in c H_Q,
    one per coset g Stab_G(u), and the least word of c O is the least of
    them for the least x that has one.
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


def _least_words(kernel: MoveKernel, coded: list[Coded], members: list[int], labels: list[int],
                 gens: tuple[int, ...], levels: Memo, coset: Callable[[int], Perm], index: int) -> list[Coded]:
    """The least word of each of the ``index`` braid orbits of one class of
    G on F_0 (proof in :func:`_sub_fiber_classes`): walk in code order the
    members x of the orbits X whose c_X starts a word of the class, and give
    each coset first reached the least of the words h_x^-1 s u of the class,
    for the u starting with c_X and the s of a transversal of Stab_G(u) in
    Stab_G(c_X), the products of one h_y^-1 per level below the first, read
    off the levels."""
    rows, mul, inverse = kernel.conjugate, kernel.mul, kernel.inverse
    back, orbits = levels[gens]
    starting: dict[int, list[tuple[int, list[int]]]] = {}  # c_X -> its members, each with its transversal
    for i in members:
        u = coded[i]
        stabiliser, transversal = orbits[u[0]][0], [kernel.identity]
        for f in u[1:-1]:  # each factor of F_0 is the least member c_Y of its orbit Y on its level
            if not stabiliser:
                break
            level_back, level = levels[stabiliser]
            transversal = [mul[s][inverse[level_back[y]]] for s in transversal for y in level[f][1]]
            stabiliser = level[f][0]
        starting.setdefault(u[0], []).append((i, transversal))
    least: dict[Perm, Coded] = {}
    for x, c in sorted((x, c) for c in starting for x in orbits[c][1]):
        h_inv = inverse[back[x]]
        reached: dict[Perm, Coded] = {}
        for i, transversal in starting[c]:
            for s in transversal:
                g = mul[h_inv][s]
                k = coset(mul[g][labels[i]])
                if k not in least:
                    w = tuple(map(rows[g].__getitem__, coded[i]))
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
    and else [G : H_Q], by H_Q's chain, each braid orbit named by the
    chain's least element of its coset; only ``want_partition`` lists G.
    """
    d, n = spec.degree, spec.type_vector.total()
    fr = enumerate_fiber(spec, limits, sub_fiber=True)
    coded, kernel = fr.coded, fr.kernel
    if not fr.complete:
        return FiberOrbitReport(None, None, [], False, fr.limit_hit)

    mul, rows, inverse = kernel.mul, kernel.conjugate, kernel.inverse
    order, gens, levels = _conjugating_group(d, spec.product)
    edges = _sub_fiber_edges(kernel, gens, levels) if n > 1 else lambda w: ((), ())
    labels, classes = _sub_fiber_classes(coded, edges, kernel.identity)

    group = kernel.encode_word(closure(d, kernel.decode_word(gens))) if want_partition else ()
    count, least, blocks = 0, [], []
    for members, schreier in classes:
        if spec.conjugation_quotient or n < 2:
            index, coset = 1, lambda g: None
        else:
            stabiliser = Chain(d, [kernel.decode(mul[inverse[b]][fa]) for b, fa in schreier])
            index = order // stabiliser.order()
            coset = Memo(lambda g: stabiliser.least_in_coset(kernel.decode(g))).__getitem__
        count += index
        if index == 1:
            least.append(min(map(coded.__getitem__, members)))
        else:
            least += _least_words(kernel, coded, members, labels, gens, levels, coset, index)
        if want_partition:  # g u, for u labelled a, lies in the orbit of g a's coset
            parts: dict[Perm | None, set[Coded]] = {}
            for i in members:
                for g in group:
                    parts.setdefault(coset(mul[g][labels[i]]), set()).add(tuple(map(rows[g].__getitem__, coded[i])))
            blocks += parts.values()
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
    sub-fiber and the conjugation back to a least word, but not of the
    moves: both follow :func:`orbit_images`.  The references
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
