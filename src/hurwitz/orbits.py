"""Orbit enumeration, equivalence certificates, and fiber counting.

Everything here is exhaustive and certified: an answer is only reported as
definite when the underlying search ran to completion within its limits, and
hitting a limit is a first-class outcome (``complete=False`` / ``"unknown"``),
never a silent truncation.

Every search runs on coded words: tuples of the integer factor codes of one
:class:`~hurwitz.words.MoveKernel`.  The orbit closure, the bidirectional
equivalence search and the stable-tail search in
:mod:`hurwitz.constructions` all run on :func:`expand`, the one breadth-first
traversal: it records each new word's parent word, and :func:`trace_moves`
reads the moves back off those records.  Fiber enumeration carries its
prefix products as codes through ``kernel.mul`` and looks the last factor
up from the product, and the fiber union-find joins each coded word to its
images under two braid generators, R_1 and the rotation, through
``kernel.conjugate``.
``Perm`` words appear only at the boundaries: coding the inputs, decoding
the results, and replaying certificates.  Coding keeps order, so the least
coded word of an orbit decodes to its least word, and a fiber's coded words
come out in the order of its ``Perm`` words.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .perms import (MAX_EXHAUSTIVE_DEGREE, Perm, class_elements, class_reflection_length, closure,
                    is_transitive, transpositions, validate_cycle_type)
from .words import (
    Coded,
    Factorization,
    Move,
    MoveKernel,
    State,
    TypeVector,
    product_of_state,
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


def neighbors(kernel: MoveKernel, state: Coded, conj: Coded = ()) -> list[Coded]:
    """The neighbours of a coded word, in a fixed order: R then L at each
    position, then conjugation by each code in ``conj``.

    A neighbour's index in the list is its move code; :func:`trace_moves`
    turns the codes of R and L back into :class:`Move` objects.
    """
    conjugate, left = kernel.conjugate, kernel.left
    out = []
    append = out.append
    for i in range(len(state) - 1):
        a = state[i]
        b = state[i + 1]
        head = state[:i]
        tail = state[i + 2:]
        append(head + (conjugate[a, b], a) + tail)
        append(head + (b, left[a, b]) + tail)
    for g in conj:
        append(tuple([conjugate[g, x] for x in state]))
    return out


#: A search tree: each reached word maps to its parent word, the root to None.
Parents = dict[Coded, Coded | None]


def expand(kernel: MoveKernel, frontier: list[Coded], parents: Parents,
           conj: Coded = ()) -> Iterator[Coded]:
    """The one breadth-first traversal: for each word of ``frontier``, in
    order, record each neighbour not yet in ``parents`` with that word as its
    parent, and yield it.

    The caller may append to ``frontier`` while this runs, so a search that
    feeds every yielded word back in walks its whole queue; the caller keeps
    its own stop rules and simply stops iterating.
    """
    for s in frontier:
        for ns in neighbors(kernel, s, conj):
            if ns not in parents:
                parents[ns] = s
                yield ns


def trace_moves(kernel: MoveKernel, parents: Parents, state: Coded) -> list[Move]:
    """The moves leading from the root of ``parents`` to ``state``.

    :func:`expand` records a word from the first neighbour of its parent that
    equals it, so that neighbour's index is the move that was taken.
    """
    codes: list[int] = []
    while (parent := parents[state]) is not None:
        codes.append(neighbors(kernel, parent).index(state))
        state = parent
    return [Move(code // 2 + 1, "RL"[code % 2]) for code in reversed(codes)]


@dataclass
class OrbitReport:
    start: Factorization
    size: int
    complete: bool
    canonical: Factorization | None
    states_explored: int
    limit_hit: str | None = None


def _orbit_states(kernel: MoveKernel, state0: Coded, max_states: int,
                  conj: Coded = ()) -> tuple[Parents, bool]:
    """Breadth-first closure of ``state0`` under the moves and conjugation
    by the codes in ``conj``.  Returns (visited, complete); an incomplete
    closure holds exactly ``max_states`` words."""
    visited: Parents = {state0: None}
    queue = [state0]
    for ns in expand(kernel, queue, visited, conj):
        if len(visited) > max_states:
            del visited[ns]
            return visited, False
        queue.append(ns)
    return visited, True


def enumerate_orbit(start: Factorization, limits: SearchLimits = DEFAULT_LIMITS,
                    conjugation_quotient: bool = False,
                    check_invariants: bool = False) -> OrbitReport:
    """Enumerate the move orbit of ``start`` (plus conjugation edges when
    ``conjugation_quotient``).

    When complete, ``canonical`` is the lexicographically least word of the
    orbit (factors compared in one-line notation, words left to right).
    """
    kernel = MoveKernel(start.degree)
    conj = kernel.encode_word(transpositions(start.degree)) if conjugation_quotient else ()
    visited, complete = _orbit_states(kernel, kernel.encode_word(start.factors),
                                      limits.max_states, conj)
    if check_invariants:
        _assert_orbit_invariants(start, [kernel.decode_word(s) for s in visited],
                                 conjugation_quotient)
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


def _assert_orbit_invariants(start: Factorization, states: list[State],
                             conjugation_quotient: bool) -> None:
    d = start.degree
    want_type = start.type_vector()
    want_len = len(start)
    want_product = start.product()
    want_group = start.generated_subgroup() if d <= MAX_EXHAUSTIVE_DEGREE else None
    for s in states:
        if len(s) != want_len:
            raise RuntimeError("orbit word changed length")
        if TypeVector.from_factors(s) != want_type:
            raise RuntimeError("orbit word changed type")
        if not conjugation_quotient:
            if product_of_state(s, d) != want_product:
                raise RuntimeError("orbit word changed product")
            if want_group is not None and closure(d, s) != want_group:
                raise RuntimeError("orbit word changed generated subgroup")


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

    Cheap invariants (length, product, type, generated subgroup) separate
    inequivalent words immediately; otherwise a bidirectional breadth-first
    search over the move graph looks for a meeting word.  "unknown" occurs
    only when the state limit is exhausted.
    """
    if s1.degree != s2.degree:
        return EquivalenceReport("no", None, 0, "degrees differ")
    if len(s1) != len(s2):
        return EquivalenceReport("no", None, 0, "lengths differ")
    if s1.product() != s2.product():
        return EquivalenceReport("no", None, 0, "products differ")
    if s1.type_vector() != s2.type_vector():
        return EquivalenceReport("no", None, 0, "types differ")
    if s1.degree <= MAX_EXHAUSTIVE_DEGREE and s1.generated_subgroup() != s2.generated_subgroup():
        return EquivalenceReport("no", None, 0, "generated subgroups differ")
    if s1.factors == s2.factors:
        return EquivalenceReport("yes", (), 0)

    kernel = MoveKernel(s1.degree)
    c1 = kernel.encode_word(s1.factors)
    c2 = kernel.encode_word(s2.factors)
    sides: list[Parents] = [{c1: None}, {c2: None}]
    frontiers: list[list[Coded]] = [[c1], [c2]]

    def build_certificate(meeting: Coded) -> tuple[Move, ...]:
        forward = trace_moves(kernel, sides[0], meeting)
        backward = trace_moves(kernel, sides[1], meeting)
        return tuple(forward + [m.invert() for m in reversed(backward)])

    explored = 2
    while True:
        if not frontiers[0] and not frontiers[1]:
            return EquivalenceReport("no", None, explored,
                                     "orbits fully enumerated and disjoint")
        # Expand the smaller live frontier.
        if not frontiers[0]:
            side = 1
        elif not frontiers[1]:
            side = 0
        else:
            side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = sides[side], sides[1 - side]
        new_frontier: list[Coded] = []
        for ns in expand(kernel, frontiers[side], mine):
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
        if self.conjugation_quotient and self.degree >= 3 and not self.product.is_identity():
            raise ValueError(
                "conjugation quotient needs a conjugation-invariant product "
                "(the identity for degree >= 3)")


@dataclass
class FiberReport:
    """The words of a fiber, kept coded by the kernel that enumerated them."""

    coded: list[Coded]
    kernel: MoveKernel
    complete: bool
    limit_hit: str | None = None

    @property
    def words(self) -> list[State]:
        return list(map(self.kernel.decode_word, self.coded))

    @property
    def size(self) -> int:
        return len(self.coded)


def enumerate_fiber(spec: FiberSpec, limits: SearchLimits = DEFAULT_LIMITS) -> FiberReport:
    """All words matching the spec, by backtracking with prefix-product pruning.

    A prefix is pruned when the suffix still needed requires more
    transpositions than the remaining factors can carry (reflection length is
    subadditive).  Parity is checked once, at the root: the needed suffix and
    the remaining factors then have the same parity at every node, because a
    factor changes both by its own parity.  The product fixes the last
    factor as prefix^-1 target, so at one factor left that factor is looked
    up, once per distinct prefix product, and kept if it lies in the one
    class left; no class is looped over.

    The search runs on kernel codes: the prefix product is carried as a code
    through ``kernel.mul``, and the reflection distance from a prefix product
    to the target is computed once per distinct prefix product.  Class
    elements are tried in sorted order, so the words come out in the same
    order as a backtracking over ``Perm`` values would give them.
    """
    d = spec.degree
    kernel = MoveKernel(d)
    counts = dict(spec.type_vector.counts)
    per_class = {ct: kernel.encode_word(class_elements(d, ct)) for ct in counts}
    class_of = {g: ct for ct, members in per_class.items() for g in members}
    refl = {ct: class_reflection_length(ct) for ct in counts}
    order = sorted(counts)  # fixed class iteration order
    target = spec.product

    # Word-independent emptiness check: total parity must match the product.
    total_parity = sum(refl[ct] * n for ct, n in counts.items()) % 2
    if total_parity != target.parity():
        return FiberReport([], kernel, True)

    budget = sum(refl[ct] * n for ct, n in counts.items())
    words: list[Coded] = []
    prefix: list[int] = []
    constraint_memo: dict[frozenset[int], bool] = {}
    mul = kernel.mul
    distance: dict[int, int] = {}  # prefix product code -> reflection distance to target
    last: dict[int, int] = {}  # prefix product code -> code of prefix^-1 target

    def satisfies_constraint(state: Coded) -> bool:
        if spec.constraint == "none":
            return True
        key = frozenset(state)
        cached = constraint_memo.get(key)
        if cached is None:
            gens = kernel.decode_word(tuple(key))
            if spec.constraint == "transitive":
                cached = is_transitive(d, gens)
            else:
                cached = len(closure(d, gens)) == math.factorial(d)
            constraint_memo[key] = cached
        return cached

    limit_hit: list[str] = []

    def distance_miss(prefix_product: int) -> int:
        needed = kernel.decode(prefix_product).inverse() * target
        distance[prefix_product] = needed.reflection_length()
        return distance[prefix_product]

    def rec(prefix_product: int, remaining: int, budget_left: int) -> None:
        # The prefix is admissible: children are pruned before the call.
        if remaining == 0:
            state = tuple(prefix)
            if satisfies_constraint(state):
                if len(words) >= limits.max_fiber:
                    limit_hit.append(f"max_fiber={limits.max_fiber}")
                    return
                words.append(state)
            return
        if remaining == 1:
            g = last.get(prefix_product)
            if g is None:
                g = last[prefix_product] = kernel.encode(
                    kernel.decode(prefix_product).inverse() * target)
            # Only the class left has a nonzero count.
            if counts.get(class_of.get(g)):
                prefix.append(g)
                rec(goal, 0, 0)
                prefix.pop()
            return
        for ct in order:
            if counts[ct] == 0:
                continue
            counts[ct] -= 1
            child_budget = budget_left - refl[ct]
            for g in per_class[ct]:
                child = mul[prefix_product, g]
                need_refl = distance.get(child)
                if need_refl is None:
                    need_refl = distance_miss(child)
                if need_refl > child_budget:
                    continue
                prefix.append(g)
                rec(child, remaining - 1, child_budget)
                prefix.pop()
                if limit_hit:
                    break
            counts[ct] += 1
            if limit_hit:
                break

    root = kernel.encode(Perm.identity(d))
    goal = kernel.encode(target)
    if distance_miss(root) <= budget:  # the parity was checked above
        rec(root, spec.type_vector.total(), budget)
    # rec refers to itself through its closure, a cycle that only the cyclic
    # collector frees, and it holds the word list: break it, so the words go
    # with the report and not at some later full collection.
    del rec
    if limit_hit:
        return FiberReport(words, kernel, False, limit_hit[0])
    return FiberReport(words, kernel, True)


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass
class FiberOrbitReport:
    fiber_size: int
    orbit_count: int | None
    representatives: list[Factorization]
    complete: bool
    limit_hit: str | None = None
    partition: list[frozenset[State]] | None = None


def count_orbits_in_fiber(spec: FiberSpec, limits: SearchLimits = DEFAULT_LIMITS,
                          want_partition: bool = False) -> FiberOrbitReport:
    """Partition the fiber into move orbits with a union-find over the coded
    fiber, joining each word to its images under two braid generators: R at
    the first position, and the rotation D, which applies R at positions
    1, 2, ..., n-1 in turn:

        D:  (g_1, ..., g_n) -> (g_1 g_2 g_1^-1, ..., g_1 g_n g_1^-1, g_1).

    That is exact: the R moves generate the braid group's action (L undoes
    R), R_1 and D generate the same group (applying D k times, then R_1,
    then D^-1 k times is R at position k + 1), and the orbits of a finite
    set are the components of its Schreier graph on any generating set.
    For n = 2, D is R_1; a word of one factor has no moves.  Both images
    must lie in the fiber; a finite set closed under two bijections is
    closed under the group they generate.

    When the spec asks for the conjugation quotient, conjugation edges are
    added after the braid edges, and only from one word per braid orbit: for
    each orbit root, one edge to its conjugate by each transposition.  That
    is exact because conjugation commutes with the moves, so conjugating a
    whole braid orbit by g gives exactly the braid orbit of any one
    conjugated member.  The quotient classes are the orbits of S_d on the
    braid orbits, and the transpositions generate S_d.

    Each class is represented by its least word.  Only ``want_partition``
    collects the member lists.
    """
    fr = enumerate_fiber(spec, limits)
    if not fr.complete:
        return FiberOrbitReport(fr.size, None, [], False, fr.limit_hit)
    coded, kernel = fr.coded, fr.kernel
    if not coded:
        return FiberOrbitReport(0, 0, [], True, partition=[] if want_partition else None)
    conjugate = kernel.conjugate
    lookup = {w: i for i, w in enumerate(coded)}.get
    uf = UnionFind(len(coded))
    union = uf.union
    if len(coded[0]) >= 2:
        for i, w in enumerate(coded):
            a = w[0]
            j = lookup((conjugate[a, w[1]], a) + w[2:])
            k = lookup(tuple([conjugate[a, x] for x in w[1:]]) + (a,))
            if j is None or k is None:
                raise RuntimeError("moves must stay inside the fiber")
            union(i, j)
            union(i, k)
    if spec.conjugation_quotient:
        conj_gens = kernel.encode_word(transpositions(spec.degree))
        roots = [i for i, p in enumerate(uf.parent) if p == i]
        for root in roots:
            w = coded[root]
            for g in conj_gens:
                j = lookup(tuple([conjugate[g, x] for x in w]))
                if j is None:
                    raise RuntimeError("conjugation must stay inside this fiber")
                union(root, j)
    find = uf.find
    least: dict[int, Coded] = {}
    for i, w in enumerate(coded):
        r = find(i)
        if r not in least or w < least[r]:
            least[r] = w
    partition = None
    if want_partition:
        classes: dict[int, list[State]] = {r: [] for r in least}
        for i, w in enumerate(coded):
            classes[find(i)].append(kernel.decode_word(w))
        partition = [frozenset(classes[r]) for r in sorted(least, key=least.__getitem__)]
    return FiberOrbitReport(
        fiber_size=len(coded),
        orbit_count=len(least),
        representatives=[Factorization.from_state(spec.degree, kernel.decode_word(w))
                         for w in sorted(least.values())],
        complete=True,
        partition=partition,
    )


def orbit_partition_by_sweeps(words: list[State], degree: int,
                              limits: SearchLimits = DEFAULT_LIMITS,
                              conjugation_quotient: bool = False) -> list[frozenset[State]] | None:
    """Partition a fiber by repeated full orbit enumerations.

    An independent second algorithm for the same partition as
    :func:`count_orbits_in_fiber`; used to cross-check it.  Returns None if
    any orbit enumeration hits the state limit.
    """
    kernel = MoveKernel(degree)
    conj = kernel.encode_word(transpositions(degree)) if conjugation_quotient else ()
    coded = [kernel.encode_word(w) for w in words]
    fiber = set(coded)
    remaining = set(coded)
    out: list[frozenset[State]] = []
    for c in coded:  # fixed order for determinism
        if c not in remaining:
            continue
        visited, complete = _orbit_states(kernel, c, limits.max_states, conj)
        if not complete:
            return None
        if not visited.keys() <= fiber:
            raise RuntimeError("orbit escaped the fiber")
        out.append(frozenset(map(kernel.decode_word, visited)))
        remaining -= visited.keys()
    return sorted(out, key=min)


@dataclass
class ScanRow:
    n: int
    fiber_size: int | None
    orbit_count: int | None
    complete: bool
    limit_hit: str | None = None


def stable_length_scan(degree: int, cycle_type, product: Perm,
                       n_from: int, n_to: int,
                       limits: SearchLimits = DEFAULT_LIMITS) -> list[ScanRow]:
    """Orbit counts of the full-group fiber with n class factors, for each n
    in the range.  The least n from which every nonempty fiber is a single
    orbit witnesses a lower bound for the stability threshold."""
    ct = validate_cycle_type(cycle_type, degree)
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= from <= to")
    rows: list[ScanRow] = []
    for n in range(n_from, n_to + 1):
        spec = FiberSpec(degree, TypeVector.single(ct, n), product, "full_group")
        report = count_orbits_in_fiber(spec, limits)
        rows.append(ScanRow(n, report.fiber_size if report.complete else None,
                            report.orbit_count, report.complete, report.limit_hit))
    return rows
