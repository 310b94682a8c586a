"""Orbit enumeration, equivalence certificates, and fiber counting.

Everything here is exhaustive and certified: an answer is only reported as
definite when the underlying search ran to completion within its limits, and
hitting a limit is a first-class outcome (``complete=False`` / ``"unknown"``),
never a silent truncation.

The searches (orbit closure, bidirectional equivalence, and the stable-tail
search in :mod:`hurwitz.constructions`) run on coded words: tuples of the
integer factor codes of one :class:`~hurwitz.words.MoveKernel`, expanded by
:func:`neighbors`.  ``Perm`` words appear only at the boundaries: coding the
inputs, decoding the results, and replaying certificates.  Coding keeps
order, so the least coded word of an orbit decodes to its least word.  Fiber
enumeration and the union-find work on ``Perm`` words directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .perms import Perm, class_elements, class_reflection_length, closure, is_transitive, transpositions, validate_cycle_type
from .words import (
    Coded,
    Factorization,
    Move,
    MoveKernel,
    State,
    TypeVector,
    conjugate_state,
    move_right_state,
    product_of_state,
)


@dataclass(frozen=True)
class SearchLimits:
    """Caps for the exhaustive searches; exceeding one yields an incomplete
    (never wrong) answer."""

    max_states: int = 10_000_000
    max_fiber: int = 10_000_000


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


#: A search tree: each reached word maps to (parent word, move code), the
#: root to None.
Parents = dict[Coded, tuple[Coded, int] | None]


def trace_moves(parents: Parents, state: Coded) -> list[Move]:
    """The moves leading from the root of ``parents`` to ``state``."""
    codes: list[int] = []
    while (entry := parents[state]) is not None:
        state, code = entry
        codes.append(code)
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
                  conj: Coded = ()) -> tuple[set[Coded], bool]:
    """Breadth-first closure of ``state0`` under the moves and conjugation
    by the codes in ``conj``.  Returns (visited, complete)."""
    visited = {state0}
    queue = [state0]
    for s in queue:
        for ns in neighbors(kernel, s, conj):
            if ns not in visited:
                if len(visited) >= max_states:
                    return visited, False
                visited.add(ns)
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
    want_group = start.generated_subgroup() if d <= 8 else None
    for s in states:
        assert len(s) == want_len
        assert TypeVector.from_factors(s) == want_type
        if not conjugation_quotient:
            assert product_of_state(s, d) == want_product
        if want_group is not None and not conjugation_quotient:
            assert closure(d, s) == want_group


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
    if s1.degree <= 8 and s1.generated_subgroup() != s2.generated_subgroup():
        return EquivalenceReport("no", None, 0, "generated subgroups differ")
    if s1.factors == s2.factors:
        return EquivalenceReport("yes", (), 0)

    kernel = MoveKernel(s1.degree)
    c1 = kernel.encode_word(s1.factors)
    c2 = kernel.encode_word(s2.factors)
    sides: list[Parents] = [{c1: None}, {c2: None}]
    frontiers: list[list[Coded]] = [[c1], [c2]]

    def build_certificate(meeting: Coded) -> tuple[Move, ...]:
        forward = trace_moves(sides[0], meeting)
        backward = trace_moves(sides[1], meeting)
        return tuple(forward + [m.invert() for m in reversed(backward)])

    while True:
        if not frontiers[0] and not frontiers[1]:
            return EquivalenceReport("no", None, len(sides[0]) + len(sides[1]),
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
        for s in frontiers[side]:
            for code, ns in enumerate(neighbors(kernel, s)):
                if ns in mine:
                    continue
                mine[ns] = (s, code)
                new_frontier.append(ns)
                if ns in other:
                    return EquivalenceReport(
                        "yes", build_certificate(ns), len(sides[0]) + len(sides[1]))
        frontiers[side] = new_frontier
        explored = len(sides[0]) + len(sides[1])
        if explored > limits.max_states:
            return EquivalenceReport("unknown", None, explored,
                                     f"max_states={limits.max_states}")
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
        if self.conjugation_quotient and self.degree >= 3 and not self.product.is_identity():
            raise ValueError(
                "conjugation quotient needs a conjugation-invariant product "
                "(the identity for degree >= 3)")


@dataclass
class FiberReport:
    words: list[State]
    complete: bool
    limit_hit: str | None = None

    @property
    def size(self) -> int:
        return len(self.words)


def enumerate_fiber(spec: FiberSpec, limits: SearchLimits = DEFAULT_LIMITS) -> FiberReport:
    """All words matching the spec, by backtracking with prefix-product pruning.

    The pruning is exact in both directions it uses: the suffix still needed
    must not require more transpositions than the remaining factors can carry
    (reflection length is subadditive), and its parity must equal the summed
    parity of the remaining factors.
    """
    d = spec.degree
    counts = dict(spec.type_vector.counts)
    per_class = {ct: class_elements(d, ct) for ct in counts}
    refl = {ct: class_reflection_length(ct) for ct in counts}
    order = sorted(counts)  # fixed class iteration order
    target = spec.product

    # Word-independent emptiness check: total parity must match the product.
    total_parity = sum(refl[ct] * n for ct, n in counts.items()) % 2
    if total_parity != target.parity():
        return FiberReport([], True)

    budget = sum(refl[ct] * n for ct, n in counts.items())
    words: list[State] = []
    prefix: list[Perm] = []
    constraint_memo: dict[frozenset[Perm], bool] = {}

    def satisfies_constraint(state: State) -> bool:
        if spec.constraint == "none":
            return True
        key = frozenset(state)
        cached = constraint_memo.get(key)
        if cached is None:
            if spec.constraint == "transitive":
                cached = is_transitive(d, key)
            else:
                cached = len(closure(d, key)) == math.factorial(d)
            constraint_memo[key] = cached
        return cached

    limit_hit: list[str] = []

    def rec(prefix_product: Perm, remaining: int, budget_left: int) -> None:
        if limit_hit:
            return
        needed = prefix_product.inverse() * target
        need_refl = needed.reflection_length()
        if need_refl > budget_left or (need_refl - budget_left) % 2 != 0:
            return
        if remaining == 0:
            state = tuple(prefix)
            if satisfies_constraint(state):
                if len(words) >= limits.max_fiber:
                    limit_hit.append(f"max_fiber={limits.max_fiber}")
                    return
                words.append(state)
            return
        for ct in order:
            if counts[ct] == 0:
                continue
            counts[ct] -= 1
            for g in per_class[ct]:
                prefix.append(g)
                rec(prefix_product * g, remaining - 1, budget_left - refl[ct])
                prefix.pop()
                if limit_hit:
                    break
            counts[ct] += 1
            if limit_hit:
                break

    rec(Perm.identity(d), spec.type_vector.total(), budget)
    if limit_hit:
        return FiberReport(words, False, limit_hit[0])
    return FiberReport(words, True)


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
    """Partition the fiber into move orbits with a union-find over the whole
    fiber; R moves alone supply every edge (L is their inverse).  Conjugation
    edges are added when the spec asks for the quotient."""
    fr = enumerate_fiber(spec, limits)
    if not fr.complete:
        return FiberOrbitReport(fr.size, None, [], False, fr.limit_hit)
    words = fr.words
    if not words:
        return FiberOrbitReport(0, 0, [], True, partition=[] if want_partition else None)
    index = {w: i for i, w in enumerate(words)}
    uf = UnionFind(len(words))
    conj_gens = transpositions(spec.degree) if spec.conjugation_quotient else ()
    for i, w in enumerate(words):
        for i0 in range(len(w) - 1):
            j = index.get(move_right_state(w, i0))
            assert j is not None, "moves must stay inside the fiber"
            uf.union(i, j)
        for g in conj_gens:
            j = index.get(conjugate_state(w, g))
            assert j is not None, "conjugation must stay inside this fiber"
            uf.union(i, j)
    classes: dict[int, list[State]] = {}
    for i, w in enumerate(words):
        classes.setdefault(uf.find(i), []).append(w)
    reps = sorted(min(members) for members in classes.values())
    partition = None
    if want_partition:
        partition = sorted((frozenset(m) for m in classes.values()), key=min)
    return FiberOrbitReport(
        fiber_size=len(words),
        orbit_count=len(classes),
        representatives=[Factorization.from_state(spec.degree, r) for r in reps],
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


def stable_length_scan(degree: int, cycle_type, product: Perm,
                       n_from: int, n_to: int,
                       limits: SearchLimits = DEFAULT_LIMITS) -> list[ScanRow]:
    """Orbit counts of the full-group fiber with n class factors, for each n
    in the range.  The least n from which every nonempty fiber is a single
    orbit witnesses a lower bound for the stability threshold."""
    ct = validate_cycle_type(cycle_type, degree)
    rows: list[ScanRow] = []
    for n in range(n_from, n_to + 1):
        spec = FiberSpec(degree, TypeVector.single(ct, n), product, "full_group")
        report = count_orbits_in_fiber(spec, limits)
        rows.append(ScanRow(n, report.fiber_size if report.complete else None,
                            report.orbit_count, report.complete, report.limit_hit))
    return rows
