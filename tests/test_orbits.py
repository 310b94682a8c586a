"""Orbit enumeration, equivalence certificates, fibers, and scans."""
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurwitz import orbits
from hurwitz.orbits import (
    FiberReport,
    FiberSpec,
    SearchLimits,
    are_equivalent,
    count_orbits_in_fiber,
    enumerate_fiber,
    enumerate_orbit,
    orbit_partition_by_sweeps,
    stable_length_scan,
)
from hurwitz.perms import Perm, centraliser_generators, class_elements, closure
from hurwitz.words import Factorization, Move, MoveKernel, TypeVector

import oracle

LIM = SearchLimits(max_states=200_000, max_fiber=200_000)


def W(d, text):
    return Factorization.parse_word(d, text)


class TestOrbit:
    def test_fixed_word(self):
        r = enumerate_orbit(W(3, "(1,2)(1,2)"), LIM)
        assert (r.size, r.complete) == (1, True)
        assert r.canonical == W(3, "(1,2)(1,2)")

    @staticmethod
    def invariant_orbit_size(start):
        # every word of the orbit keeps the length, type, product and
        # generated subgroup of the start
        kernel = MoveKernel(start.degree)
        visited, complete = orbits._orbit_states(kernel, kernel.encode_word(start.factors),
                                                 LIM.max_states)
        assert complete

        def invariants(w):
            return len(w), w.type_vector(), w.product(), closure(w.degree, w.factors)

        want = invariants(start)
        for s in visited:
            assert invariants(Factorization.from_state(start.degree, kernel.decode_word(s))) == want
        return len(visited)

    def test_three_word_orbit(self):
        w = W(3, "(1,2)(2,3)")
        r = enumerate_orbit(w, LIM)
        assert (r.size, r.complete) == (3, True)
        assert self.invariant_orbit_size(w) == r.size

    def test_longer_orbit_matches_oracle(self):
        w = W(3, "(1,2)(2,3)(1,2)")
        r = enumerate_orbit(w, LIM)
        assert r.complete
        assert r.size == len(oracle.o_orbit(oracle.from_word(w.factors))) == 8
        assert self.invariant_orbit_size(w) == r.size

    def test_limit_is_reported(self):
        r = enumerate_orbit(W(3, "(1,2)(2,3)(1,2)"), SearchLimits(max_states=2))
        assert not r.complete
        assert r.canonical is None
        assert r.limit_hit == "max_states=2"
        assert r.size >= 1

    def test_determinism(self):
        w = W(4, "(1,2)(2,3)(3,4)(1,2)")
        a = enumerate_orbit(w, LIM)
        b = enumerate_orbit(w, LIM)
        assert (a.size, a.canonical) == (b.size, b.canonical)

    def test_degree_past_exhaustive_limit(self):
        # d=9 is past MAX_EXHAUSTIVE_DEGREE: the search never enumerates S_9
        w = W(9, "(1,2)(2,3)(8,9)")
        r = enumerate_orbit(w, LIM)
        want = oracle.o_orbit(oracle.from_word(w.factors))
        assert (r.size, r.complete) == (len(want), True)
        assert oracle.to_word_images(min(want)) == r.canonical.factors

    def test_conjugation_closure(self):
        # (t,t) orbits are singletons; conjugation merges all three
        r = enumerate_orbit(W(3, "(1,2)(1,2)"), LIM, conjugation_quotient=True)
        assert r.size == 3

    @pytest.mark.parametrize("d", range(1, 7))
    def test_symmetric_generators_generate(self, d):
        gens = centraliser_generators(Perm.identity(d))
        assert len(gens) == min(2, d - 1) == len(set(gens))
        assert len(closure(d, gens)) == math.factorial(d)


@st.composite
def small_orbit_words(draw):
    """A word of degree 2..5 and length 0..5 over mixed classes.  Its factors
    move only the first k points, for a drawn k, so that most orbits stay
    small enough for the oracle's flood."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(2, d))
    pool = [Perm(p + tuple(range(k + 1, d + 1))) for p in itertools.permutations(range(1, k + 1))]
    return Factorization(d, tuple(draw(st.lists(st.sampled_from(pool[1:]), max_size=5))))


@given(small_orbit_words(), st.booleans(), st.integers(0, 10**6))
@example(W(4, "(1,2,3,4)"), False, 0)  # one factor: no moves
@example(W(4, "(1,2,3,4)"), True, 0)
@example(W(3, "(1,2)(2,3)"), False, 0)  # two factors: D is R_1
@example(W(3, "(1,2)(1,2)"), True, 0)
@example(W(5, "(1,2)(3,4,5)(1,5)(2,3)(4,5)"), True, 0)
@settings(max_examples=150, deadline=None)
def test_orbit_matches_oracle_flood(w, conj, cut):
    """The closure along R_1, D and two conjugators against the oracle's
    flood over every R and L move and every conjugator."""
    d = w.degree
    work = 2 * len(w) + 1 + (math.factorial(d) if conj else 0)  # oracle images per word
    r = enumerate_orbit(w, SearchLimits(max_states=max(2, 30_000 // work)),
                        conjugation_quotient=conj)
    assume(r.complete)
    want = oracle.o_orbit(oracle.from_word(w.factors), conj, d)
    assert r.size == r.states_explored == len(want)
    assert oracle.to_word_images(min(want)) == r.canonical.factors
    if len(want) > 2:
        # cut short: exactly max_states words, each of the orbit
        m = 2 + cut % (len(want) - 2)
        kernel = MoveKernel(d)
        visited, complete = orbits._orbit_states(kernel, kernel.encode_word(w.factors), m, conj)
        assert not complete and len(visited) == m
        assert {oracle.from_word(kernel.decode_word(s)) for s in visited} <= want
        r = enumerate_orbit(w, SearchLimits(max_states=m), conjugation_quotient=conj)
        assert (r.size, r.states_explored, r.complete, r.canonical) == (m, m, False, None)


def closure_answer(w, max_states, conj):
    """The answer of the closure that holds every word of the orbit, the
    reference: size, complete, canonical, states explored and limit hit."""
    kernel = MoveKernel(w.degree)
    visited, complete = orbits._orbit_states(kernel, kernel.encode_word(w.factors), max_states, conj)
    canonical = Factorization.from_state(w.degree, kernel.decode_word(min(visited))) if complete else None
    return len(visited), complete, canonical, len(visited), None if complete else f"max_states={max_states}"


def seeded_orbit_words():
    """Words of degree 3 to 6 from a fixed seed, every fourth asked under the
    quotient: words over the permutations of the first k >= 3 points, and
    every third of identity product, u followed by u's inverses in reverse."""
    rng = random.Random(28)
    out = []
    for i in range(36):
        d = 3 + i % 4
        k = rng.randint(3, d)
        pool = [Perm(p + tuple(range(k + 1, d + 1))) for p in itertools.permutations(range(1, k + 1))][1:]
        if i % 3 == 0:
            half = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            factors = half + [f.inverse() for f in reversed(half)]
        else:
            factors = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
        out.append((Factorization(d, tuple(factors)), i % 4 == 1))
    return out


# Identity-product words whose orbits (2,184 to 43,200 words) are past the
# oracle flood's reach, a d=8 word whose orbit holds 53,760, and words
# generating S_4 and S_5, which enumerate_orbit answers from their class.
ORBITS_PAST_THE_FLOOD = [
    (W(4, "(1,2) (2,3) (3,4) (1,2) (1,2) (3,4) (2,3) (1,2)"), False),
    (W(4, "(1,2) (2,3) (3,4) (1,2) (1,2) (3,4) (2,3) (1,2)"), True),
    (W(5, "(1,2) (2,3) (3,4) (4,5) (1,2) (2,3)"), False),
    (W(3, "(1,2) (2,3) (1,3) (1,2) (1,2) (1,3) (2,3) (1,2)"), False),
    (W(5, "(2,4) (3,5) (1,3) (1,5) (1,5) (1,3) (3,5) (2,4)"), False),
    (W(5, "(1,2) (2,5) (3,5) (3,5) (2,5) (1,2)"), True),
    (W(6, "(2,6) (1,3) (3,5) (1,5) (1,5) (3,5) (1,3) (2,6)"), False),
    (W(6, "(3,6) (4,5) (3,5) (3,5) (4,5) (3,6)"), True),
    (W(8, "(1,2) (2,3) (1,2) (4,5) (6,7) (6,7) (7,8) (1,3)"), False),
]


@pytest.mark.parametrize("w,conj", seeded_orbit_words() + ORBITS_PAST_THE_FLOOD,
                         ids=lambda x: str(x) if isinstance(x, bool) else " ".join(map(str, x.factors)))
def test_orbit_matches_the_closure(w, conj):
    """enumerate_orbit, and the class walk on the sub-fiber alone, whatever
    the factors generate, give the closure's answer, whole (or cut at the
    reference's 60,000 words) and cut at 2, 7, 100 and one word below the
    orbit's size, where the walk may finish with a size past the cap."""
    cap = 60_000
    whole = closure_answer(w, cap, conj)
    cuts = {cap} | {m for m in (2, 7, 100, whole[0] - 1) if 2 <= m < whole[0]}
    for m in sorted(cuts):
        want = whole if m == cap else closure_answer(w, m, conj)
        for r in enumerate_orbit(w, SearchLimits(max_states=m), conjugation_quotient=conj), \
                orbits._class_orbit(w, m, conj):
            assert (r.size, r.complete, r.canonical, r.states_explored, r.limit_hit) == want, m


@pytest.mark.parametrize("w,max_states,walks_class", [
    # a 2-word orbit of 9-cycles, which do not generate S_9
    (W(9, "(1,2,3,4,5,6,7,8,9) (1,9,8,7,6,5,4,3,2)"), 10_000_000, False),
    # a 12-cycle and a transposition generate S_12, but a 12-cycle's class
    # (11! members) is past the cap
    (W(12, "(1,2,3,4,5,6,7,8,9,10,11,12) (1,2) (1,12,11,10,9,8,7,6,5,4,3)"), 2, False),
    (W(12, "(1,2,3,4,5,6,7,8,9,10,11,12) (1,2) (1,12,11,10,9,8,7,6,5,4,3)"), 100, False),
    # S_4, whose classes of transpositions (6 members) the closure passes at once
    (W(4, "(1,2) (2,3) (3,4) (1,2) (1,2) (3,4) (2,3) (1,2)"), 10_000_000, True),
])
def test_orbit_walks_levels_only_past_their_reach(w, max_states, walks_class):
    """The class walk, which walks conjugation orbits of factors on the
    levels of Z(p), runs only on words generating S_d whose orbits pass the
    largest orbit a level can hold and stay under the cap; every other
    orbit is closed, and no level is walked."""
    orbits._conjugating_group.cache_clear()
    r = enumerate_orbit(w, SearchLimits(max_states=max_states))
    assert (orbits._conjugating_group.cache_info().currsize > 0) == walks_class
    # every orbit here that the cap does not cut has fewer than 200,000 words
    assert (r.size, r.complete, r.canonical, r.states_explored, r.limit_hit) == closure_answer(
        w, min(max_states, 200_000), False)


class TestEquivalence:
    def test_reflexive(self):
        w = W(3, "(1,2)(2,3)")
        eq = are_equivalent(w, w, LIM)
        assert eq.status == "yes" and eq.certificate == ()

    def test_single_move(self):
        eq = are_equivalent(W(3, "(1,2)(2,3)"), W(3, "(1,3)(1,2)"), LIM)
        assert eq.status == "yes"
        assert W(3, "(1,2)(2,3)").apply_moves(eq.certificate) == W(3, "(1,3)(1,2)")

    def test_separated_fixed_points(self):
        eq = are_equivalent(W(3, "(1,2)(1,2)"), W(3, "(1,3)(1,3)"), LIM)
        assert eq.status == "no"

    def test_invariant_separation(self):
        assert are_equivalent(W(3, "(1,2)"), W(3, "(1,2)(1,2)"), LIM).reason == "lengths differ"
        assert are_equivalent(W(3, "(1,2)"), W(3, "(1,3)"), LIM).reason == "products differ"
        eq = are_equivalent(W(4, "(1,2)(3,4)"), W(4, "(1,2,3,4) (1,2,3,4)"), LIM)
        assert eq.status == "no"

    def test_same_invariants_but_distinct_orbits(self):
        # words with equal product, type, and subgroup can still be inequivalent
        eq = are_equivalent(W(3, "(1,2)(1,2)(1,3)(1,3)"), W(3, "(1,3)(1,3)(1,2)(1,2)"),
                            LIM)
        assert eq.status in ("yes", "no")  # decided, never unknown at this size

    def test_unknown_on_tiny_limit(self):
        big1 = W(4, "(1,2)(2,3)(3,4)(1,2)(2,3)(3,4)")
        big2 = big1.apply_moves([Move(1, "R"), Move(3, "R"), Move(5, "L")])
        eq = are_equivalent(big1, big2, SearchLimits(max_states=3))
        assert eq.status == "unknown"

    @pytest.mark.parametrize("max_states", [2, 10, 1000])
    def test_limit_is_checked_per_state(self, max_states):
        rng = random.Random(3)
        gens = class_elements(4, (2, 1, 1))
        w = Factorization(4, tuple(rng.choice(gens) for _ in range(8)))
        scrambled = w
        for _ in range(300):
            scrambled = scrambled.apply_move(Move(rng.randint(1, 7), rng.choice("LR")))
        eq = are_equivalent(w, scrambled, SearchLimits(max_states=max_states))
        assert eq.status == "unknown" and eq.reason == f"max_states={max_states}"
        assert eq.states_explored <= max_states
        assert are_equivalent(w, scrambled, LIM).status == "yes"

    def test_certificates_replay(self):
        rng = random.Random(5)
        gens = class_elements(4, (2, 1, 1))
        for _ in range(10):
            w = Factorization(4, tuple(rng.choice(gens) for _ in range(5)))
            moved = w
            for _ in range(rng.randint(1, 6)):
                moved = moved.apply_move(Move(rng.randint(1, 4), rng.choice("LR")))
            eq = are_equivalent(w, moved, LIM)
            assert eq.status == "yes"
            assert w.apply_moves(eq.certificate) == moved


class TestFiber:
    def test_parity_obstruction(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 2), Perm.transposition(3, 1, 2))
        assert enumerate_fiber(spec, LIM).size == 0

    def test_pairs_with_identity_product(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 2), Perm.identity(3))
        words = enumerate_fiber(spec, LIM).words
        assert len(words) == 3
        assert all(w[0] == w[1] for w in words)

    def test_quadruples(self):
        base = dict(degree=3, type_vector=TypeVector.single((2, 1), 4),
                    product=Perm.identity(3))
        assert enumerate_fiber(FiberSpec(**base), LIM).size == 27
        assert enumerate_fiber(FiberSpec(**base, constraint="transitive"), LIM).size == 24
        assert enumerate_fiber(FiberSpec(**base, constraint="full_group"), LIM).size == 24

    def test_matches_oracle_enumeration(self):
        spec = FiberSpec(3, TypeVector.single((3,), 3), Perm.parse("(1,2,3)", 3))
        got = {oracle.from_word(w) for w in enumerate_fiber(spec, LIM).words}
        want = set(oracle.o_fiber(3, (3,), 3, oracle.from_perm(Perm.parse("(1,2,3)", 3))))
        assert got == want

    def test_mixed_type_fiber(self):
        tv = TypeVector.parse("2,1:2;3:1", 3)
        spec = FiberSpec(3, tv, Perm.identity(3))
        words = enumerate_fiber(spec, LIM).words
        for w in words:
            assert sorted(f.cycle_type() for f in w) == [(2, 1), (2, 1), (3,)]
        # oracle count by raw scan over all arrangements
        import itertools
        trans = oracle.o_transpositions(3)
        cyc = oracle.o_class_elements(3, (3,))
        count = 0
        for word in itertools.product(trans + cyc, repeat=3):
            kinds = sorted(oracle.o_cycle_type(f) for f in word)
            if kinds != [(2, 1), (2, 1), (3,)]:
                continue
            if oracle.o_product(word, 3) == oracle.o_identity(3):
                count += 1
        assert len(words) == count

    def test_fiber_cap(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 4), Perm.identity(3))
        r = enumerate_fiber(spec, SearchLimits(max_fiber=5))
        assert not r.complete and r.limit_hit == "max_fiber=5"

    def test_conjugation_quotient_needs_central_product(self):
        with pytest.raises(ValueError):
            FiberSpec(3, TypeVector.single((2, 1), 3), Perm.transposition(3, 1, 2),
                      conjugation_quotient=True)

    @pytest.mark.parametrize("degree,counts", [
        (1, {(1,): 2}),
        (3, {(1, 1, 1): 2}),
        (3, {(1, 1, 1): 1, (2, 1): 2}),
    ])
    def test_identity_class_is_not_a_type(self, degree, counts):
        # a monodromy type lists local monodromies, never the identity class
        with pytest.raises(ValueError, match="identity class"):
            FiberSpec(degree, TypeVector.from_counts(counts), Perm.identity(degree))


class TestOrbitCounts:
    def test_isolated_pairs(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 2), Perm.identity(3))
        r = count_orbits_in_fiber(spec, LIM)
        assert (r.fiber_size, r.orbit_count) == (3, 3)

    def test_single_orbit_d3(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 4), Perm.identity(3), "full_group")
        r = count_orbits_in_fiber(spec, LIM)
        assert (r.fiber_size, r.orbit_count) == (24, 1)

    def test_representatives_are_lex_minima(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 2), Perm.identity(3))
        r = count_orbits_in_fiber(spec, LIM, want_partition=True)
        assert [rep.factors for rep in r.representatives] == sorted(min(p) for p in r.partition)

    def test_labelling_equals_sweeps_and_oracle(self):
        for n in (2, 3, 4):
            for product in [Perm.identity(3), Perm.transposition(3, 1, 2),
                            Perm.parse("(1,2,3)", 3)]:
                spec = FiberSpec(3, TypeVector.single((2, 1), n), product)
                fiber = enumerate_fiber(spec, LIM)
                r = count_orbits_in_fiber(spec, LIM, want_partition=True)
                sweeps = orbit_partition_by_sweeps(fiber.words, 3, LIM)
                assert r.partition == sweeps
                want = oracle.o_partition([oracle.from_word(w) for w in fiber.words])
                got = sorted((frozenset(oracle.from_word(w) for w in part)
                              for part in r.partition), key=min)
                assert got == want

    def test_conjugation_quotient_counts(self):
        spec = FiberSpec(3, TypeVector.single((2, 1), 2), Perm.identity(3),
                         conjugation_quotient=True)
        r = count_orbits_in_fiber(spec, LIM)
        assert r.orbit_count == 1

    def test_fiber_symmetry_under_relabeling(self):
        # conjugating a fiber maps it onto the fiber with conjugated product,
        # preserving size and orbit count
        tv = TypeVector.single((2, 1), 3)
        alpha = Perm.transposition(3, 1, 2)
        g = Perm.parse("(1,2,3)", 3)
        spec1 = FiberSpec(3, tv, alpha)
        spec2 = FiberSpec(3, tv, g * alpha * g.inverse())
        r1 = count_orbits_in_fiber(spec1, LIM, want_partition=True)
        r2 = count_orbits_in_fiber(spec2, LIM, want_partition=True)
        assert r1.fiber_size == r2.fiber_size
        assert r1.orbit_count == r2.orbit_count
        mapped = {tuple(g.conjugate(f) for f in w)
                  for part in r1.partition for w in part}
        assert mapped == {w for part in r2.partition for w in part}

    def test_missing_move_neighbour_raises(self, monkeypatch):
        # a single orbit: the dropped word is the R image of another word
        spec = FiberSpec(3, TypeVector.single((2, 1), 4), Perm.identity(3), "full_group")

        def fake(spec, limits, sub_fiber):
            fr = enumerate_fiber(spec, limits, sub_fiber=sub_fiber)
            return FiberReport(fr.coded[:-1], fr.kernel, fr.size, True)

        monkeypatch.setattr(orbits, "enumerate_fiber", fake)
        with pytest.raises(RuntimeError, match="moves must stay inside the fiber"):
            count_orbits_in_fiber(spec, LIM)

    def test_missing_conjugate_raises(self, monkeypatch):
        # The quotient searches the sub-fiber of words whose first two
        # factors are the least pair of their orbit under S_3.  Here that is
        # one class of three words, each reached from another, so dropping
        # any one leaves an image outside.
        spec = FiberSpec(3, TypeVector.parse("2,1:2;3:1", 3), Perm.identity(3),
                         conjugation_quotient=True)
        sub = enumerate_fiber(spec, LIM, sub_fiber=True)
        assert len(sub.coded) == 3 and count_orbits_in_fiber(spec, LIM).orbit_count == 1
        for k in range(len(sub.coded)):
            kept = sub.coded[:k] + sub.coded[k + 1:]
            monkeypatch.setattr(orbits, "enumerate_fiber",
                                lambda spec, limits, sub_fiber, kept=kept: FiberReport(
                                    kept, sub.kernel, sub.size, True))
            with pytest.raises(RuntimeError, match="moves must stay inside the fiber"):
                count_orbits_in_fiber(spec, LIM)

    def test_incomplete_fiber_reports_unknown(self):
        # the words found before the cut are no fiber size
        spec = FiberSpec(3, TypeVector.single((2, 1), 4), Perm.identity(3))
        r = count_orbits_in_fiber(spec, SearchLimits(max_fiber=5))
        assert not r.complete and r.orbit_count is None and r.fiber_size is None


class TestScan:
    def test_scan_d3(self):
        rows = stable_length_scan(3, (2, 1), Perm.identity(3), 2, 8, LIM)
        table = [(r.n, r.fiber_size, r.orbit_count) for r in rows]
        assert table == [
            (2, 0, 0), (3, 0, 0), (4, 24, 1), (5, 0, 0),
            (6, 240, 1), (7, 0, 0), (8, 2184, 1),
        ]

    def test_scan_transposition_product(self):
        rows = stable_length_scan(4, (2, 1, 1), Perm.transposition(4, 1, 2), 3, 3, LIM)
        # oracle: raw scan over all 6^3 triples
        fib = oracle.o_fiber(4, (2, 1, 1), 3, oracle.from_perm(Perm.transposition(4, 1, 2)),
                             "full")
        parts = oracle.o_partition(fib)
        assert rows[0].fiber_size == len(fib)
        assert rows[0].orbit_count == len(parts)

    def test_limit_rows_marked(self):
        rows = stable_length_scan(3, (2, 1), Perm.identity(3), 4, 4,
                                  SearchLimits(max_fiber=5))
        assert not rows[0].complete and rows[0].orbit_count is None
        assert rows[0].fiber_size is None

    @pytest.mark.parametrize("n_from,n_to", [(0, 3), (5, 3)])
    def test_empty_or_nonpositive_range_rejected(self, n_from, n_to):
        with pytest.raises(ValueError, match="need 1 <= from <= to"):
            stable_length_scan(3, (2, 1), Perm.identity(3), n_from, n_to, LIM)
