"""Permutation arithmetic and conjugacy-class bookkeeping."""
import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hurwitz.perms import (
    Chain,
    LimitExceededError,
    Perm,
    all_cycle_types,
    all_perms,
    canonical_class_element,
    centraliser_generators,
    class_elements,
    class_size,
    closure,
    generates_symmetric_group,
    is_transitive,
    parse_cycle_type,
    transpositions,
)

import oracle


def P(text, d):
    return Perm.parse(text, degree=d)


def perms(min_degree=1, max_degree=6):
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.permutations(list(range(1, d + 1))).map(Perm))


def generators_of_degree(d):
    """Up to four permutations of degree d, often with one whose only even
    cycle is one 2-cycle, so that a power of it is a transposition and many
    of the sets generate S_d."""
    perm = st.permutations(list(range(1, d + 1))).map(Perm)
    special = [x for ct in all_cycle_types(d) if [k for k in ct if k % 2 == 0] == [2]
               for x in class_elements(d, ct)]
    return st.lists(st.one_of(perm, st.sampled_from(special or [Perm.identity(d)])), max_size=4)


def generator_sets(max_degree=6):
    """A degree and up to four permutations of it (:func:`generators_of_degree`)."""
    return st.integers(1, max_degree).flatmap(lambda d: st.tuples(st.just(d), generators_of_degree(d)))


def perm_pairs(max_degree=6):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.tuples(st.permutations(list(range(1, d + 1))).map(Perm),
                            st.permutations(list(range(1, d + 1))).map(Perm)))


def perm_triples(max_degree=6):
    return st.integers(2, max_degree).flatmap(
        lambda d: st.tuples(*[st.permutations(list(range(1, d + 1))).map(Perm)] * 3))


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Perm([1, 1, 3])
        with pytest.raises(ValueError):
            Perm([0, 1])
        with pytest.raises(ValueError):
            Perm([])

    def test_compose_identity(self):
        t = P("(1,2)", 3)
        assert t * Perm.identity(3) == t
        assert Perm.identity(3) * t == t

    def test_compose_convention(self):
        # q acts first: (1,2) * (2,3) sends 1->2, 2->3, 3->1
        assert P("(1,2)", 3) * P("(2,3)", 3) == P("(1,2,3)", 3)

    def test_compose_involution(self):
        t = P("(1,2)", 3)
        assert (t * t).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            P("(1,2)", 3) * P("(1,2)", 4)
        with pytest.raises(ValueError):
            P("(1,2)", 3).conjugate(P("(1,2)", 4))

    def test_inverse_examples(self):
        assert Perm.identity(4).inverse() == Perm.identity(4)
        assert P("(1,2,3)", 3).inverse() == P("(1,3,2)", 3)
        assert P("(1,2)", 2).inverse() == P("(1,2)", 2)

    def test_conj_examples(self):
        g = P("(1,2)", 3)
        assert g.conjugate(Perm.identity(3)).is_identity()
        assert g.conjugate(P("(2,3)", 3)) == P("(1,3)", 3)
        assert P("(1,3)", 3).conjugate(P("(1,2)", 3)) == P("(2,3)", 3)

    def test_parse_print_roundtrip(self):
        for text, d in [("(1,2)(3,4,5)", 8), ("()", 4), ("(2,7)", 7)]:
            assert str(P(text, d)) == text
        assert Perm.parse("[2,1,4,3]") == P("(1,2)(3,4)", 4)
        with pytest.raises(ValueError):
            Perm.parse("()")          # degree needed
        with pytest.raises(ValueError):
            Perm.parse("(1,2", degree=3)
        with pytest.raises(ValueError):
            Perm.parse("[2,2,1]")


class TestStructure:
    def test_cycle_type_examples(self):
        assert Perm.identity(4).cycle_type() == (1, 1, 1, 1)
        assert P("(1,2)(3,4,5)", 8).cycle_type() == (3, 2, 1, 1, 1)
        assert P("(1,2)", 3).cycle_type() == (2, 1)

    def test_odd_class_example_constants(self):
        p = P("(1,2)(3,4,5)", 8)
        assert p.parity() == 1

    def test_identity_constants(self):
        for d in (1, 3, 6):
            e = Perm.identity(d)
            assert e.parity() == 0

    def test_transposition_constants(self):
        t = P("(1,2)", 4)
        assert t.parity() == 1

    @given(perm_pairs())
    def test_parity_homomorphism(self, pair):
        p, q = pair
        assert (p * q).parity() == (p.parity() + q.parity()) % 2

    @given(perm_triples())
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(perms())
    def test_two_sided_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perm_pairs())
    def test_conj_preserves_class(self, pair):
        g, a = pair
        assert g.conjugate(a).cycle_type() == a.cycle_type()

    @given(perms(min_degree=2))
    def test_matches_oracle_cycle_type(self, p):
        assert p.cycle_type() == oracle.o_cycle_type(oracle.from_perm(p))


class TestClasses:
    def test_class_elements_examples(self):
        assert {str(p) for p in class_elements(3, (2, 1))} == {"(1,2)", "(1,3)", "(2,3)"}
        assert len(class_elements(4, (2, 1, 1))) == 6
        assert len(class_elements(4, (4,))) == 6

    def test_class_size_formula_up_to_7(self):
        for d in range(1, 8):
            total = 0
            for ct in all_cycle_types(d):
                size = class_size(d, ct)
                total += size
                if d <= 6:
                    assert size == len(class_elements(d, ct))
            assert total == math.factorial(d)

    def test_class_listing_is_the_filter_of_s_d(self):
        # The listing walks one class by conjugation; up to d=7 it equals the
        # sorted filter of all of S_d, and at d=8 each class has its size.
        for d in range(1, 8):
            by_type = {}
            for p in all_perms(d):
                by_type.setdefault(p.cycle_type(), []).append(p)
            for ct in all_cycle_types(d):
                assert class_elements(d, ct) == tuple(by_type[ct]), (d, ct)
        for ct in all_cycle_types(8):
            members = class_elements(8, ct)
            assert len(set(members)) == len(members) == class_size(8, ct)
            assert all(p.cycle_type() == ct for p in members)

    def test_canonical_element(self):
        p = canonical_class_element(8, (3, 2, 1, 1, 1))
        assert str(p) == "(1,2,3)(4,5)"
        assert p.cycle_type() == (3, 2, 1, 1, 1)

    def test_parse_cycle_type(self):
        assert parse_cycle_type("2,1,1", 4) == (2, 1, 1)
        assert parse_cycle_type("1,2,1", 4) == (2, 1, 1)
        with pytest.raises(ValueError):
            parse_cycle_type("3,2", 4)
        with pytest.raises(ValueError):
            parse_cycle_type("x", 4)

    def test_conjugate_iff_same_cycle_type_small(self):
        # explicit conjugator search at d = 4
        elems = list(all_perms(4))
        for a in class_elements(4, (2, 1, 1))[:2]:
            for b in class_elements(4, (2, 1, 1)):
                assert any(g.conjugate(a) == b for g in elems)
            for b in class_elements(4, (4,)):
                assert not any(g.conjugate(a) == b for g in elems)


class TestSubgroups:
    def test_closure_examples(self):
        assert len(closure(3, [P("(1,2)", 3)])) == 2
        assert len(closure(3, [P("(1,2)", 3), P("(2,3)", 3)])) == 6
        klein = closure(4, [P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)])
        assert len(klein) == 4

    def test_closure_of_nothing(self):
        assert closure(3, []) == frozenset({Perm.identity(3)})

    def test_closure_degree_guard(self):
        with pytest.raises(LimitExceededError):
            closure(9, [Perm.identity(9)])

    def test_closure_matches_oracle(self):
        gens = [P("(1,2)", 4), P("(1,2,3,4)", 4)]
        got = {oracle.from_perm(p) for p in closure(4, gens)}
        want = oracle.o_subgroup(4, [oracle.from_perm(p) for p in gens])
        assert got == want

    def test_transitivity(self):
        assert is_transitive(3, [P("(1,2,3)", 3)])
        assert not is_transitive(4, [P("(1,2)(3,4)", 4)])
        assert not is_transitive(4, [P("(1,2)", 4)])
        assert is_transitive(4, [P("(1,2)", 4), P("(2,3)", 4), P("(3,4)", 4)])

    def test_transpositions_list(self):
        assert len(transpositions(5)) == 10

    @given(generator_sets())
    def test_symmetric_group_test_matches_closure(self, case):
        d, gens = case
        assert generates_symmetric_group(d, gens) == (len(closure(d, gens)) == math.factorial(d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_symmetric_group_test_on_every_pair(self, d):
        for gens in itertools.combinations_with_replacement(all_perms(d), 2):
            assert generates_symmetric_group(d, gens) == (len(closure(d, gens)) == math.factorial(d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_centraliser_generators_match_brute_force(self, d):
        group = list(all_perms(d))
        for ct in all_cycle_types(d):
            for p in (class_elements(d, ct)[-1], canonical_class_element(d, ct)):
                centraliser = closure(d, centraliser_generators(p))
                assert centraliser == {g for g in group if g.conjugate(p) == p}
                assert len(centraliser) == math.prod(k ** m * math.factorial(m) for k, m in Counter(ct).items())


def chain_cases(max_degree=6):
    """A degree, two generator sets of it (:func:`generators_of_degree`), and
    a permutation of it to test for membership."""
    return st.integers(1, max_degree).flatmap(lambda d: st.tuples(
        st.just(d), generators_of_degree(d), generators_of_degree(d),
        st.permutations(list(range(1, d + 1))).map(Perm)))


def coset_cases(max_degree=6):
    """A degree, up to four permutations of it, and two more."""
    return generator_sets(max_degree).flatmap(lambda case: st.tuples(
        st.just(case[0]), st.just(case[1]), *[st.permutations(list(range(1, case[0] + 1))).map(Perm)] * 2))


def gens(d, *texts):
    return [P(t, d) for t in texts]


class TestChain:
    """:class:`Chain` against the listing :func:`closure`.  Each pinned
    example is a set on which a chain that skips some Schreier generators
    gets the order wrong: the pairs of a new generator with the old orbit,
    the last generator at a new orbit point, the levels between where a
    generator is added and where it stops, the last orbit point, and the
    last Schreier generator of each extension of a level."""

    @given(chain_cases())
    @example((2, gens(2, "(1,2)"), [], P("(1,2)", 2)))
    @example((3, gens(3, "(1,2,3)"), gens(3, "(1,3,2)"), P("(1,3,2)", 3)))
    @example((3, gens(3, "(2,3)", "(1,2,3)"), gens(3, "(1,2)", "(1,3)"), P("(1,2)", 3)))
    @example((4, gens(4, "(3,4)", "(1,2,3)"), gens(4, "(1,2)", "(1,2,3,4)"), P("(1,4)", 4)))
    @example((5, gens(5, "(1,2)(3,4,5)"), gens(5, "(1,2)", "(3,4,5)"), P("(3,5,4)", 5)))
    def test_order_membership_and_equality_match_closure(self, case):
        d, first, second, g = case
        listed = closure(d, first)
        chain = Chain(d, first)
        assert chain.order() == len(listed)
        assert (g in chain) == (g in listed)
        assert all(x in chain for x in listed)
        # the test of are_equivalent: one order, and the second set inside the first's chain
        same = chain.order() == Chain(d, second).order() and all(x in chain for x in second)
        assert same == (listed == closure(d, second))
        # the generators that add took generate the group, and it takes g exactly when g is new
        taken = Chain(d)
        assert Chain(d, [x for x in first if taken.add(x)]).order() == chain.order()
        assert chain.add(g) == (g not in listed)
        assert chain.order() == len(closure(d, [*first, g]))

    @given(coset_cases())
    @example((3, gens(3, "(1,2)"), P("(1,3)", 3), P("(1,3,2)", 3)))
    @example((4, gens(4, "(1,2)(3,4)", "(1,3)(2,4)"), P("(1,2)", 4), P("(3,4)", 4)))
    @example((6, gens(6, "(1,2)", "(3,4)", "(3,4,5,6)"), P("(2,3)", 6), P("(1,2)(2,4)", 6)))
    def test_least_in_coset_names_the_left_coset(self, case):
        # It lies in g H, is the same for every element of g H, and is
        # another on every other coset.
        d, first, g, other = case
        listed = closure(d, first)
        chain = Chain(d, first)
        least = chain.least_in_coset(g)
        assert g.inverse() * least in listed
        assert {chain.least_in_coset(g * h) for h in listed} == {least}
        assert (chain.least_in_coset(other) == least) == (g.inverse() * other in listed)

    def test_least_in_coset_counts_the_cosets(self):
        # one value per left coset of H in S_d, for the centraliser of each class at d <= 5
        for d in range(1, 6):
            group = list(all_perms(d))
            for ct in all_cycle_types(d):
                chain = Chain(d, centraliser_generators(canonical_class_element(d, ct)))
                names = {chain.least_in_coset(g) for g in group}
                assert len(names) == class_size(d, ct)

    def test_small_groups(self):
        assert Chain(1).order() == Chain(3).order() == 1
        assert Perm.identity(3) in Chain(3)
        assert P("(1,2)", 3) not in Chain(3)
        assert Chain(4, gens(4, "(1,2)(3,4)", "(1,3)(2,4)")).order() == 4
        chain = Chain(3)
        assert [chain.add(g) for g in gens(3, "(1,2)", "(1,2)", "()", "(1,3)", "(2,3)")] == \
            [True, False, False, True, False]
        assert chain.order() == 6

    def test_degree_limit(self):
        assert Chain(255, [Perm.transposition(255, 1, 255)]).order() == 2
        with pytest.raises(LimitExceededError):
            Chain(256)

    def test_exact_orders_at_degrees_7_and_8(self):
        s8 = Chain(8, [Perm.transposition(8, i, i + 1) for i in range(1, 8)])
        assert s8.order() == math.factorial(8)
        s2_s6 = Chain(8, gens(8, "(1,2)", "(3,4)", "(3,4,5,6,7,8)"))
        assert s2_s6.order() == 1440
        assert P("(1,2)(3,8)", 8) in s2_s6 and P("(1,3)", 8) not in s2_s6
        a8 = Chain(8, [Perm.cycle(8, (i, i + 1, i + 2)) for i in range(1, 7)])
        assert a8.order() == math.factorial(8) // 2
        assert P("(1,5)(2,8)", 8) in a8 and P("(1,5)", 8) not in a8
        a7 = Chain(7, gens(7, "(1,2,3)", "(3,4,5,6,7)"))
        assert a7.order() == math.factorial(7) // 2

    @pytest.mark.parametrize("d", [7, 8])
    def test_centraliser_orders_at_degrees_7_and_8(self, d):
        # |Z(p)| = d! / |class of p| for every class
        for ct in all_cycle_types(d):
            p = canonical_class_element(d, ct)
            chain = Chain(d, centraliser_generators(p))
            assert chain.order() == math.factorial(d) // class_size(d, ct)
            assert p in chain
