"""Permutation arithmetic and conjugacy-class bookkeeping."""
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitz.perms import (
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


def generator_sets(max_degree=6):
    """A degree and up to four permutations of it, often with one whose only
    even cycle is one 2-cycle, the case that is decided without a listing."""
    def of_degree(d):
        perm = st.permutations(list(range(1, d + 1))).map(Perm)
        special = [x for ct in all_cycle_types(d) if [k for k in ct if k % 2 == 0] == [2]
                   for x in class_elements(d, ct)]
        return st.tuples(st.just(d), st.lists(st.one_of(perm, st.sampled_from(special or [Perm.identity(d)])),
                                              max_size=4))
    return st.integers(1, max_degree).flatmap(of_degree)


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
