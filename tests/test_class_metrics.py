"""Class constants, minimal-word searches, and the stability bound."""
import pytest

import math

from hurwitz.class_metrics import (
    DEFAULT_SEARCH_DEPTH,
    MinWordResult,
    compute_class_metrics,
    generates_full_group,
    min_factors_to_transposition,
    min_factors_to_transposition_fixing,
    stability_bound,
)
from hurwitz.perms import (
    LimitExceededError,
    Perm,
    all_cycle_types,
    canonical_class_element,
    class_elements,
    class_fixed_points,
    class_parity,
    closure,
    format_cycle_type,
    transpositions,
)
from hurwitz.words import Factorization

import oracle

ODD_CLASSES = [(d, ct) for d in range(2, 8) for ct in all_cycle_types(d) if class_parity(ct)]


def class_ids(classes):
    return [f"d{d}-{format_cycle_type(ct)}" for d, ct in classes]


def reference_level_search(degree, generators, target, limit):
    """The minimal-word search as it was before the class algebra (for the
    anchored search, before its reduction to S_{d-2}): a meet-in-the-middle
    scan that materialises every product of up to ceil(m/2) generators as a
    ``Perm``."""
    ident = Perm.identity(degree)
    levels = [{ident: None}]

    def extend_to(k):
        while len(levels) <= k:
            nxt = {}
            for x in levels[-1]:
                for g in generators:
                    y = x * g
                    if y not in nxt:
                        nxt[y] = (x, g)
            levels.append(nxt)

    def word_of(x, k):
        out = []
        while k > 0:
            x, g = levels[k][x]
            out.append(g)
            k -= 1
        out.reverse()
        return out

    for m in range(1, limit + 1):
        if (m * generators[0].parity()) % 2 != target.parity():
            continue
        a = (m + 1) // 2
        b = m - a
        extend_to(a)
        for p in levels[a]:
            q = p.inverse() * target
            if q in levels[b]:
                return MinWordResult(m, tuple(word_of(p, a) + word_of(q, b)))
    return MinWordResult(None, None, limit=limit)


def closure_generates_full_group(degree, ct):
    """The full-group test by explicit closure: close one class member and its
    conjugates by transpositions, adding missed class members until the whole
    class lies inside the closure."""
    elements = class_elements(degree, ct)
    seed = canonical_class_element(degree, ct)
    gens = [seed] + [t.conjugate(seed) for t in transpositions(degree)]
    while True:
        group = closure(degree, gens)
        missing = [e for e in elements if e not in group]
        if not missing:
            return len(group) == math.factorial(degree)
        gens.append(missing[0])


class TestMinWord:
    def test_transpositions_d4(self):
        r = min_factors_to_transposition(4, (2, 1, 1))
        assert r.length == 1
        assert r.witness == (Perm.transposition(4, 1, 2),)

    def test_four_cycles_d4(self):
        r = min_factors_to_transposition(4, (4,))
        assert r.length == 3
        # oracle: raw enumeration over products of up to 3 four-cycles
        assert oracle.o_min_word(4, (4,), oracle.from_perm(Perm.transposition(4, 1, 2)), 3) == 3

    def test_transpositions_d5(self):
        assert min_factors_to_transposition(5, (2, 1, 1, 1)).length == 1

    def test_even_class_rejected(self):
        with pytest.raises(ValueError):
            min_factors_to_transposition(4, (3, 1))

    def test_limit_returns_unknown(self):
        r = min_factors_to_transposition(4, (4,), limit=1)
        assert r.length is None and r.limit == 1

    def test_witness_multiplies_to_target(self):
        for d, ct in [(4, (4,)), (5, (2, 1, 1, 1)), (5, (4, 1)), (6, (3, 2, 1))]:
            r = min_factors_to_transposition(d, ct)
            assert r.length is not None
            word = Factorization(d, r.witness)
            assert word.product() == Perm.transposition(d, 1, 2)
            assert all(f.cycle_type() == ct for f in r.witness)
            assert r.length % 2 == 1  # parity forces odd witness lengths

    def test_minimality_against_oracle(self):
        for d, ct in [(4, (4,)), (4, (2, 1, 1)), (5, (4, 1))]:
            r = min_factors_to_transposition(d, ct)
            target = oracle.from_perm(Perm.transposition(d, 1, 2))
            assert oracle.o_min_word(d, ct, target, r.length) == r.length

    @pytest.mark.parametrize("d, ct", ODD_CLASSES, ids=class_ids(ODD_CLASSES))
    def test_class_algebra_matches_reference_and_oracle(self, d, ct):
        r = min_factors_to_transposition(d, ct)
        target = Perm.transposition(d, 1, 2)
        ref = reference_level_search(d, class_elements(d, ct), target, DEFAULT_SEARCH_DEPTH)
        assert r == ref
        assert oracle.o_min_word(d, ct, oracle.from_perm(target), r.length) == r.length
        assert len(r.witness) == r.length
        assert Factorization(d, r.witness).product() == target
        assert all(f.cycle_type() == ct for f in r.witness)
        if r.length > 1:
            short = r.length - 1
            assert min_factors_to_transposition(d, ct, limit=short) == \
                MinWordResult(None, None, limit=short)


class TestConstrainedMinWord:
    def test_examples(self):
        r = min_factors_to_transposition_fixing(4, (2, 1, 1), (3, 4))
        assert r.length == 1 and r.witness == (Perm.transposition(4, 1, 2),)
        assert min_factors_to_transposition_fixing(5, (2, 1, 1, 1), (3, 4)).length == 1
        r = min_factors_to_transposition_fixing(8, (3, 2, 1, 1, 1), (3, 4))
        assert [str(f) for f in r.witness] == ["(2,5)(6,7,8)", "(2,5)(6,7,8)", "(1,2)(6,7,8)"]

    def test_four_cycles_fixing_two_points(self):
        # matches the degree-4 answer: the search lives inside S_4 on {1,2,3,4}
        r = min_factors_to_transposition_fixing(6, (4, 1, 1), (5, 6))
        assert r.length == 3
        for f in r.witness:
            assert f(5) == 5 and f(6) == 6
            assert f.cycle_type() == (4, 1, 1)

    ANCHORED = [(d, ct, fixed) for d in range(4, 9) for ct in all_cycle_types(d)
                if class_parity(ct) and class_fixed_points(ct) >= 2
                for fixed in [(3, 4), (5, 6)] if max(fixed) <= d]

    @pytest.mark.parametrize("d, ct, fixed", ANCHORED,
                             ids=[f"d{d}-{format_cycle_type(ct)}-{a}{b}" for d, ct, (a, b) in ANCHORED])
    def test_anchored_search_is_the_class_search_of_degree_d_minus_2(self, d, ct, fixed):
        # The members fixing both anchors are the class of S_{d-2} on the other points.
        r = min_factors_to_transposition_fixing(d, ct, fixed)
        smaller = ct[:-2]    # non-increasing, so the last two parts are 1-cycles
        assert r.length == min_factors_to_transposition(d - 2, smaller).length
        a, b = fixed
        gens = tuple(g for g in class_elements(d, ct) if g(a) == a and g(b) == b)
        target = Perm.transposition(d, 1, 2)
        assert r == reference_level_search(d, gens, target, DEFAULT_SEARCH_DEPTH)
        if r.length > 1:
            short = r.length - 1
            assert min_factors_to_transposition_fixing(d, ct, fixed, limit=short) == \
                MinWordResult(None, None, limit=short)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            min_factors_to_transposition_fixing(4, (4,), (3, 4))  # f_C = 0
        with pytest.raises(ValueError):
            min_factors_to_transposition_fixing(5, (2, 1, 1, 1), (1, 3))
        with pytest.raises(ValueError):
            min_factors_to_transposition_fixing(5, (2, 1, 1, 1), (3, 3))
        with pytest.raises(ValueError):
            min_factors_to_transposition_fixing(8, (3, 2, 1, 1, 1), (3, 9))


class TestFullGroup:
    def test_examples(self):
        assert generates_full_group(4, (2, 1, 1))
        assert not generates_full_group(4, (3, 1))      # three-cycles give A_4
        assert generates_full_group(5, (2, 1, 1, 1))
        assert not generates_full_group(4, (2, 2))
        assert not generates_full_group(4, (1, 1, 1, 1))
        assert generates_full_group(4, (4,))
        assert generates_full_group(1, (1,))             # S_1 is trivial

    def test_matches_odd_rule_small(self):
        # the parity rule against the explicit closure of every class
        for d in range(1, 8):
            for ct in all_cycle_types(d):
                want = closure_generates_full_group(d, ct)
                assert want == (d == 1 or class_parity(ct) == 1)
                assert generates_full_group(d, ct) == want

    def test_answers_past_the_exhaustive_degree(self):
        assert generates_full_group(9, (2,) + (1,) * 7)
        assert not generates_full_group(9, (3,) + (1,) * 6)


class TestMetricsAndBound:
    def test_metrics_d4_transpositions(self):
        m = compute_class_metrics(4, (2, 1, 1))
        assert (m.order, m.size, m.fixed_points, m.parity) == (2, 6, 2, "odd")
        assert m.min_word.length == 1
        assert m.min_word_fixing.length == 1
        assert stability_bound(m) == 76

    def test_bound_d5_transpositions(self):
        m = compute_class_metrics(5, (2, 1, 1, 1))
        assert stability_bound(m) == 345

    def test_bound_rejects_no_fixed_points(self):
        m = compute_class_metrics(4, (4,))
        assert m.fixed_points == 0
        with pytest.raises(ValueError):
            stability_bound(m)

    def test_bound_rejects_even(self):
        m = compute_class_metrics(4, (2, 2))
        with pytest.raises(ValueError):
            stability_bound(m)

    def test_plain_and_anchored_m_agree_on_the_supported_degrees(self):
        # Class info carries no note for a plain m_C that differs from the
        # anchored one: at d = 4..8 no odd class with f_C >= 2 has one, and
        # class metrics stop at d = 8.
        classes = [(d, ct) for d in range(4, 9) for ct in all_cycle_types(d)
                   if class_parity(ct) and class_fixed_points(ct) >= 2]
        assert len(classes) == 12
        for d, ct in classes:
            m = compute_class_metrics(d, ct)
            assert m.min_word.known and m.min_word.length == m.min_word_fixing.length
        with pytest.raises(LimitExceededError):
            compute_class_metrics(9, (2,) + (1,) * 7)

    def test_degree_eight_class(self):
        m = compute_class_metrics(8, (3, 2, 1, 1, 1), limit=3)
        assert (m.order, m.size, m.fixed_points, m.parity) == (6, 1120, 3, "odd")
        assert m.generates_full
