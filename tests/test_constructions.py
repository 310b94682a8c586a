"""Explicit stable words: length formulas, products, claim certification."""
import itertools
import random

import pytest

from hurwitz.constructions import (
    ConstructionContext,
    block_shift_left_cert,
    block_shift_right_cert,
    centralizer_invariant,
    check_braid_relations,
    check_centralizer_invariance,
    check_conjugation_classes,
    check_defining_relation,
    check_length_formulas,
    check_stable_tail,
    conjugator,
    embedded_ladder_cube,
    embedded_transposition,
    ladder_cube,
    rewrite_with_stable_tail,
    square_ladder,
    transposition_word,
)
from hurwitz.orbits import FiberSpec, SearchLimits, count_orbits_in_fiber
from hurwitz.perms import Perm, class_elements, closure, transpositions
from hurwitz.reports import exit_code
from hurwitz.words import Factorization, Move, TypeVector

LIM = SearchLimits(max_states=300_000, max_fiber=300_000)


class TestConjugator:
    def test_property_everywhere(self):
        for d in (3, 4, 5, 6):
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    if i == j:
                        continue
                    s = conjugator(d, i, j)
                    assert s.conjugate(Perm.transposition(d, 1, 2)) == Perm.transposition(d, i, j)

    def test_identity_on_base_pair(self):
        assert conjugator(6, 1, 2).is_identity()

    def test_deterministic(self):
        assert conjugator(5, 3, 5) == conjugator(5, 3, 5)


class TestContext:
    def test_anchored_witness(self):
        ctx = ConstructionContext.create(4, (2, 1, 1))
        assert ctx.witness == (Perm.transposition(4, 1, 2),)
        assert ctx.anchors == (3, 4)

    def test_unanchored_context_for_d3(self):
        ctx = ConstructionContext.create(3, (2, 1))
        assert ctx.anchors is None
        with pytest.raises(ValueError):
            centralizer_invariant(ctx, 4)

    def test_even_class_rejected(self):
        with pytest.raises(ValueError):
            ConstructionContext.create(4, (3, 1))

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            ConstructionContext(4, (2, 1, 1), (Perm.transposition(4, 1, 3),))
        with pytest.raises(ValueError):
            ConstructionContext(4, (2, 1, 1), (Perm.transposition(4, 3, 4),), anchors=(3, 4))


class TestBuilders:
    def test_ladder_cube_degree2(self):
        h = ladder_cube(2)
        assert h.factors == (Perm.transposition(2, 1, 2),) * 3

    def test_ladder_cube_lengths_and_products(self):
        for d in range(2, 9):
            h = ladder_cube(d)
            assert len(h) == 3 * (d - 1)
        assert ladder_cube(4).product() == Perm.parse("(1,4,3,2)", 4)
        assert ladder_cube(3).product().is_identity()
        assert ladder_cube(4).type_vector() == TypeVector.single((2, 1, 1), 9)

    def test_transposition_words_all_pairs(self):
        for d, ct in [(4, (2, 1, 1)), (5, (2, 1, 1, 1)), (6, (4, 1, 1))]:
            ctx = ConstructionContext.create(d, ct)
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    w = transposition_word(ctx, i, j)
                    assert w.product() == Perm.transposition(d, i, j)
                    assert len(w) == ctx.witness_length
                    assert all(f.cycle_type() == ct for f in w.factors)

    def test_square_ladder_d3(self):
        ctx = ConstructionContext.create(3, (2, 1))
        c = square_ladder(ctx)
        assert c == Factorization.parse_word(3, "(1,2) (1,2) (2,3) (2,3)")
        assert c.product().is_identity()

    def test_square_ladder_properties(self):
        import math
        for d, ct in [(4, (2, 1, 1)), (5, (2, 1, 1, 1)), (6, (4, 1, 1))]:
            ctx = ConstructionContext.create(d, ct)
            c = square_ladder(ctx)
            assert len(c) == 2 * (d - 1) * ctx.witness_length
            assert c.product().is_identity()
            assert len(closure(d, c.factors)) == math.factorial(d)

    def test_invariant_stage_lengths(self):
        ctx4 = ConstructionContext.create(4, (2, 1, 1))
        assert len(centralizer_invariant(ctx4, 4)) == 7
        ctx5 = ConstructionContext.create(5, (2, 1, 1, 1))
        assert len(centralizer_invariant(ctx5, 4)) == 9
        assert len(centralizer_invariant(ctx5, 5)) == 27
        for k in (4, 5):
            assert centralizer_invariant(ctx5, k).product() == Perm.transposition(5, 1, 2)
        with pytest.raises(ValueError):
            centralizer_invariant(ctx4, 5)
        with pytest.raises(ValueError):
            centralizer_invariant(ctx4, 3)

    def test_embedded_transpositions(self):
        ctx = ConstructionContext.create(4, (2, 1, 1))
        for i, j in itertools.combinations(range(1, 5), 2):
            z = embedded_transposition(ctx, i, j)
            assert z.product() == Perm.transposition(4, i, j)
            assert len(z) == 7
            assert z.type_vector() == TypeVector.single((2, 1, 1), 7)

    def test_embedded_ladder_cube_lengths(self):
        ctx4 = ConstructionContext.create(4, (2, 1, 1))
        hc4 = embedded_ladder_cube(ctx4)
        assert len(hc4) == 63
        assert hc4.type_vector() == TypeVector.single((2, 1, 1), 63)
        ctx5 = ConstructionContext.create(5, (2, 1, 1, 1))
        assert len(embedded_ladder_cube(ctx5)) == 324

    def test_four_cycle_class_lengths(self):
        # witness length 3 scales every formula
        ctx = ConstructionContext.create(6, (4, 1, 1))
        assert ctx.witness_length == 3
        assert len(centralizer_invariant(ctx, 4)) == 11 * 3
        assert len(centralizer_invariant(ctx, 6)) == 9 * 11 * 3
        assert len(embedded_ladder_cube(ctx)) == 27 * 11 * 5 * 3


class TestBlockCertificates:
    @pytest.mark.parametrize("seed", range(6))
    def test_right_shift(self, seed):
        rng = random.Random(seed)
        gens = class_elements(4, (2, 1, 1))
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a = Factorization(4, tuple(rng.choice(gens) for _ in range(p)))
        b = Factorization(4, tuple(rng.choice(gens) for _ in range(q)))
        moved = a.concat(b).apply_moves(block_shift_right_cert(p, q))
        assert moved == b.conjugated_by(a.product()).concat(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_left_shift(self, seed):
        rng = random.Random(seed)
        gens = class_elements(4, (2, 1, 1))
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a = Factorization(4, tuple(rng.choice(gens) for _ in range(p)))
        b = Factorization(4, tuple(rng.choice(gens) for _ in range(q)))
        moved = a.concat(b).apply_moves(block_shift_left_cert(p, q))
        assert moved == b.concat(a.conjugated_by(b.product().inverse()))

    def test_offset(self):
        w = Factorization.parse_word(3, "(1,2)(2,3)(1,3)")
        shifted = [m.shifted(1) for m in block_shift_right_cert(1, 1)]
        assert w.apply_moves(shifted).factors[0] == w.factors[0]


class TestClaims:
    def test_stage_commutes_with_its_mirror(self):
        # the recursion's key step: a stage word and its next-point mirror
        # commute as semigroup elements (degree 5 is the smallest with a mirror)
        from hurwitz.orbits import are_equivalent
        from hurwitz.words import apply_moves_state
        ctx = ConstructionContext.create(5, (2, 1, 1, 1))
        y = centralizer_invariant(ctx, 4)
        mirror = y.conjugated_by(Perm.transposition(5, 4, 5))
        lhs, rhs = y.concat(mirror), mirror.concat(y)
        mini = are_equivalent(mirror.conjugated_by(Perm.transposition(5, 1, 2)),
                              mirror, LIM)
        assert mini.status == "yes"
        moves = block_shift_right_cert(len(y), len(mirror)) + list(mini.certificate)
        assert apply_moves_state(lhs.factors, moves) == rhs.factors

    def test_centralizer_invariance_d4(self):
        ctx = ConstructionContext.create(4, (2, 1, 1))
        report = check_centralizer_invariance(ctx, LIM)
        assert not report.falsified and report.complete
        names = {row.name: row for row in report.rows}
        positive = [row for row in report.rows if row.expected == "yes"]
        assert {row.status for row in positive} == {"yes"}
        z = embedded_transposition(ctx, 1, 2)
        for row in positive:
            sigma = Perm.parse(row.name.split()[2], 4)
            assert z.conjugated_by(sigma).apply_moves(row.moves) == z
        negative = [row for row in report.rows if row.expected == "no"]
        assert negative and negative[0].status == "no"

    def test_conjugation_classes_d4(self):
        ctx = ConstructionContext.create(4, (2, 1, 1))
        report = check_conjugation_classes(ctx, LIM)
        assert not report.falsified and report.complete
        assert report.summary["class_count"] == 6
        assert sorted(report.summary["products"]) == sorted(
            str(t) for t in transpositions(4))

    def test_conjugation_classes_at_a_state_limit_count_nothing(self):
        # an undecided row states no class count, and the summary counts
        # classes only when every row is decided
        ctx = ConstructionContext.create(4, (2, 1, 1))
        report = check_conjugation_classes(ctx, SearchLimits(max_states=2))
        assert exit_code([row.status != "unknown" for row in report.rows], report.falsified) == 2
        assert [row.detail for row in report.rows] == \
            ["4 conjugate words, classes undecided (max_states=2)"] * 6
        assert report.summary["class_count"] is None
        assert report.summary["expected_count"] == 6

    def test_one_undecided_product_leaves_the_class_count_open(self, monkeypatch):
        import hurwitz.constructions as constructions
        from hurwitz.orbits import EquivalenceReport
        real = constructions.are_equivalent
        cut = Perm.transposition(4, 1, 2)

        def equivalent(w1, w2, limits):
            if w1.product() == cut:
                return EquivalenceReport("unknown", None, 2, "max_states=2")
            return real(w1, w2, limits)

        monkeypatch.setattr(constructions, "are_equivalent", equivalent)
        report = check_conjugation_classes(ConstructionContext.create(4, (2, 1, 1)), LIM)
        by_status = {}
        for row in report.rows:
            by_status.setdefault(row.status, []).append(row.detail)
        assert by_status == {
            "yes": ["4 conjugate words, 1 classes"] * 5,
            "unknown": ["4 conjugate words, classes undecided (max_states=2)"],
        }
        assert report.summary["class_count"] is None

    def test_braid_relations_d4(self):
        ctx = ConstructionContext.create(4, (2, 1, 1))
        report = check_braid_relations(ctx, LIM)
        assert not report.falsified and report.complete
        assert report.summary["triples_checked"] == 4
        assert report.summary["quadruples_checked"] == 1

    def test_braid_relations_with_a_cut_short_block_search(self):
        # a short-block search that hits the limit leaves its row unknown,
        # with no certificate; rows whose short blocks are equal still certify
        ctx = ConstructionContext.create(4, (2, 1, 1))
        report = check_braid_relations(ctx, SearchLimits(max_states=2))
        unknown = [row for row in report.rows if row.status == "unknown"]
        assert unknown and not report.complete and not report.falsified
        for row in unknown:
            assert (row.moves, row.detail) == (None, "short-block search max_states=2")
        for row in report.rows:
            assert row.status in ("yes", "unknown")

    def test_defining_relation_d3(self):
        report = check_defining_relation(3, LIM, samples=4, seed=11)
        assert not report.falsified and report.complete

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_claims_need_a_sample(self, samples):
        # no sample checked is no verification, so it cannot read complete
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_defining_relation(3, LIM, samples=samples)
        for degree, ct in ((3, (2, 1)), (4, (2, 1, 1))):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                check_stable_tail(degree, ct, LIM, samples=samples)

    def test_wrong_certificate_is_an_error(self, monkeypatch):
        # an empty certificate between different words cannot replay; the
        # guard is a raise, not an assert, so it also holds under python -O
        import hurwitz.constructions as constructions
        from hurwitz.orbits import EquivalenceReport
        monkeypatch.setattr(constructions, "are_equivalent",
                            lambda w1, w2, limits: EquivalenceReport("yes", (), 0))
        ctx = ConstructionContext.create(4, (2, 1, 1))
        with pytest.raises(RuntimeError, match="certificate replay failed"):
            check_centralizer_invariance(ctx, LIM)

    def test_claim_two_replays_its_certificates(self, monkeypatch):
        # claim 2 compares conjugates through the same replaying row as claim 1
        import hurwitz.constructions as constructions
        from hurwitz.orbits import EquivalenceReport
        monkeypatch.setattr(constructions, "are_equivalent",
                            lambda w1, w2, limits: EquivalenceReport("yes", (Move(1, "R"),), 0))
        ctx = ConstructionContext.create(4, (2, 1, 1))
        with pytest.raises(RuntimeError, match="certificate replay failed"):
            check_conjugation_classes(ctx, LIM)

    def test_composite_replay_mismatch_is_an_error(self, monkeypatch):
        # a composite certificate that misses its target is a program fault,
        # not a falsification of claim 3
        import hurwitz.constructions as constructions
        shift = constructions.block_shift_right_cert
        monkeypatch.setattr(constructions, "block_shift_right_cert",
                            lambda left_len, right_len: shift(left_len, right_len)[:-1])
        ctx = ConstructionContext.create(4, (2, 1, 1))
        with pytest.raises(RuntimeError, match="composite certificate replay failed"):
            check_braid_relations(ctx, LIM)

    def test_length_formulas_report(self):
        report = check_length_formulas(5, (2, 1, 1, 1))
        assert not report.falsified
        assert report.summary["witness_length"] == 1


class TestStableTail:
    def test_already_ending(self):
        tail = ladder_cube(3)
        word = Factorization.parse_word(3, "(1,3)").concat(tail)
        tr = rewrite_with_stable_tail(word, tail, LIM)
        assert tr.status == "yes" and tr.moves == ()

    def test_rewrites_and_replays(self):
        tail = ladder_cube(3)
        word = Factorization.parse_word(3, "(1,2) (1,3) (2,3) (1,2) (1,3) (2,3) (1,2)")
        tr = rewrite_with_stable_tail(word, tail, LIM)
        assert tr.status == "yes"
        final = word.apply_moves(tr.moves)
        assert final.factors[-len(tail):] == tail.factors

    def test_every_generating_word_rewrites_d3(self):
        # exhaustive at lengths 7 and 8: every full-group word's orbit contains
        # a word ending in the cubed ladder
        tail = ladder_cube(3).factors
        full = frozenset(Perm(p) for p in itertools.permutations((1, 2, 3)))
        for length in (7, 8):
            for alpha_images in itertools.permutations((1, 2, 3)):
                alpha = Perm(alpha_images)
                if alpha.parity() != length % 2:
                    continue
                spec = FiberSpec(3, TypeVector.single((2, 1), length), alpha, "full_group")
                r = count_orbits_in_fiber(spec, LIM, want_partition=True)
                assert r.complete
                for part in r.partition:
                    assert any(w[len(w) - len(tail):] == tail for w in part)

    def test_unknown_when_orbit_exhausted(self):
        tail = ladder_cube(3)
        # a non-generating word can never end in the full ladder
        word = Factorization(3, (Perm.transposition(3, 1, 2),) * 7)
        tr = rewrite_with_stable_tail(word, tail, LIM)
        assert tr.status == "unknown"
        assert "no member ends with the tail" in tr.detail

    def test_report_modes(self):
        ladder_report = check_stable_tail(3, (2, 1), LIM, samples=2, seed=3)
        assert ladder_report.summary["mode"] == "ladder"
        assert all(r.status == "yes" for r in ladder_report.rows)
        embedded_report = check_stable_tail(4, (2, 1, 1), LIM, seed=3)
        assert embedded_report.summary["mode"] == "embedded"
        by_name = {r.name: r.status for r in embedded_report.rows}
        assert by_name["pigeonhole precheck"] == "yes"
        assert by_name["word already ending in the block"] == "yes"
        assert by_name["word scrambled by two moves"] == "yes"
        assert by_name["generic long word"] == "unknown"
        with pytest.raises(ValueError):
            check_stable_tail(4, (3, 1), LIM)
