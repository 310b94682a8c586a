"""Factorization words: moves, homomorphisms, conjugation, text formats."""
import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.orbits import expand, neighbors, orbit_images
from hurwitz.perms import Perm, centraliser_generators, closure
from hurwitz.words import (
    Factorization,
    Move,
    MoveKernel,
    Packing,
    TypeVector,
    conjugate_state,
    load_words,
    move_left_state,
    move_right_state,
    save_words,
)

import oracle


def W(d, text):
    return Factorization.parse_word(d, text)


def words(max_degree=5, max_len=6):
    def build(args):
        d, n, seed = args
        rng = random.Random(seed)
        pool = [Perm(p) for p in itertools.permutations(range(1, d + 1))]
        pool = [p for p in pool if not p.is_identity()]
        return Factorization(d, tuple(rng.choice(pool) for _ in range(n)))
    return st.tuples(st.integers(2, max_degree), st.integers(1, max_len),
                     st.integers(0, 10**6)).map(build)


class TestConstruction:
    def test_rejects_identity_factor(self):
        with pytest.raises(ValueError):
            Factorization(3, (Perm.identity(3),))
        with pytest.raises(ValueError, match="identity factors are not allowed"):
            Factorization.of(3, ["(1,2)", "()", "(2,3)"])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            Factorization(3, (Perm.identity(4),))

    def test_empty_word(self):
        w = Factorization.empty(3)
        assert len(w) == 0
        assert w.product().is_identity()
        assert w.type_vector().counts == ()


class TestHomomorphisms:
    def test_product_examples(self):
        assert Factorization.empty(3).product().is_identity()
        assert W(3, "(1,2)(2,3)").product() == Perm.parse("(1,2,3)", 3)
        h3 = W(3, "(1,2)(2,3)").repeated(3)
        assert h3.product().is_identity()

    def test_type_and_length(self):
        w = W(3, "(1,2)(2,3)(1,3)")
        assert w.type_vector() == TypeVector.single((2, 1), 3)
        assert len(w) == 3

    def test_generated_subgroup_examples(self):
        assert len(closure(3, W(3, "(1,2)").factors)) == 2
        assert len(closure(3, W(3, "(1,2)(2,3)").factors)) == 6
        klein = Factorization.of(4, ["(1,2)(3,4)", "(1,3)(2,4)"])
        assert len(closure(4, klein.factors)) == 4

    @given(words())
    def test_concat_is_product_homomorphism(self, w):
        half = len(w) // 2
        s1 = Factorization(w.degree, w.factors[:half])
        s2 = Factorization(w.degree, w.factors[half:])
        assert s1.concat(s2).product() == s1.product() * s2.product()

    def test_predicates(self):
        w = W(3, "(1,2)(2,3)")
        assert not Factorization.of(4, ["(1,2)(3,4)"]).is_transitive()
        assert w.is_transitive()


class TestMoves:
    def test_move_examples(self):
        w = W(3, "(1,2)(2,3)")
        assert w.apply_move(Move(1, "R")) == W(3, "(1,3)(1,2)")
        fixed = W(3, "(1,2)(1,2)")
        assert fixed.apply_move(Move(1, "R")) == fixed

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            W(3, "(1,2)(2,3)").apply_move(Move(2, "R"))
        with pytest.raises(ValueError):
            Move(0, "R")
        with pytest.raises(ValueError):
            Move(1, "X")

    @given(words(max_len=6), st.randoms(use_true_random=False))
    def test_left_right_cancel_at_every_position(self, w, rng):
        for pos in range(1, len(w)):
            assert w.apply_move(Move(pos, "R")).apply_move(Move(pos, "L")) == w
            assert w.apply_move(Move(pos, "L")).apply_move(Move(pos, "R")) == w

    @given(words(max_len=8), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_random_moves_preserve_invariants(self, w, seed):
        rng = random.Random(seed)
        before = (w.product(), w.type_vector(), len(w), closure(w.degree, w.factors))
        out = w
        for _ in range(rng.randint(1, 30)):
            if len(out) < 2:
                break
            out = out.apply_move(Move(rng.randint(1, len(out) - 1), rng.choice("LR")))
        assert (out.product(), out.type_vector(), len(out), closure(out.degree, out.factors)) == before

    @given(words(max_len=6))
    def test_moves_match_oracle(self, w):
        if len(w) < 2:
            return
        for i in range(len(w) - 1):
            got = w.apply_move(Move(i + 1, "R"))
            want = oracle.o_move_r(oracle.from_word(w.factors), i)
            assert oracle.from_word(got.factors) == want
            got = w.apply_move(Move(i + 1, "L"))
            want = oracle.o_move_l(oracle.from_word(w.factors), i)
            assert oracle.from_word(got.factors) == want


class TestMoveKernel:
    """The integer-coded kernel against the ``Perm`` reference moves."""

    def test_codes_are_permutation_ranks(self):
        for d in range(1, 6):
            kernel = MoveKernel(d)
            for rank, images in enumerate(itertools.permutations(range(1, d + 1))):
                assert kernel.encode(Perm(images)) == rank
                assert kernel.decode_word((rank,)) == (Perm(images),)

    @pytest.mark.parametrize("d", [6, 7, 9])
    def test_codes_pass_one_byte(self, d):
        last = Perm(range(d, 0, -1))
        assert MoveKernel(d).encode(last) == math.factorial(d) - 1 > 255

    @given(words(max_degree=7, max_len=6))
    @settings(max_examples=60)
    def test_neighbors_match_reference_moves(self, w):
        kernel = MoveKernel(w.degree)
        coded = kernel.encode_word(w.factors)
        assert kernel.decode_word(coded) == w.factors
        packing = Packing(kernel, len(w))
        packed = packing.pack(coded)
        want = []
        for i0 in range(len(w) - 1):
            want.append(move_right_state(w.factors, i0))
            want.append(move_left_state(w.factors, i0))
        got = neighbors(packing, packed)
        assert [kernel.decode_word(packing.unpack(c)) for c in got] == want
        # a second expansion is served from the memo table
        assert neighbors(packing, packed) == got
        # expand yields the same words in the same order, each new one once
        assert list(expand(packing, [packed], {packed: None})) == \
            list(dict.fromkeys(c for c in got if c != packed))

    @given(words(max_degree=7, max_len=6), st.booleans())
    @settings(max_examples=60)
    def test_orbit_images_match_reference_moves(self, w, conj):
        # R_1, the rotation D (R at positions 1, ..., n-1 in turn), then
        # under the quotient the conjugates by (1,2) and (1 2 ... d)
        kernel = MoveKernel(w.degree)
        want = []
        if len(w) > 1:
            rotated = w.factors
            for i0 in range(len(w) - 1):
                rotated = move_right_state(rotated, i0)
            want += [move_right_state(w.factors, 0), rotated]
        if conj:
            want += [conjugate_state(w.factors, g) for g in centraliser_generators(Perm.identity(w.degree))]
        images = orbit_images(kernel, conj)
        got = images(kernel.encode_word(w.factors))
        assert [kernel.decode_word(c) for c in got] == want
        # a second call is served from the memo tables
        assert images(kernel.encode_word(w.factors)) == got

    @given(st.one_of(st.tuples(st.integers(1, 5), st.integers(0, 5)), st.just((8, 6))),
           st.integers(0, 10**6))
    def test_packing_round_trips_and_keeps_order(self, shape, seed):
        # d = 1 and 2 have bases 1 and 2; d = 8 with 6 factors packs past 2^63
        d, n = shape
        rng = random.Random(seed)
        kernel, base = MoveKernel(d), math.factorial(d)
        packing = Packing(kernel, n)
        a = tuple(rng.randrange(base) for _ in range(n))
        shared = rng.randint(0, n)  # b agrees with a on a random prefix
        b = a[:shared] + tuple(rng.randrange(base) for _ in range(n - shared))
        for x in (a, b):
            assert packing.unpack(packing.pack(x)) == x
            assert 0 <= packing.pack(x) < base ** n
        for x, y in ((a, b), (b, a), (a, a)):
            assert (x < y) == (packing.pack(x) < packing.pack(y))
        if d == 8:
            assert packing.pack((base - 1,) * n) == base ** n - 1 > 2 ** 63

    @given(st.integers(2, 7), st.integers(1, 4), st.integers(0, 10**6))
    def test_coding_keeps_word_order(self, d, n, seed):
        rng = random.Random(seed)
        pool = [Perm(p) for p in itertools.permutations(range(1, d + 1))]
        kernel = MoveKernel(d)
        a = tuple(rng.choice(pool) for _ in range(n))
        shared = rng.randint(0, n)  # b agrees with a on a random prefix
        b = a[:shared] + tuple(rng.choice(pool) for _ in range(n - shared))
        for x, y in ((a, b), (b, a), (a, a)):
            assert (x < y) == (kernel.encode_word(x) < kernel.encode_word(y))

    @staticmethod
    def check_tables(kernel, pairs):
        for a, b in pairs:
            ca, cb = kernel.encode(a), kernel.encode(b)
            assert kernel.decode(kernel.mul[ca][cb]) == a * b
            assert kernel.decode(kernel.conjugate[ca][cb]) == a * b * a.inverse()
            assert kernel.decode(kernel.inverse[cb]) == b.inverse()
            assert kernel.reflection[cb] == b.reflection_length()

    def test_tables_match_perm_arithmetic_on_every_pair_d3(self):
        pool = [Perm(p) for p in itertools.permutations(range(1, 4))]
        kernel = MoveKernel(3)
        self.check_tables(kernel, itertools.product(pool, repeat=2))
        # every row is full now, and a second pass is served from the rows
        assert all(len(table) == 6 and all(len(row) == 6 for row in table.values())
                   for table in (kernel.mul, kernel.conjugate))
        assert len(kernel.inverse) == len(kernel.reflection) == 6
        assert kernel.identity == 0 and kernel.decode(kernel.identity).is_identity()
        self.check_tables(kernel, itertools.product(pool, repeat=2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_tables_match_perm_arithmetic_on_random_pairs_d5(self, seed):
        rng = random.Random(seed)
        pool = [Perm(p) for p in itertools.permutations(range(1, 6))]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
        kernel = MoveKernel(5)
        self.check_tables(kernel, pairs)
        self.check_tables(kernel, pairs)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MoveKernel(3).encode(Perm.identity(4))

    def test_freed_without_the_cyclic_collector(self):
        gc.disable()
        try:
            kernel = MoveKernel(4)
            a, b = kernel.encode_word(W(4, "(1,2)(2,3,4)").factors)
            kernel.conjugate[a][b], kernel.mul[a][b], kernel.inverse[a], kernel.reflection[a]
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
        finally:
            gc.enable()


class TestConjugation:
    def test_rho_examples(self):
        w = W(3, "(1,2)(2,3)")
        assert w.conjugated_by(Perm.identity(3)) == w
        assert w.conjugated_by(Perm.parse("(1,3)", 3)) == W(3, "(2,3)(1,2)")

    def test_rho_covariance(self):
        w = W(3, "(1,2)(2,3)")
        g = Perm.parse("(1,3)", 3)
        assert w.conjugated_by(g).product() == g * w.product() * g.inverse()

    @given(words(), st.integers(0, 10**6))
    def test_rho_covariance_random(self, w, seed):
        rng = random.Random(seed)
        images = list(range(1, w.degree + 1))
        rng.shuffle(images)
        g = Perm(images)
        assert w.conjugated_by(g).product() == g * w.product() * g.inverse()
        assert w.conjugated_by(g).type_vector() == w.type_vector()

    @given(words(max_len=6), st.integers(0, 10**6))
    def test_rho_commutes_with_moves(self, w, seed):
        if len(w) < 2:
            return
        rng = random.Random(seed)
        images = list(range(1, w.degree + 1))
        rng.shuffle(images)
        g = Perm(images)
        m = Move(rng.randint(1, len(w) - 1), rng.choice("LR"))
        assert w.apply_move(m).conjugated_by(g) == w.conjugated_by(g).apply_move(m)


class TestTypeVector:
    def test_parse_format(self):
        tv = TypeVector.parse("2,1,1:6", 4)
        assert tv == TypeVector.single((2, 1, 1), 6)
        assert str(tv) == "2,1,1:6"
        multi = TypeVector.parse("3,1:2;2,1,1:6", 4)
        assert multi.total() == 8
        assert str(multi) == "2,1,1:6;3,1:2"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            TypeVector.parse("2,1", 3)
        with pytest.raises(ValueError):
            TypeVector.parse("", 3)
        with pytest.raises(ValueError):
            TypeVector.single((2, 1), 0)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        ws = [W(3, "(1,2) (2,3) (1,3)"), W(3, "(1,2,3)"), Factorization.empty(3)]
        path = tmp_path / "words.txt"
        save_words(path, 3, ws)
        degree, back = load_words(path)
        assert degree == 3
        assert back == ws

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("(1,2)\n")
        with pytest.raises(ValueError):
            load_words(path)

    def test_inline_forms(self):
        assert len(W(4, "(1,2)(2,3)")) == 2          # unspaced: one factor per bracket
        w = W(4, "(1,2)(3,4) (1,3)")                  # spaced: multi-cycle factor
        assert len(w) == 2
        assert w.factors[0] == Perm.parse("(1,2)(3,4)", 4)
        assert len(W(4, "[2,1,4,3]")) == 1
        assert len(W(4, "()")) == 0
        with pytest.raises(ValueError):
            W(4, "(1,2")
