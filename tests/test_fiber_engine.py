"""Differential tests for the coded fiber engine.

``enumerate_fiber`` runs on kernel codes, carries target^-1 prefix, and
reads its reflection length and the last factor off the kernel's tables.
``count_orbits_in_fiber`` labels every fiber by one search along R_1 and the
rotation, on the sub-fiber of the least word of each orbit under the
centraliser G of the product, adding a loop by each generator of a word's
stabiliser in G, and reads the braid orbits, their least words and the
partition off the cosets of each class's stabiliser.  G's generators and
orbits come from ``_conjugation_orbits``, one level per stabiliser of the
factors placed so far, shared by every type of a product; every level,
asked in a random order, is checked against a brute force over S_d and
against the same level asked in code order, the sub-fiber against the
least words of the whole fiber's G-orbits and its weights against their
sizes, and two and three factors, where a count walks only the levels of
prefixes of at most n - 2 factors, against the plain row and the oracle.
Each is checked here against
a plain reference written in this file or against the oracle: a
backtracking over ``Perm`` values without pruning (same words, same order),
a prefix-product count (same size), a union-find over the R move at every
position (same orbits, counts, least words and rows, also those of
``count_components``), and two independent partitioners (same orbits, with
and without the conjugation quotient); the quotient's count,
representatives and size are also checked against sweeps of the full
fiber, and every cap against the full fiber's size.  The kernel and fiber
tables that a process keeps from one count to the next are checked by
running a mixed sequence of specs in one process against each spec run
after they are cleared.
"""
import functools
import math
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import orbits, reports
from hurwitz.cli import main
from hurwitz.orbits import (
    CONSTRAINTS,
    FiberReport,
    FiberSpec,
    ScanRow,
    SearchLimits,
    count_orbits,
    count_orbits_in_fiber,
    enumerate_fiber,
    orbit_partition_by_sweeps,
    stable_length_scan,
)
from hurwitz.perms import (Perm, all_cycle_types, all_perms, centraliser_generators, class_elements, class_parity,
                           closure, transpositions)
from hurwitz.reports import ComponentQuery, count_components
from hurwitz.words import (Factorization, Move, MoveKernel, TypeVector, conjugate_state, kernel_of,
                           move_right_state)

import oracle

LIM = SearchLimits(max_states=200_000, max_fiber=200_000)

# (degree, type, product): identity and non-identity products, one class
# and mixed types, one to five factors, degrees 3 to 5.
CASES = [
    (3, "2,1:1", "(1,2)"),
    (4, "4:1", "(1,2,3,4)"),
    (3, "2,1:2", "()"),
    (3, "2,1:4", "()"),
    (3, "2,1:3", "(1,2)"),
    (3, "3:3", "()"),
    (3, "3:3", "(1,2,3)"),
    (3, "2,1:2;3:1", "()"),
    (4, "2,1,1:4", "()"),
    (4, "2,1,1:5", "(1,2)"),
    (4, "2,1,1:4", "(1,2)(3,4)"),
    (4, "2,1,1:2;3,1:1", "()"),
    (4, "2,2:2;2,1,1:2", "()"),
    (4, "3,1:3", "()"),
    (4, "4:2", "(1,3)(2,4)"),
    # two odd classes: the last factor's class must be the one left
    (4, "2,1,1:1;4:1", "(1,2)(3,4)"),
    # orbits whose least word starts in the later class
    (4, "2,2:1;4:2", "()"),
    (5, "2,1,1,1:4", "()"),
    (5, "2,1,1,1:4", "(1,2,3)"),
    (5, "2,1,1,1:4", "(1,2,3,4,5)"),
    (5, "3,1,1:3", "()"),
    (5, "5:3", "()"),
    (5, "2,1,1,1:2;3,1,1:1", "()"),
]


def spec_of(d, type_text, product, constraint="none", conj=False):
    return FiberSpec(d, TypeVector.parse(type_text, d), Perm.parse(product, d),
                     constraint, conj)


@functools.lru_cache(maxsize=None)
def satisfies(d, factors, constraint):
    """Whether the set of factors meets the constraint, by the oracle."""
    if constraint == "none":
        return True
    w0 = oracle.from_word(sorted(factors))
    if constraint == "transitive":
        return oracle.o_is_transitive(d, w0)
    return len(oracle.o_subgroup(d, w0)) == math.factorial(d)


def perm_backtracking(spec):
    """Every word of the spec, by backtracking over Perm values without
    pruning: classes in sorted cycle-type order, elements sorted."""
    d = spec.degree
    counts = spec.type_vector.as_dict()
    total = spec.type_vector.total()
    out, prefix = [], []

    def rec(product):
        if len(prefix) == total:
            if product == spec.product and satisfies(d, frozenset(prefix), spec.constraint):
                out.append(tuple(prefix))
            return
        for ct in sorted(counts):
            if counts[ct] == 0:
                continue
            counts[ct] -= 1
            for g in class_elements(d, ct):
                prefix.append(g)
                rec(product * g)
                prefix.pop()
            counts[ct] += 1

    rec(Perm.identity(d))
    return out


def prefix_product_count(spec):
    """Fiber size for constraint ``none``: word counts by (classes left,
    prefix product), one factor at a time."""
    d = spec.degree
    cts = sorted(spec.type_vector.as_dict())
    start = tuple(spec.type_vector.as_dict()[ct] for ct in cts)
    layer = {(start, Perm.identity(d)): 1}
    for _ in range(spec.type_vector.total()):
        nxt = {}
        for (left, product), n in layer.items():
            for k, ct in enumerate(cts):
                if left[k] == 0:
                    continue
                rest = left[:k] + (left[k] - 1,) + left[k + 1:]
                for g in class_elements(d, ct):
                    key = (rest, product * g)
                    nxt[key] = nxt.get(key, 0) + n
        layer = nxt
    return sum(n for (_, product), n in layer.items() if product == spec.product)


def all_positions_partition(words, d, conj):
    """The fiber's orbits by a union-find over ``Perm`` words that joins each
    word to its R image at every position and, under the quotient, to its
    conjugate by every transposition."""
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, w in enumerate(words):
        images = [move_right_state(w, k) for k in range(len(w) - 1)]
        if conj:
            images += [conjugate_state(w, t) for t in transpositions(d)]
        for image in images:
            parent[find(index[image])] = find(i)
    classes = {}
    for i, w in enumerate(words):
        classes.setdefault(find(i), set()).add(w)
    return sorted(map(frozenset, classes.values()), key=min)


@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("d,type_text,product", CASES)
def test_enumeration_matches_perm_backtracking(d, type_text, product, constraint):
    spec = spec_of(d, type_text, product, constraint)
    fr = enumerate_fiber(spec, LIM)
    assert fr.complete
    assert fr.words == perm_backtracking(spec)
    assert fr.size == len(fr.coded) == len(fr.words)


@pytest.mark.parametrize("d,type_text,product", CASES)
def test_size_matches_prefix_product_count(d, type_text, product):
    spec = spec_of(d, type_text, product)
    assert enumerate_fiber(spec, LIM).size == prefix_product_count(spec)


def partition_cases():
    for d, type_text, product in CASES:
        for constraint in CONSTRAINTS:
            yield d, type_text, product, constraint, False
            if product == "()":
                yield d, type_text, product, constraint, True


@pytest.mark.parametrize("d,type_text,product,constraint,conj", list(partition_cases()))
def test_partition_matches_sweeps_and_oracle(d, type_text, product, constraint, conj):
    spec = spec_of(d, type_text, product, constraint, conj)
    words = enumerate_fiber(spec, LIM).words
    r = count_orbits_in_fiber(spec, LIM, want_partition=True)
    assert r.complete and r.fiber_size == len(words)
    sweeps = orbit_partition_by_sweeps(words, d, LIM, conjugation_quotient=conj)
    assert r.partition == sweeps == all_positions_partition(words, d, conj)
    want = oracle.o_partition([oracle.from_word(w) for w in words], conj, d)
    got = sorted((frozenset(map(oracle.from_word, part)) for part in r.partition), key=min)
    assert got == want
    assert r.orbit_count == len(r.partition)
    assert [rep.factors for rep in r.representatives] == [min(p) for p in r.partition]
    # without the partition, the count and representatives are the same
    plain = count_orbits_in_fiber(spec, LIM)
    assert plain.partition is None
    assert (plain.orbit_count, plain.representatives) == (r.orbit_count, r.representatives)


@pytest.mark.parametrize("d,type_text,product,constraint,conj", list(partition_cases()))
def test_sub_fiber_size_is_the_whole_fiber_size(d, type_text, product, constraint, conj):
    # The sub-fiber keeps fewer words, but its size counts the whole fiber,
    # each kept word weighted by the size of its orbit under G, and that is
    # the size the count reports.
    spec = spec_of(d, type_text, product, constraint, conj)
    whole = enumerate_fiber(spec, LIM)
    sub = enumerate_fiber(spec, LIM, sub_fiber=True)
    assert sub.complete and set(sub.coded) <= set(whole.coded)
    assert sub.size == whole.size == len(whole.coded) == count_orbits_in_fiber(spec, LIM).fiber_size


@pytest.mark.parametrize("d,type_text,product", CASES)
def test_capped_enumeration_is_a_prefix(d, type_text, product):
    spec = spec_of(d, type_text, product)
    full = enumerate_fiber(spec, LIM).coded
    n = len(full)
    for k in sorted({1, 2, n // 2, n - 1, n} & set(range(1, n + 1))):
        r = enumerate_fiber(spec, SearchLimits(max_fiber=k))
        assert r.coded == full[:k]
        assert r.complete == (k == n)
        assert r.limit_hit == (None if k == n else f"max_fiber={k}")


def drop_word(monkeypatch, k):
    """Make ``orbits.enumerate_fiber`` drop the k-th word of the word set it
    is asked for, the whole fiber or the sub-fiber."""
    def fake(spec, limits, sub_fiber):
        fr = enumerate_fiber(spec, limits, sub_fiber=sub_fiber)
        return FiberReport(fr.coded[:k] + fr.coded[k + 1:], fr.kernel, fr.size, True)
    monkeypatch.setattr(orbits, "enumerate_fiber", fake)


def test_every_missing_word_is_detected(monkeypatch):
    # Each fiber is one braid orbit, searched on the sub-fiber of its
    # product's centraliser, S_3 or {1, (1,2)}: each word is an image of
    # another, so dropping any one leaves an image outside.
    for spec in (spec_of(3, "2,1:4", "()", "full_group"),
                 spec_of(3, "2,1:3", "(1,2)", "full_group")):
        assert count_orbits_in_fiber(spec, LIM).orbit_count == 1
        for k in range(len(enumerate_fiber(spec, LIM, sub_fiber=True).coded)):
            drop_word(monkeypatch, k)
            with pytest.raises(RuntimeError, match="moves must stay inside the fiber"):
                count_orbits_in_fiber(spec, LIM)
            monkeypatch.undo()


def test_sweeps_stop_at_the_state_limit():
    # one braid orbit of 24 words
    words = enumerate_fiber(spec_of(3, "2,1:4", "()", "full_group"), LIM).words
    assert orbit_partition_by_sweeps(words, 3, SearchLimits(max_states=23)) is None
    assert orbit_partition_by_sweeps(words, 3, SearchLimits(max_states=24)) == [frozenset(words)]


def test_sweeps_detect_every_missing_word():
    words = enumerate_fiber(spec_of(3, "2,1:4", "()", "full_group"), LIM).words
    for k in range(len(words)):
        with pytest.raises(RuntimeError, match="orbit escaped the fiber"):
            orbit_partition_by_sweeps(words[:k] + words[k + 1:], 3, LIM)


@pytest.mark.parametrize("d,type_text", [(3, "2,1:2"), (4, "2,1,1:4"), (4, "3,1:3")])
def test_conjugation_merges_braid_orbits(d, type_text):
    # The quotient merges braid orbits here, so its count rests on the
    # sub-fiber search: braid images conjugated back to a least word and
    # loops by that word's stabiliser.  The partition test above
    # checks the merged classes.
    braid = count_orbits_in_fiber(spec_of(d, type_text, "()"), LIM)
    quotient = count_orbits_in_fiber(spec_of(d, type_text, "()", conj=True), LIM)
    assert quotient.orbit_count < braid.orbit_count


def all_types(d, b):
    """Every type of b factors from the non-identity classes of S_d."""
    classes = [ct for ct in all_cycle_types(d) if ct != (1,) * d]
    return [str(TypeVector.from_counts({ct: combo.count(ct) for ct in set(combo)}))
            for combo in combinations_with_replacement(classes, b)]


# `components --d 4 --b 5` types of three cost strata of the benchmark
STRATUM_TYPES = ["2,1,1:1;2,2:1;4:3", "2,1,1:2;2,2:2;3,1:1", "2,2:2;3,1:1;4:2",
                 "3,1:5", "2,2:2;3,1:3", "2,1,1:4;3,1:1", "2,2:1;4:4", "2,1,1:1;2,2:3;4:1"]


def quotient_cases():
    for d, b in [(3, 6), (4, 4)]:
        for type_text in all_types(d, b):
            yield d, type_text, "transitive"
    for type_text in STRATUM_TYPES:
        yield 4, type_text, "transitive"
    for d, type_text, product in CASES:
        if d == 5 and product == "()":
            yield d, type_text, "none"


@pytest.mark.parametrize("d,type_text,constraint", list(quotient_cases()))
def test_quotient_matches_sweeps_on_the_full_fiber(d, type_text, constraint):
    # The quotient searches only the sub-fiber of the least word of each
    # orbit under S_d; the reference sweeps the full fiber.
    spec = spec_of(d, type_text, "()", constraint, conj=True)
    words = enumerate_fiber(spec, LIM).words
    r = count_orbits_in_fiber(spec, LIM)
    assert r.complete and r.fiber_size == len(words)
    sweeps = orbit_partition_by_sweeps(words, d, LIM, conjugation_quotient=True)
    assert r.orbit_count == len(sweeps)
    assert [rep.factors for rep in r.representatives] == [min(p) for p in sweeps]


@pytest.mark.parametrize("d,type_text,constraint", [
    (3, "2,1:4", "none"),
    (3, "2,1:2;3:1", "none"),
    (4, "2,1,1:4", "none"),
    (4, "2,2:2;2,1,1:2", "transitive"),
    (4, "2,1,1:1;2,2:1;4:3", "transitive"),
])
def test_quotient_cap_counts_the_full_fiber(d, type_text, constraint):
    # Under the quotient, max_fiber still caps the full fiber: a row is
    # incomplete exactly when the full fiber has more than max_fiber words.
    spec = spec_of(d, type_text, "()", constraint, conj=True)
    n = enumerate_fiber(spec, LIM).size
    full = count_orbits_in_fiber(spec, LIM)
    capped = count_orbits_in_fiber(spec, SearchLimits(max_fiber=n - 1))
    assert not capped.complete and capped.orbit_count is None and capped.fiber_size is None
    assert capped.limit_hit == f"max_fiber={n - 1}"
    exact = count_orbits_in_fiber(spec, SearchLimits(max_fiber=n))
    assert exact.complete and exact.limit_hit is None
    assert (exact.fiber_size, exact.orbit_count, exact.representatives) == \
        (full.fiber_size, full.orbit_count, full.representatives)


# -- orbit counts by the labelled search on the sub-fiber ----------------------

def reference_partition(spec):
    """The fiber's orbits by the union-find over every R position."""
    return all_positions_partition(enumerate_fiber(spec, LIM).words, spec.degree,
                                   spec.conjugation_quotient)


def plain_row(spec, limits=LIM):
    """The scan row of :func:`reference_partition`, cut when the whole
    fiber has more than ``max_fiber`` words."""
    n = spec.type_vector.total()
    size = enumerate_fiber(spec, LIM).size
    if size > limits.max_fiber:
        return ScanRow(n, None, None, False, f"max_fiber={limits.max_fiber}")
    return ScanRow(n, size, len(reference_partition(spec)), True)


def check_labelled_count(spec):
    """The row matches the reference and the oracle, and the
    representatives are the least words of the reference's orbits."""
    row = count_orbits(spec, LIM)
    assert row == plain_row(spec)
    assert row.orbit_count == oracle_class_count(spec)
    reps = count_orbits_in_fiber(spec, LIM).representatives
    assert [rep.factors for rep in reps] == [min(p) for p in reference_partition(spec)]


def oracle_class_count(spec):
    words = [oracle.from_word(w) for w in enumerate_fiber(spec, LIM).words]
    return len(oracle.o_partition(words, spec.conjugation_quotient, spec.degree))


# One class and mixed types, one to six factors.  Under "none" several of
# them split into classes of B_n x G whose braid-orbit stabilisers differ in
# order.  The last three products are not central: G is their centraliser,
# a proper subgroup of S_d.
LABEL_CASES = [
    # one factor: no braid image, and conjugation fixes it, so each word
    # is its own orbit
    (2, "2:1", "(1,2)"),
    (2, "2:2", "()"),
    (2, "2:3", "(1,2)"),
    (3, "2,1:1", "()"),    # empty: one factor is never the identity
    (3, "2,1:2", "()"),
    (3, "2,1:4", "()"),
    (3, "2,1:6", "()"),
    (3, "3:3", "()"),
    (3, "2,1:2;3:1", "()"),
    (3, "2,1:2;3:2", "()"),
    (4, "2,1,1:2", "()"),
    (4, "2,1,1:4", "()"),
    (4, "2,1,1:6", "()"),
    (4, "2,1,1:2;3,1:1", "()"),
    (4, "2,2:2;2,1,1:2", "()"),
    (4, "3,1:3", "()"),
    (4, "2,2:1;4:2", "()"),
    (4, "2,2:3", "()"),
    (5, "2,1,1,1:4", "()"),
    (5, "3,1,1:3", "()"),
    (5, "2,1,1,1:2;3,1,1:1", "()"),
    (5, "2,2,1:2;3,1,1:1", "()"),
    (4, "2,1,1:6", "(1,2)(3,4)"),
    (4, "2,1,1:5", "(1,2)"),
    (5, "2,1,1,1:4", "(1,2,3)"),
]


def label_cases():
    """Each case under each constraint, and with the quotient where the
    product is central."""
    for d, type_text, product in LABEL_CASES:
        for constraint in CONSTRAINTS:
            for conj in (False, True):
                if not conj or d <= 2 or product == "()":
                    yield d, type_text, product, constraint, conj


@pytest.mark.parametrize("d,type_text,product,constraint,conj", list(label_cases()))
def test_labelled_count_matches_plain_search_and_oracle(d, type_text, product, constraint, conj):
    check_labelled_count(spec_of(d, type_text, product, constraint, conj))


def asked_in_order(kernel, gens, members):
    """The tables of ``_conjugation_orbits`` after every code of ``members``
    is asked for, in that order."""
    back, stabilisers = orbits._conjugation_orbits(kernel, gens)
    for x in members:
        back[x]
    return back, stabilisers


def check_orbits(kernel, back, stabilisers, group, members):
    # The members asked for split into the orbits of ``group``: each x maps
    # to an h_x in the group taking it to the least member c of its orbit,
    # and c to generators of exactly Stab(c) and the members of its orbit;
    # returns those generators, one tuple per orbit.
    d = kernel.degree
    want = {frozenset(g.conjugate(x) for g in group) for x in members}
    assert set(kernel.decode_word(tuple(back))) == set(members)
    assert sorted(kernel.decode_word(tuple(stabilisers))) == sorted(map(min, want))
    for orbit in want:
        c = min(orbit)
        for x in orbit:
            h = kernel.decode(back[kernel.encode(x)])
            assert h in group and h.conjugate(x) == c
        stabiliser, members_of_c = stabilisers[kernel.encode(c)]
        assert set(kernel.decode_word(members_of_c)) == orbit
        assert closure(d, kernel.decode_word(stabiliser)) == {g for g in group if g.conjugate(c) == c}
    return [stabiliser for stabiliser, _ in stabilisers.values()]


def check_any_order(kernel, gens, group, members, rng):
    # The tables filled with every member asked for in a random order are
    # those filled in code order, and both match the brute force.
    coded = kernel.encode_word(members)
    back, stabilisers = asked_in_order(kernel, gens, rng.sample(coded, len(coded)))
    assert (back, stabilisers) == asked_in_order(kernel, gens, sorted(coded))
    return check_orbits(kernel, back, stabilisers, group, members)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_conjugation_orbits_match_brute_force(d):
    # For a product p of each class, the least member of its class: asked
    # at the class's last member, the walk along the generators of S_d
    # starts again from p and gives generators of Z(p) and p's class; the
    # walk with those splits each class, asked in any order, into Z(p)'s
    # orbits, maps each x to the least c of its orbit, and gives generators
    # of the stabiliser of c in Z(p) and the members of c's orbit.
    kernel, rng = MoveKernel(d), random.Random(d)
    group = list(all_perms(d))
    symmetric = kernel.encode_word(centraliser_generators(Perm.identity(d)))
    for ct in all_cycle_types(d):
        p = class_elements(d, ct)[0]
        centraliser = {g for g in group if g.conjugate(p) == p}
        back, stabilisers = asked_in_order(kernel, symmetric, [kernel.encode(class_elements(d, ct)[-1])])
        gens, orbit = stabilisers[kernel.encode(p)]
        assert list(stabilisers) == [kernel.encode(p)]
        assert closure(d, kernel.decode_word(gens)) == centraliser
        assert set(kernel.decode_word(tuple(back))) == set(kernel.decode_word(orbit)) == set(class_elements(d, ct))
        for members in map(functools.partial(class_elements, d), all_cycle_types(d)):
            check_any_order(kernel, gens, centraliser, members, rng)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_levels_match_brute_force(d):
    # For a product p of each class, on the factors of every class, asked
    # in any order: every level reached from Z(p) through the stabilisers
    # of its least members splits the factors into the orbits of its group
    # H, maps each x to an h_x in H taking it to the least member c of its
    # orbit, lists that orbit, and gives generators of exactly Stab_H(c).
    members = [x for ct in all_cycle_types(d) if ct != (1,) * d for x in class_elements(d, ct)]
    kernel, rng = kernel_of(d), random.Random(d)
    coded = kernel.encode_word(members)
    orbits._conjugating_group.cache_clear()
    for ct in all_cycle_types(d):
        p = class_elements(d, ct)[-1]
        order, gens, levels = orbits._conjugating_group(d, p)
        assert len(closure(d, kernel.decode_word(gens))) == order == sum(g.conjugate(p) == p for g in all_perms(d))
        queue, seen = [gens], {gens}
        for level_gens in queue:  # grows while it is walked
            group = closure(d, kernel.decode_word(level_gens))
            back, stabilisers = levels[level_gens]
            for x in rng.sample(coded, len(coded)):
                back[x]
            assert (back, stabilisers) == asked_in_order(kernel, level_gens, sorted(coded))
            for stabiliser in check_orbits(kernel, back, stabilisers, group, members):
                if stabiliser not in seen:
                    seen.add(stabiliser)
                    queue.append(stabiliser)


def group_of(spec):
    """The centraliser of the spec's product, listed."""
    return [g for g in all_perms(spec.degree) if g.conjugate(spec.product) == spec.product]


def orbit_minima(spec, words):
    """Each word's G-orbit, keyed by its least word, for G = ``group_of(spec)``."""
    group = group_of(spec)
    out = {}
    for w in words:
        orbit = {tuple(g.conjugate(f) for f in w) for g in group}
        out[min(orbit)] = len(orbit)
    return out


def transversal_cases():
    for d in (2, 3, 4):
        for ct in all_cycle_types(d):
            for n in (1, 2, 3):
                for type_text in all_types(d, n):
                    yield d, type_text, str(class_elements(d, ct)[-1])


@pytest.mark.parametrize("d,type_text,product", list(transversal_cases()))
def test_sub_fiber_is_an_orbit_transversal(d, type_text, product):
    # For a product p of each class, G = Z(p): the sub-fiber is the least
    # word of each G-orbit of the whole fiber, in the whole fiber's order,
    # and each kept word weighs its orbit's size: a cap at the sum of the
    # weights up to a word keeps the words up to it, and one below keeps
    # the words before it.
    spec = spec_of(d, type_text, product)
    whole = enumerate_fiber(spec, LIM).words
    minima = orbit_minima(spec, whole)
    sub = enumerate_fiber(spec, LIM, sub_fiber=True)
    assert sub.words == [w for w in whole if w in minima] and len(sub.words) == len(minima)
    assert sub.size == sum(minima.values())
    total = 0
    for i, w in enumerate(sub.words):
        total += minima[w]
        assert enumerate_fiber(spec, SearchLimits(max_fiber=total), sub_fiber=True).words == sub.words[:i + 1]
        if total > 1:
            assert enumerate_fiber(spec, SearchLimits(max_fiber=total - 1), sub_fiber=True).words == sub.words[:i]


@pytest.mark.parametrize("d,type_text,product", [
    (4, "2,1,1:4", "()"), (4, "2,1,1:6", "()"), (4, "2,1,1:5", "(1,2)"), (4, "2,1,1:6", "(1,2)(3,4)"),
    (4, "2,2:2;3,1:2", "()"), (4, "2,1,1:2;3,1:2", "(1,2,3)"), (4, "4:4", "()"),
    (5, "2,1,1,1:4", "()"), (5, "2,1,1,1:5", "(1,2)"), (5, "2,1,1,1:4", "(1,2,3)"),
    (5, "2,1,1,1:4", "(1,2,3,4,5)"), (5, "3,1,1:3", "()"), (5, "2,1,1,1:2;3,1,1:2", "(1,2)(3,4)"),
])
def test_sub_fiber_size_is_the_orbit_count(d, type_text, product):
    # The sub-fiber holds one word per G-orbit of the whole fiber, also past
    # the levels where a stabiliser is still not trivial.
    spec = spec_of(d, type_text, product)
    minima = orbit_minima(spec, enumerate_fiber(spec, LIM).words)
    sub = enumerate_fiber(spec, LIM, sub_fiber=True)
    assert len(sub.coded) == len(minima) and sub.size == sum(minima.values())


def boundary_cases():
    for d in (3, 4):
        for ct in all_cycle_types(d):
            for n in (2, 3):
                yield d, n, str(class_elements(d, ct)[-1])


@pytest.mark.parametrize("d,n,product", list(boundary_cases()))
def test_two_and_three_factors(monkeypatch, d, n, product):
    # Every type of n factors, for a product of each class, with the
    # quotient where the product is central: the row is the plain one and
    # the oracle's, and the sub-fiber's first pairs are the least pairs of
    # the Z(p)-orbits of the whole fiber's first pairs.  The last factor is
    # forced, so a count from a cleared group table walks each level once
    # and only for the stabiliser of a prefix of at most n - 2 factors: at
    # two factors Z(p)'s level alone, if any, and at three also the levels
    # of the stabilisers of first factors, at least of those that the
    # sub-fiber's words start with.
    p = Perm.parse(product, d)
    centraliser = [g for g in all_perms(d) if g.conjugate(p) == p]
    walk, calls = orbits._conjugation_orbits, []
    monkeypatch.setattr(orbits, "_conjugation_orbits",
                        lambda *args: calls.append(args[1]) or walk(*args))
    for type_text in all_types(d, n):
        for conj in (False, True) if p.is_identity() else (False,):
            spec = spec_of(d, type_text, product, "none", conj)
            check_labelled_count(spec)
            sub = enumerate_fiber(spec, LIM, sub_fiber=True)
            want = {min((g.conjugate(w[0]), g.conjugate(w[1])) for g in centraliser)
                    for w in enumerate_fiber(spec, LIM).words}
            assert {w[:2] for w in sub.words} == want
            calls.clear()
            orbits._conjugating_group.cache_clear()
            count_orbits_in_fiber(spec, LIM)
            walked = list(calls)
            _, gens, levels = orbits._conjugating_group(d, p)
            assert len(set(walked)) == len(walked) and walked[:1] in ([], [gens])
            if n <= 2:
                assert walked == [gens] or not walked and not sub.coded
            else:
                stabilisers = {stabiliser for stabiliser, _ in levels[gens][1].values()}
                assert {levels[gens][1][w[0]][0] for w in sub.coded} <= set(walked) <= {gens} | stabilisers


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_labelled_count_of_the_empty_word(d):
    spec = FiberSpec(d, TypeVector.from_counts({}), Perm.identity(d))
    assert count_orbits(spec, LIM) == plain_row(spec) == ScanRow(0, 1, 1, True)


# (degree, classes, most factors): fibers of at most a few thousand words.
LABEL_SHAPES = {3: ((2, 1), (3,)), 4: ((2, 1, 1), (2, 2), (3, 1), (4,)),
                5: ((2, 1, 1, 1), (2, 2, 1), (3, 1, 1))}
LABEL_MAX_FACTORS = {3: 6, 4: 5, 5: 4}


@st.composite
def label_specs(draw):
    """A random type, with a product from any class of the type's parity,
    and the quotient only for the identity."""
    d = draw(st.sampled_from(sorted(LABEL_SHAPES)))
    classes = LABEL_SHAPES[d]
    n = draw(st.integers(1, LABEL_MAX_FACTORS[d]))
    picked = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    counts = {ct: picked.count(ct) for ct in set(picked)}
    parity = sum(map(class_parity, picked)) % 2
    ct = draw(st.sampled_from([ct for ct in all_cycle_types(d) if class_parity(ct) == parity]))
    product = draw(st.sampled_from(class_elements(d, ct)))
    constraint = draw(st.sampled_from(CONSTRAINTS))
    conj = product.is_identity() and draw(st.booleans())
    return FiberSpec(d, TypeVector.from_counts(counts), product, constraint, conj)


# Derandomized: the cost of the reference depends on the types drawn, so
# fixed examples keep the suite's time repeatable.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(label_specs())
def test_labelled_count_matches_plain_search_on_random_types(spec):
    check_labelled_count(spec)


@pytest.mark.parametrize("d,type_text,constraint", [
    (3, "2,1:4", "none"),
    (3, "2,1:2;3:1", "none"),
    (4, "2,1,1:6", "transitive"),
    (4, "2,2:2;2,1,1:2", "none"),
    (5, "2,1,1,1:4", "none"),
])
def test_labelled_cap_matches_the_plain_cap(d, type_text, constraint):
    # max_fiber caps the whole fiber, though only the sub-fiber is searched:
    # a cut row has no size one word below the fiber's size and is complete
    # at it.
    spec = spec_of(d, type_text, "()", constraint)
    k = enumerate_fiber(spec, LIM).size
    for cap, complete in ((k - 1, False), (k, True)):
        limits = SearchLimits(max_fiber=cap)
        row = count_orbits(spec, limits)
        assert row == plain_row(spec, limits)
        assert row.complete is complete
        assert (row.fiber_size is None) is not complete


def spy_on_enumeration(monkeypatch):
    """Record the ``sub_fiber`` flag of every ``orbits.enumerate_fiber``
    call in the returned list."""
    calls = []

    def spy(spec, limits, sub_fiber):
        calls.append(sub_fiber)
        return enumerate_fiber(spec, limits, sub_fiber=sub_fiber)

    monkeypatch.setattr(orbits, "enumerate_fiber", spy)
    return calls


def test_every_entry_searches_the_sub_fiber(monkeypatch):
    # Every fiber is searched on the sub-fiber of its product's centraliser,
    # through every entry: identity and other products, no factor and one,
    # and degree <= 2; every row is that of the union-find over the whole
    # fiber.
    specs = [spec_of(3, "2,1:4", "()", "full_group"), spec_of(4, "2,2:1;4:2", "()"),
             spec_of(4, "2,1,1:4", "()", "transitive", conj=True), spec_of(3, "2,1:3", "(1,2)"),
             spec_of(4, "2,1,1:4", "(1,2)(3,4)"), spec_of(5, "2,1,1,1:4", "(1,2,3)", "transitive"),
             spec_of(3, "2,1:1", "(1,2)"), spec_of(4, "4:1", "(1,2,3,4)"),
             spec_of(2, "2:3", "(1,2)"), spec_of(2, "2:1", "(1,2)", conj=True),
             FiberSpec(3, TypeVector.from_counts({}), Perm.identity(3), "none", True),
             FiberSpec(2, TypeVector.from_counts({}), Perm.identity(2))]
    rows = [plain_row(spec) for spec in specs]
    scans = {(d, ct, product): [plain_row(FiberSpec(d, TypeVector.single(ct, n),
                                                    Perm.parse(product, d), "full_group"))
                                for n in range(1, n_to + 1)]
             for d, ct, product, n_to in [(3, (2, 1), "()", 8), (4, (2, 1, 1), "()", 6),
                                          (2, (2,), "(1,2)", 5), (4, (2, 1, 1), "(1,2)", 5)]}
    components = sorted((type_text, row.fiber_size, row.orbit_count, row.complete)
                        for type_text in all_types(3, 4)
                        for row in [plain_row(spec_of(3, type_text, "()"))])
    calls = spy_on_enumeration(monkeypatch)
    for spec, row in zip(specs, rows):
        assert count_orbits(spec, LIM) == row
        r = count_orbits_in_fiber(spec, LIM, want_partition=True)
        assert (r.fiber_size, r.orbit_count, len(r.partition)) == (row.fiber_size, row.orbit_count,
                                                                   row.orbit_count)
    for (d, ct, product), want in scans.items():
        assert stable_length_scan(d, ct, Perm.parse(product, d), 1, len(want), LIM) == want
    body = count_components(ComponentQuery(3, 4, None, False, False, False), LIM)
    assert sorted(tuple(r.values()) for r in body["rows"]) == components
    assert len(calls) == 2 * len(specs) + sum(map(len, scans.values())) + len(components)
    assert all(calls)


@pytest.mark.parametrize("cap", [1, 131_039, 131_040])
def test_scan_cap_on_the_d4_n8_fiber(cap):
    # The sub-fiber's weights count the whole fiber of 131,040 words.
    [row] = stable_length_scan(4, (2, 1, 1), Perm.identity(4), 8, 8, SearchLimits(max_fiber=cap))
    if cap < 131_040:
        assert row == ScanRow(8, None, None, False, f"max_fiber={cap}")
    else:
        assert row == ScanRow(8, 131_040, 1, True)


def test_labelled_count_detects_every_missing_word(monkeypatch):
    # one braid orbit; its sub-fiber is one class, each word an image of another
    spec = spec_of(3, "2,1:4", "()", "full_group")
    sub = enumerate_fiber(spec, LIM, sub_fiber=True)
    assert count_orbits(spec, LIM) == ScanRow(4, 24, 1, True)
    for k in range(len(sub.coded)):
        drop_word(monkeypatch, k)
        with pytest.raises(RuntimeError, match="moves must stay inside the fiber"):
            count_orbits(spec, LIM)
        monkeypatch.undo()


@pytest.mark.parametrize("d,b", [(3, 4), (3, 5), (4, 4)])
def test_components_rows_match_the_whole_fiber_search(d, b):
    # Every row of each constraint, with and without the quotient, is the
    # (size, count) of the union-find over the whole fiber and of the oracle.
    for constraint in CONSTRAINTS:
        for conj in (False, True):
            query = ComponentQuery(d, b, None, constraint == "full_group",
                                   constraint == "transitive", conj)
            rows = []
            for type_text in all_types(d, b):
                spec = spec_of(d, type_text, "()", constraint, conj)
                count = len(reference_partition(spec))
                assert count == oracle_class_count(spec)
                rows.append((type_text, enumerate_fiber(spec, LIM).size, count, True))
            body = count_components(query, LIM)
            assert body["convention"] == {"product": "identity", "constraint": constraint,
                                          "conjugation_quotient": conj}
            assert sorted(tuple(r.values()) for r in body["rows"]) == sorted(rows)


# -- state kept across counts ------------------------------------------------

def clear_caches():
    """Forget the kernels and fiber tables that the process keeps."""
    for cache in (kernel_of, orbits._conjugating_group, orbits._verdicts):
        cache.cache_clear()


# (degree, type, product, constraint, quotient, max_fiber), run in this
# order: products of several classes, n = 2, 3 and 2 again on the same
# classes and product, two types back to back under one product that is not
# central, every constraint, the quotient on and off, and cuts.
MIXED = [
    (4, "2,1,1:1;3,1:1", "(1,2,3,4)", "none", False, 200_000),
    (4, "2,1,1:1;3,1:2", "(1,2,3,4)", "none", False, 200_000),
    (4, "2,1,1:1;3,1:1", "(1,2,3,4)", "transitive", False, 200_000),
    (3, "2,1:4", "()", "full_group", True, 200_000),
    (3, "2,1:4", "()", "none", False, 200_000),
    (3, "2,1:4", "()", "none", False, 10),
    (5, "2,1,1,1:3", "(1,2,3)", "none", False, 200_000),
    (5, "2,1,1,1:3", "(1,2,3)", "transitive", False, 200_000),
    (5, "2,1,1,1:1;3,2:2", "(3,4,5)", "full_group", False, 200_000),
    (5, "2,1,1,1:2;2,2,1:1", "(1,2)(3,4)", "none", False, 200_000),
    (5, "2,1,1,1:4", "(1,2)(3,4)", "none", False, 200_000),
    (4, "2,1,1:6", "(1,2)(3,4)", "transitive", False, 200_000),
    (4, "2,1,1:6", "(1,2)(3,4)", "none", False, 100),
    (4, "2,1,1:6", "()", "full_group", False, 200_000),
    (4, "2,2:1;4:2", "()", "none", True, 200_000),
    (4, "2,2:1;4:2", "()", "none", False, 200_000),
    (4, "2,1,1:3", "(1,2)", "full_group", False, 200_000),
    (4, "4:2", "(1,3)(2,4)", "transitive", False, 200_000),
    (4, "4:2", "(1,3)(2,4)", "full_group", False, 200_000),
    (4, "3,1:1", "(1,2,3)", "none", False, 200_000),
    (4, "2,1,1:1;3,1:1", "(1,2,3,4)", "none", False, 200_000),
]


def mixed_result(entry):
    *spec_args, max_fiber = entry
    spec, limits = spec_of(*spec_args), SearchLimits(max_states=200_000, max_fiber=max_fiber)
    whole = enumerate_fiber(spec, limits)
    sub = enumerate_fiber(spec, limits, sub_fiber=True)
    return (whole.words, whole.size, whole.complete, sub.words, sub.size, sub.complete,
            count_orbits_in_fiber(spec, limits, want_partition=True))


def test_shared_tables_give_the_answers_of_a_fresh_process():
    # Each answer of the mixed sequence, run in one process, equals the
    # answer of the same spec run alone after every table is forgotten.
    clear_caches()
    shared = [mixed_result(entry) for entry in MIXED]
    for entry, got in zip(MIXED, shared):
        clear_caches()
        assert mixed_result(entry) == got, entry


def test_one_kernel_per_degree(monkeypatch):
    built, init = [], MoveKernel.__init__
    monkeypatch.setattr(MoveKernel, "__init__", lambda self, degree: built.append(degree) or init(self, degree))
    clear_caches()
    for entry in MIXED:
        mixed_result(entry)
    word = Factorization.parse_word(4, "(1,2)(2,3)(3,4)(1,2)")
    orbits.enumerate_orbit(word)
    orbits.are_equivalent(word, word.apply_move(Move(1, "R")))
    assert sorted(built) == [3, 4, 5]


def test_verdicts_kept_past_their_bound_are_dropped(monkeypatch):
    # Past VERDICTS_KEPT, a count starts from an empty verdict table, which
    # then holds only its own factor sets, and answers as before.
    first, second = spec_of(4, "2,1,1:6", "()", "transitive"), spec_of(4, "3,1:4", "()", "transitive")
    clear_caches()
    want = count_orbits_in_fiber(second, LIM)
    kept = len(orbits._verdicts(4, "transitive"))
    monkeypatch.setattr(orbits, "VERDICTS_KEPT", kept)
    clear_caches()
    count_orbits_in_fiber(first, LIM)
    assert len(orbits._verdicts(4, "transitive")) > kept
    assert count_orbits_in_fiber(second, LIM) == want
    assert len(orbits._verdicts(4, "transitive")) == kept


def test_groups_kept_past_their_bound_are_rebuilt():
    # Every product of S_5, each under a type of its parity, makes more
    # products than TABLES_KEPT, walked twice, so the second pass rebuilds
    # every group the first evicted; each answer equals that from cleared
    # tables.
    specs = [FiberSpec(5, TypeVector.parse("2,1,1,1:3" if p.parity() else "2,1,1,1:4", 5), p)
             for p in all_perms(5)]
    clear_caches()
    shared = [count_orbits_in_fiber(spec, LIM) for spec in specs * 2]
    info = orbits._conjugating_group.cache_info()
    assert len(specs) > orbits.TABLES_KEPT == info.currsize and info.misses == 2 * len(specs)
    for i, spec in enumerate(specs):
        clear_caches()
        want = count_orbits_in_fiber(spec, LIM)
        assert shared[i] == shared[i + len(specs)] == want, spec


def test_one_group_table_serves_every_type(monkeypatch):
    # The 126 types of components --d 5 --b 4 build Z(1)'s tables once, and
    # each row equals the row counted with the tables cleared before its type.
    query = ComponentQuery(5, 4)
    clear_caches()
    body = count_components(query, LIM)
    assert orbits._conjugating_group.cache_info().misses == 1 and len(body["rows"]) == 126
    count = reports.count_orbits

    def count_from_cleared_tables(spec, limits):
        orbits._conjugating_group.cache_clear()
        return count(spec, limits)

    monkeypatch.setattr(reports, "count_orbits", count_from_cleared_tables)
    assert count_components(query, LIM) == body
    assert orbits._conjugating_group.cache_info().misses == 1


# The fiber-count queries of degree 8 that take the centraliser of an
# 8-cycle, of the identity and of a double transposition.
D8_QUERIES = [
    ["fiber-count", "--d", "8", "--type", "8:1", "--product", "(1,2,3,4,5,6,7,8)"],
    ["fiber-count", "--d", "8", "--type", "2,1,1,1,1,1,1:2"],
    ["fiber-count", "--d", "8", "--type", "2,1,1,1,1,1,1:2", "--product", "(1,2)(3,4)"],
]


def test_kernel_of_degree_8_stays_small(capsys):
    # The kernel fills only the codes and row entries a search asks for:
    # after all three queries about 5,200 of the 40,320 codes and 10,400
    # row entries, where whole rows would take 40,320 entries each.
    clear_caches()
    for argv in D8_QUERIES:
        assert main(argv) == 0
    capsys.readouterr()
    kernel = kernel_of(8)
    entries = sum(len(row) for table in (kernel.conjugate, kernel.mul) for row in table.values())
    assert len(kernel._perms) < 7_000
    assert entries < 12_000
