"""The one breadth-first traversal (``orbits.expand``) and the searches on it."""
import random

import pytest

from hurwitz import orbits, perms, words
from hurwitz.constructions import rewrite_with_stable_tail
from hurwitz.orbits import (
    DEFAULT_LIMITS,
    EquivalenceReport,
    FiberSpec,
    SearchLimits,
    are_equivalent,
    enumerate_fiber,
    enumerate_orbit,
    expand,
    trace_moves,
)
from hurwitz.perms import LimitExceededError, class_elements, closure
from hurwitz.words import (
    Factorization,
    Move,
    MoveKernel,
    Packing,
    apply_moves_state,
    move_left_state,
    move_right_state,
)


def _reference_trace(parents, state):
    codes = []
    while (entry := parents[state]) is not None:
        state, code = entry
        codes.append(code)
    return [Move(code // 2 + 1, "RL"[code % 2]) for code in reversed(codes)]


def _reference_neighbors(state):
    """R then L at each position of a ``Perm`` word, by the reference moves."""
    out = []
    for i0 in range(len(state) - 1):
        out += (move_right_state(state, i0), move_left_state(state, i0))
    return out


def reference_are_equivalent(s1, s2, limits=DEFAULT_LIMITS):
    """The bidirectional search as it was written before ``expand``, on
    ``Perm`` words: its own neighbour loop over the reference moves, and
    parent maps of (parent word, move code).  It shares no code with the
    packed search."""
    if s1.degree != s2.degree:
        return EquivalenceReport("no", None, 0, "degrees differ")
    if len(s1) != len(s2):
        return EquivalenceReport("no", None, 0, "lengths differ")
    if s1.product() != s2.product():
        return EquivalenceReport("no", None, 0, "products differ")
    if s1.type_vector() != s2.type_vector():
        return EquivalenceReport("no", None, 0, "types differ")
    if closure(s1.degree, s1.factors) != closure(s2.degree, s2.factors):
        return EquivalenceReport("no", None, 0, "generated subgroups differ")
    if s1.factors == s2.factors:
        return EquivalenceReport("yes", (), 0)
    c1, c2 = s1.factors, s2.factors
    sides = [{c1: None}, {c2: None}]
    frontiers = [[c1], [c2]]
    explored = 2
    while True:
        if not frontiers[0] and not frontiers[1]:
            return EquivalenceReport("no", None, explored,
                                     "orbits fully enumerated and disjoint")
        if not frontiers[0]:
            side = 1
        elif not frontiers[1]:
            side = 0
        else:
            side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = sides[side], sides[1 - side]
        new_frontier = []
        for s in frontiers[side]:
            for code, ns in enumerate(_reference_neighbors(s)):
                if ns in mine:
                    continue
                if explored >= limits.max_states:
                    return EquivalenceReport("unknown", None, explored,
                                             f"max_states={limits.max_states}")
                mine[ns] = (s, code)
                explored += 1
                new_frontier.append(ns)
                if ns in other:
                    forward = _reference_trace(sides[0], ns)
                    backward = _reference_trace(sides[1], ns)
                    cert = tuple(forward + [m.invert() for m in reversed(backward)])
                    return EquivalenceReport("yes", cert, explored)
        frontiers[side] = new_frontier
        if not new_frontier:
            return EquivalenceReport("no", None, explored,
                                     "one orbit fully enumerated without meeting")


def random_word(rng, d, n):
    classes = [(2,) + (1,) * (d - 2), (3,) + (1,) * (d - 3)]
    ct = rng.choice(classes)
    return Factorization(d, tuple(rng.choice(class_elements(d, ct)) for _ in range(n)))


def scrambled(rng, w, n_moves):
    for _ in range(n_moves):
        w = w.apply_move(Move(rng.randint(1, len(w) - 1), rng.choice("LR")))
    return w


def equivalence_pairs(seed, count=12):
    """Pairs at degrees 3-5: move scrambles (found by search), and two words
    of one fiber (often separated only by the search)."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        d = rng.choice([3, 4, 5])
        n = rng.randint(3, 5 if d < 5 else 4)
        w = random_word(rng, d, n)
        if rng.random() < 0.5:
            pairs.append((w, scrambled(rng, w, rng.randint(1, 30))))
            continue
        spec = FiberSpec(d, w.type_vector(), w.product())
        fiber = enumerate_fiber(spec, SearchLimits(max_fiber=5000))
        if fiber.complete:
            pairs.append((w, Factorization(d, rng.choice(fiber.words))))
    return pairs


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_states", [10, 1000, DEFAULT_LIMITS.max_states])
def test_equivalence_matches_tuple_parent_search(seed, max_states):
    limits = SearchLimits(max_states=max_states)
    for w, v in equivalence_pairs(seed):
        got = are_equivalent(w, v, limits)
        want = reference_are_equivalent(w, v, limits)
        assert (got.status, got.certificate, got.states_explored, got.reason) == \
            (want.status, want.certificate, want.states_explored, want.reason)
        if got.status == "yes":
            assert w.apply_moves(got.certificate) == v


def reference_depths(w):
    """Move distance from ``w`` to every word of its orbit, by a level-by-level
    search over ``Perm`` words with the reference moves."""
    depth = {w.factors: 0}
    level = [w.factors]
    while level:
        nxt = []
        for s in level:
            for ns in _reference_neighbors(s):
                if ns not in depth:
                    depth[ns] = depth[s] + 1
                    nxt.append(ns)
        level = nxt
    return depth


def _packed(w):
    kernel = MoveKernel(w.degree)
    packing = Packing(kernel, len(w))
    return kernel, packing, packing.pack(kernel.encode_word(w.factors))


@pytest.mark.parametrize("seed", range(6))
def test_traced_moves_replay_at_bfs_depth(seed):
    rng = random.Random(100 + seed)
    d = 3 + seed % 3
    w = random_word(rng, d, 4 if d < 5 else 3)
    kernel, packing, root = _packed(w)
    parents = {root: None}
    queue = [root]
    for ns in expand(packing, queue, parents):
        queue.append(ns)
    want = reference_depths(w)
    assert {kernel.decode_word(packing.unpack(c)) for c in parents} == set(want)
    for c in parents:
        moves = trace_moves(packing, parents, c)
        assert apply_moves_state(w.factors, moves) == kernel.decode_word(packing.unpack(c))
        assert len(moves) == want[kernel.decode_word(packing.unpack(c))]


def test_expand_walks_a_growing_frontier_once():
    w = Factorization.parse_word(3, "(1,2)(2,3)(1,2)")
    kernel, packing, root = _packed(w)
    parents = {root: None}
    level = list(expand(packing, [root], parents))
    # one level only: the frontier was not extended, so nothing deeper appears
    assert [kernel.decode_word(packing.unpack(c)) for c in level] == \
        list(dict.fromkeys(ns for ns in _reference_neighbors(w.factors) if ns != w.factors))
    assert all(parents[c] == root for c in level)


def test_equal_words_skip_the_subgroup_comparison(monkeypatch):
    # Equal words answer yes before any chain of their groups is built.
    built = []
    monkeypatch.setattr(orbits, "Chain", lambda *args: built.append(args))
    w = Factorization.parse_word(8, "(1,2)(2,3)(3,4)(4,5)(5,6)(6,7)(7,8)")
    r = are_equivalent(w, Factorization(8, w.factors))
    assert (r.status, r.certificate, r.states_explored) == ("yes", (), 0)
    assert built == []


def test_subgroups_compared_past_the_listing_degree():
    # <(1,2)> and <(8,9)> differ: no search, also at d=9, where no group is listed.
    w1 = Factorization.parse_word(9, "(1,2) (1,2)")
    w2 = Factorization.parse_word(9, "(8,9) (8,9)")
    r = are_equivalent(w1, w2)
    assert (r.status, r.states_explored, r.reason) == ("no", 0, "generated subgroups differ")
    # past the chain's degree limit the query is refused, not answered without the comparison
    with pytest.raises(LimitExceededError):
        are_equivalent(Factorization.parse_word(256, "(1,2) (2,3)"), Factorization.parse_word(256, "(1,3) (1,2)"))


def test_d8_equivalence_lists_no_group(monkeypatch):
    # (1,2)...(7,8) against its R_1 image: both generate S_8, compared by chains, never listed.
    for module in (perms, words, orbits):
        monkeypatch.setattr(module, "closure", None, raising=False)
    w = Factorization.parse_word(8, "(1,2)(2,3)(3,4)(4,5)(5,6)(6,7)(7,8)")
    r = are_equivalent(w, w.apply_move(Move(1, "R")))
    assert (r.status, r.states_explored) == ("yes", 3)
    assert w.apply_moves(r.certificate) == w.apply_move(Move(1, "R"))


@pytest.mark.parametrize("limits", [{"max_states": 0}, {"max_states": 1}, {"max_fiber": 0}])
def test_limits_below_the_floor_are_rejected(limits):
    with pytest.raises(ValueError):
        SearchLimits(**limits)


@pytest.mark.parametrize("max_states", [2, 7, 100])
def test_incomplete_orbit_holds_exactly_the_limit(max_states):
    w = Factorization.parse_word(4, "(1,2)(2,3)(3,4)(1,2)(2,3)(3,4)")
    r = enumerate_orbit(w, SearchLimits(max_states=max_states))
    assert not r.complete
    assert r.size == r.states_explored == max_states


@pytest.mark.parametrize("max_states", [2, 5, 50])
def test_stable_tail_stops_at_exactly_the_limit(max_states):
    # (1,2) and (2,3) never rewrite into a word ending in (3,4)
    word = Factorization.parse_word(4, "(1,2)(2,3)(1,2)(2,3)(2,3)(1,2)")
    tail = Factorization.parse_word(4, "(3,4)")
    tr = rewrite_with_stable_tail(word, tail, SearchLimits(max_states=max_states))
    assert tr.status == "unknown"
    assert tr.detail == f"max_states={max_states}"
    assert tr.states_explored == max_states
