"""Per-class constants of a symmetric-group conjugacy class.

For a class C of S_d this module computes the element order n_C, the class
size k_C, the fixed-point count f_C, whether C generates all of S_d, the
least number of C-factors whose product is the transposition (1,2) (plain and
with all factors required to fix two chosen points), and the stability bound

    3^(d-3) * (2d-1) * (d-1) * m  +  n_C * k_C  +  1

beyond which any word with enough C-factors is determined by its product and
type.  The first two answers come from the class algebra: C is closed under
conjugation, so it generates a normal subgroup, and every product set C^k is
a union of classes, carried as a set of cycle types.  Only the anchored
search, whose factors must fix two points and so are not closed under
conjugation by S_d, is still a meet-in-the-middle scan over level sets of the
Cayley graph: a length-m word exists exactly when some product of ceil(m/2)
generators, times a product of the remaining floor(m/2), hits the target, so
only levels up to half the depth limit are ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass

from .perms import (
    CycleType,
    Perm,
    canonical_class_element,
    class_elements,
    class_fixed_points,
    class_order,
    class_parity,
    class_size,
    validate_cycle_type,
)

DEFAULT_SEARCH_DEPTH = 8


@dataclass(frozen=True)
class MinWordResult:
    """Outcome of a minimal-word search.

    ``length`` and ``witness`` are None when the search hit its depth limit;
    ``limit`` then records the depth that was exhausted.
    """

    length: int | None
    witness: tuple[Perm, ...] | None
    limit: int | None = None

    @property
    def known(self) -> bool:
        return self.length is not None


def _level_search(degree: int, generators: tuple[Perm, ...], target: Perm,
                  limit: int) -> MinWordResult:
    # levels[k] maps each product of k generators to (previous product, generator)
    ident = Perm.identity(degree)
    levels: list[dict[Perm, tuple[Perm, Perm] | None]] = [{ident: None}]

    def extend_to(k: int) -> None:
        while len(levels) <= k:
            prev = levels[-1]
            nxt: dict[Perm, tuple[Perm, Perm] | None] = {}
            for x in prev:
                for g in generators:
                    y = x * g
                    if y not in nxt:
                        nxt[y] = (x, g)
            levels.append(nxt)

    def word_of(x: Perm, k: int) -> list[Perm]:
        out: list[Perm] = []
        while k > 0:
            entry = levels[k][x]
            assert entry is not None
            x, g = entry
            out.append(g)
            k -= 1
        out.reverse()
        return out

    target_parity = target.parity()
    gen_parity = generators[0].parity()
    for m in range(1, limit + 1):
        if (m * gen_parity) % 2 != target_parity:
            continue
        a = (m + 1) // 2
        b = m - a
        extend_to(a)
        # target = P * Q with P a product of a generators and Q of b.
        for p in levels[a]:
            q = p.inverse() * target
            if q in levels[b]:
                witness = word_of(p, a) + word_of(q, b)
                return MinWordResult(m, tuple(witness))
    return MinWordResult(None, None, limit=limit)


def min_factors_to_transposition(degree: int, cycle_type: CycleType,
                                 limit: int = DEFAULT_SEARCH_DEPTH) -> MinWordResult:
    """Least m with (1,2) a product of m class members, plus one witness word.

    Only odd classes can reach a transposition; even classes are rejected.
    Level k holds the cycle types of C^k; level k+1 is read off the products
    of one representative per type with every class member.  The witness is
    found by descent from (1,2): at each level, the first member g with
    x * g^-1 in the level below.
    """
    ct = validate_cycle_type(cycle_type, degree)
    if degree < 2:
        raise ValueError("need degree >= 2 for a transposition target")
    if class_parity(ct) == 0:
        raise ValueError(f"class {ct} is even: no product of its members is odd")
    gens = class_elements(degree, ct)
    target = Perm.transposition(degree, 1, 2)
    levels: list[set[CycleType]] = [{(1,) * degree}]
    for m in range(1, limit + 1):
        reps = [canonical_class_element(degree, t) for t in levels[-1]]
        levels.append({(r * g).cycle_type() for r in reps for g in gens})
        if target.cycle_type() in levels[m]:
            word: list[Perm] = []
            x = target
            for k in range(m, 0, -1):
                g = next(g for g in gens if (x * g.inverse()).cycle_type() in levels[k - 1])
                word.append(g)
                x = x * g.inverse()
            return MinWordResult(m, tuple(reversed(word)))
    return MinWordResult(None, None, limit=limit)


def min_factors_to_transposition_fixing(degree: int, cycle_type: CycleType,
                                        fixed: tuple[int, int],
                                        limit: int = DEFAULT_SEARCH_DEPTH) -> MinWordResult:
    """Like :func:`min_factors_to_transposition` with every factor required to
    fix both points of ``fixed`` (which must avoid 1 and 2)."""
    ct = validate_cycle_type(cycle_type, degree)
    i3, i4 = fixed
    if len({i3, i4}) != 2 or {i3, i4} & {1, 2} or not all(1 <= p <= degree for p in (i3, i4)):
        raise ValueError(f"fixed points must be two distinct points of 3..{degree}: {fixed!r}")
    if class_parity(ct) == 0:
        raise ValueError(f"class {ct} is even: no product of its members is odd")
    if class_fixed_points(ct) < 2:
        raise ValueError(f"class {ct} has f_C < 2: no member fixes two points")
    gens = tuple(g for g in class_elements(degree, ct)
                 if g[i3 - 1] == i3 and g[i4 - 1] == i4)
    assert gens, "a class with f_C >= 2 always has members fixing any two points"
    target = Perm.transposition(degree, 1, 2)
    return _level_search(degree, gens, target, limit)


def generates_full_group(degree: int, cycle_type: CycleType) -> bool:
    """Whether the class generates all of S_degree.

    A class generates a normal subgroup, and the normal subgroups of S_d are
    1, A_d and S_d, plus V_4 at d = 4; so a class generates S_d exactly when
    it is odd, or when d = 1 and S_1 is the trivial group.

    >>> generates_full_group(1, (1,))
    True
    >>> generates_full_group(4, (2, 2))    # V_4
    False
    """
    ct = validate_cycle_type(cycle_type, degree)
    return degree == 1 or class_parity(ct) == 1


@dataclass(frozen=True)
class ClassMetrics:
    """Everything the tool knows about one conjugacy class."""

    degree: int
    cycle_type: CycleType
    order: int                 # n_C
    size: int                  # k_C
    fixed_points: int          # f_C
    parity: str                # "even" or "odd"
    generates_full: bool
    min_word: MinWordResult | None             # m_C; None for even classes
    min_word_fixing: MinWordResult | None      # m_C with factors fixing two anchors
    anchors: tuple[int, int] | None

    @property
    def m_values_differ(self) -> bool:
        return (self.min_word is not None and self.min_word_fixing is not None
                and self.min_word.known and self.min_word_fixing.known
                and self.min_word.length != self.min_word_fixing.length)


def compute_class_metrics(degree: int, cycle_type: CycleType,
                          limit: int = DEFAULT_SEARCH_DEPTH,
                          anchors: tuple[int, int] = (3, 4)) -> ClassMetrics:
    ct = validate_cycle_type(cycle_type, degree)
    parity = "odd" if class_parity(ct) else "even"
    min_word = None
    min_word_fixing = None
    used_anchors: tuple[int, int] | None = None
    if parity == "odd" and degree >= 2:
        min_word = min_factors_to_transposition(degree, ct, limit)
        if class_fixed_points(ct) >= 2 and degree >= 4:
            used_anchors = anchors
            min_word_fixing = min_factors_to_transposition_fixing(degree, ct, anchors, limit)
    return ClassMetrics(
        degree=degree,
        cycle_type=ct,
        order=class_order(ct),
        size=class_size(degree, ct),
        fixed_points=class_fixed_points(ct),
        parity=parity,
        generates_full=generates_full_group(degree, ct),
        min_word=min_word,
        min_word_fixing=min_word_fixing,
        anchors=used_anchors,
    )


def stability_bound(metrics: ClassMetrics) -> int:
    """The strict upper bound on the number of class factors past which words
    are determined by product and type.

    Uses the plain minimum m_C.  Requires an odd class with at least two
    fixed points and a known m_C.
    """
    if metrics.parity != "odd":
        raise ValueError("stability bound needs an odd class")
    if metrics.fixed_points < 2:
        raise ValueError(f"stability bound needs f_C >= 2, got {metrics.fixed_points}")
    if metrics.min_word is None or not metrics.min_word.known:
        raise ValueError("stability bound needs a known m_C")
    d = metrics.degree
    m = metrics.min_word.length
    assert m is not None
    return 3 ** (d - 3) * (2 * d - 1) * (d - 1) * m + metrics.order * metrics.size + 1
