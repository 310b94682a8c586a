"""Per-class constants of a symmetric-group conjugacy class.

For a class C of S_d this module computes the element order n_C, the class
size k_C, the fixed-point count f_C, whether C generates all of S_d, the
least number of C-factors whose product is the transposition (1,2) (plain and
with all factors required to fix two chosen points), and the stability bound

    3^(d-3) * (2d-1) * (d-1) * m  +  n_C * k_C  +  1

beyond which any word with enough C-factors is determined by its product and
type.  The answers come from the class algebra: C is closed under
conjugation, so it generates a normal subgroup, and every product set C^k is
a union of classes, carried as a set of cycle types.  The members of C that
fix two points outside {1, 2} are the class of the point stabiliser S_{d-2}
(C with two 1-cycles removed), which contains (1,2); so the anchored answer
is the plain search at degree d-2, carried back by the increasing map of the
remaining points.  Every witness is the least minimal word in the
lexicographic order of one-line notation.
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
ANCHORS = (3, 4)    # the two points every anchored witness factor fixes


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


def _min_word(degree: int, ct: CycleType, limit: int) -> MinWordResult:
    if limit < 0:
        raise ValueError(f"search depth must be at least 0, got {limit}")
    # Level k holds the cycle types of C^k; level k+1 is read off the products
    # of one representative per type with every class member.
    gens = class_elements(degree, ct)
    target = Perm.transposition(degree, 1, 2)
    levels: list[set[CycleType]] = [{(1,) * degree}]
    for m in range(1, limit + 1):
        reps = [canonical_class_element(degree, t) for t in levels[-1]]
        levels.append({(r * g).cycle_type() for r in reps for g in gens})
        if target.cycle_type() in levels[m]:
            # Forward descent: at each position the first member g whose
            # remaining product (x*g)^-1 * (1,2) lies in the level below.
            word: list[Perm] = []
            x = Perm.identity(degree)
            for k in range(m - 1, -1, -1):
                g = next(g for g in gens
                         if ((x * g).inverse() * target).cycle_type() in levels[k])
                word.append(g)
                x = x * g
            return MinWordResult(m, tuple(word))
    return MinWordResult(None, None, limit=limit)


def min_factors_to_transposition(degree: int, cycle_type: CycleType,
                                 limit: int = DEFAULT_SEARCH_DEPTH) -> MinWordResult:
    """Least m with (1,2) a product of m class members, plus the least such
    word.  Only odd classes can reach a transposition; even classes are
    rejected."""
    ct = validate_cycle_type(cycle_type, degree)
    if class_parity(ct) == 0:
        raise ValueError(f"class {ct} is even: no product of its members is odd")
    return _min_word(degree, ct, limit)


def min_factors_to_transposition_fixing(degree: int, cycle_type: CycleType,
                                        fixed: tuple[int, int],
                                        limit: int = DEFAULT_SEARCH_DEPTH) -> MinWordResult:
    """Like :func:`min_factors_to_transposition` with every factor required to
    fix both points of ``fixed`` (which must avoid 1 and 2).

    >>> [str(f) for f in min_factors_to_transposition_fixing(6, (4, 1, 1), (3, 5)).witness]
    ['(1,2,4,6)', '(1,2,4,6)', '(1,6,2,4)']
    """
    ct = validate_cycle_type(cycle_type, degree)
    i3, i4 = fixed
    if len({i3, i4}) != 2 or {i3, i4} & {1, 2} or not all(1 <= p <= degree for p in (i3, i4)):
        raise ValueError(f"fixed points must be two distinct points of 3..{degree}: {fixed!r}")
    if class_parity(ct) == 0:
        raise ValueError(f"class {ct} is even: no product of its members is odd")
    if class_fixed_points(ct) < 2:
        raise ValueError(f"class {ct} has f_C < 2: no member fixes two points")
    result = _min_word(degree - 2, ct[:-2], limit)    # ct less two 1-cycles
    if result.witness is None:
        return result
    # The increasing map of {1..d-2} onto the points other than ``fixed``
    # sends (1,2) to (1,2) and keeps one-line order.
    points = [p for p in range(1, degree + 1) if p not in fixed]
    lifted = []
    for g in result.witness:
        img = list(range(1, degree + 1))
        for p, q in zip(points, g):
            img[p - 1] = points[q - 1]
        lifted.append(Perm(img))
    return MinWordResult(result.length, tuple(lifted))


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
    min_word_fixing: MinWordResult | None      # m_C with factors fixing ANCHORS


def compute_class_metrics(degree: int, cycle_type: CycleType,
                          limit: int = DEFAULT_SEARCH_DEPTH) -> ClassMetrics:
    ct = validate_cycle_type(cycle_type, degree)
    parity = "odd" if class_parity(ct) else "even"
    min_word = None
    min_word_fixing = None
    if parity == "odd":
        min_word = min_factors_to_transposition(degree, ct, limit)
        if class_fixed_points(ct) >= 2 and degree >= 4:
            min_word_fixing = min_factors_to_transposition_fixing(degree, ct, ANCHORS, limit)
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
    m = metrics.min_word.length
    assert m is not None
    return ladder_cube_length(metrics.degree, m) + metrics.order * metrics.size + 1


def ladder_cube_length(degree: int, witness_length: int) -> int:
    """The length of the stable tail block, the embedded ladder cube built
    from a witness of ``witness_length`` factors."""
    return 3 ** (degree - 3) * (2 * degree - 1) * (degree - 1) * witness_length
