"""Exact arithmetic on permutations of {1, ..., d} and conjugacy-class bookkeeping.

Permutations are stored in one-line notation: a ``Perm`` is a tuple whose
entry at index ``i - 1`` is the image of ``i``, with values running over
``1..d``.  ``Perm`` subclasses ``tuple`` so that words of permutations hash
and compare at native tuple speed.

The composition convention is fixed once for the whole package:

    (p * q)(i) = p(q(i))        # q acts first

Cycle notation is an I/O format only.  ``"(1,2)(3,4,5)"`` parses to the
permutation with those cycles, fixed points are omitted when printing, and
the identity prints as ``"()"``.  One-line notation ``"[2,1,4,3]"`` is also
accepted by the parser.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from typing import Iterable, Iterator, Sequence

#: Largest degree for which listing a group or a class (:func:`closure`,
#: :func:`class_elements`) is permitted; a :class:`Chain` lists neither.
MAX_EXHAUSTIVE_DEGREE = 8

CycleType = tuple[int, ...]


class LimitExceededError(RuntimeError):
    """A computation was asked for above the degree it is limited to."""


class Perm(tuple):
    """A permutation of {1..d} in one-line notation.

    >>> p = Perm([2, 1, 3])
    >>> str(p)
    '(1,2)'
    >>> p * Perm([1, 3, 2])           # (1,2) * (2,3), right factor acts first
    Perm('(1,2,3)', d=3)
    >>> p.inverse() == p
    True
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        images = tuple(images)
        d = len(images)
        if d < 1:
            raise ValueError("a permutation needs degree >= 1")
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images!r}")
        return tuple.__new__(cls, images)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return tuple.__new__(cls, range(1, degree + 1))

    @classmethod
    def cycle(cls, degree: int, points: Sequence[int]) -> "Perm":
        """The cyclic permutation points[0] -> points[1] -> ... -> points[0]."""
        if len(set(points)) != len(points):
            raise ValueError(f"cycle repeats a point: {points!r}")
        if points and not all(1 <= p <= degree for p in points):
            raise ValueError(f"cycle {points!r} out of range 1..{degree}")
        img = list(range(1, degree + 1))
        for a, b in zip(points, points[1:]):
            img[a - 1] = b
        if len(points) > 1:
            img[points[-1] - 1] = points[0]
        return tuple.__new__(cls, img)

    @classmethod
    def transposition(cls, degree: int, i: int, j: int) -> "Perm":
        if i == j:
            raise ValueError("a transposition needs two distinct points")
        return cls.cycle(degree, (i, j))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Product of the given cycles, leftmost first under the package convention.

        Disjoint cycles commute, so for the usual disjoint-cycle input the
        order does not matter.
        """
        p = cls.identity(degree)
        for c in cycles:
            p = p * cls.cycle(degree, c)
        return p

    _CYCLE_TOKEN = re.compile(r"\((\d+(?:,\d+)*)?\)")

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Perm":
        """Parse cycle notation ``"(1,2)(3,4,5)"`` or one-line ``"[2,1,4,3]"``.

        ``degree`` is required for the bare identity ``"()"`` and is otherwise
        inferred from the largest point (cycle form) or the length (one-line
        form); when given, it must be consistent.

        >>> Perm.parse("(1,2)", degree=3)
        Perm('(1,2)', d=3)
        >>> Perm.parse("[2,1,4,3]")
        Perm('(1,2)(3,4)', d=4)
        """
        s = "".join(text.split())
        if not s:
            raise ValueError("empty permutation text")
        if s.startswith("["):
            if not s.endswith("]"):
                raise ValueError(f"unterminated one-line notation: {text!r}")
            body = s[1:-1]
            if not body:
                raise ValueError("empty one-line notation")
            p = cls(int(t) for t in body.split(","))
            if degree is not None and len(p) != degree:
                raise ValueError(f"expected degree {degree}, got {len(p)}: {text!r}")
            return p
        pos = 0
        cycles: list[tuple[int, ...]] = []
        while pos < len(s):
            m = cls._CYCLE_TOKEN.match(s, pos)
            if m is None:
                raise ValueError(f"bad cycle notation: {text!r}")
            if m.group(1):
                cycles.append(tuple(int(t) for t in m.group(1).split(",")))
            pos = m.end()
        if degree is None:
            if not cycles:
                raise ValueError("degree required to parse the identity '()'")
            degree = max(max(c) for c in cycles)
        return cls.from_cycles(degree, cycles)

    # -- arithmetic --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self)

    def apply(self, point: int) -> int:
        return self[point - 1]

    __call__ = apply

    def __mul__(self, other):  # type: ignore[override]
        if not isinstance(other, Perm):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        return tuple.__new__(Perm, (self[x - 1] for x in other))

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, img in enumerate(self):
            inv[img - 1] = i + 1
        return tuple.__new__(Perm, inv)

    def conjugate(self, other: "Perm") -> "Perm":
        """Return ``self * other * self.inverse()`` in a single pass."""
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        img = [0] * len(self)
        for x in range(len(self)):
            img[self[x] - 1] = self[other[x] - 1]
        return tuple.__new__(Perm, img)

    # -- structure ---------------------------------------------------------

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, ordered by it."""
        seen = [False] * len(self)
        out = []
        for start in range(1, len(self) + 1):
            if seen[start - 1]:
                continue
            cur = start
            cyc = []
            while not seen[cur - 1]:
                seen[cur - 1] = True
                cyc.append(cur)
                cur = self[cur - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> CycleType:
        """Cycle lengths including fixed points, non-increasing.

        >>> Perm.parse("(1,2)(3,4,5)", degree=8).cycle_type()
        (3, 2, 1, 1, 1)
        """
        seen = [False] * len(self)
        lengths = []
        for start in range(1, len(self) + 1):
            if seen[start - 1]:
                continue
            n = 0
            cur = start
            while not seen[cur - 1]:
                seen[cur - 1] = True
                n += 1
                cur = self[cur - 1]
            lengths.append(n)
        lengths.sort(reverse=True)
        return tuple(lengths)

    def cycle_count(self) -> int:
        return len(self.cycle_type())

    def parity(self) -> int:
        """0 for even, 1 for odd: (degree - number of cycles) mod 2."""
        return (len(self) - self.cycle_count()) % 2

    def reflection_length(self) -> int:
        """Least number of transpositions whose product is this permutation."""
        return len(self) - self.cycle_count()

    def __str__(self) -> str:
        cys = self.cycles()
        if not cys:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cys)

    def __repr__(self) -> str:
        return f"Perm('{self}', d={len(self)})"


def all_perms(degree: int) -> Iterator[Perm]:
    """All elements of S_degree in lexicographic one-line order."""
    for images in itertools.permutations(range(1, degree + 1)):
        yield tuple.__new__(Perm, images)


@functools.lru_cache(maxsize=None)
def transpositions(degree: int) -> tuple[Perm, ...]:
    """All transpositions of S_degree, sorted."""
    return tuple(sorted(
        Perm.transposition(degree, i, j)
        for i in range(1, degree)
        for j in range(i + 1, degree + 1)
    ))


# -- cycle types (conjugacy class labels) -----------------------------------

def validate_cycle_type(cycle_type: Iterable[int], degree: int | None = None) -> CycleType:
    """Canonicalize to a non-increasing partition; check it sums to ``degree``."""
    ct = tuple(sorted((int(x) for x in cycle_type), reverse=True))
    if not ct or any(x < 1 for x in ct):
        raise ValueError(f"cycle type parts must be positive: {ct!r}")
    if degree is not None and sum(ct) != degree:
        raise ValueError(f"cycle type {ct!r} is not a partition of {degree}")
    return ct


def parse_cycle_type(text: str, degree: int | None = None) -> CycleType:
    """Parse ``"2,1,1"`` into the partition (2, 1, 1)."""
    try:
        parts = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad cycle type: {text!r}") from None
    return validate_cycle_type(parts, degree)


def format_cycle_type(cycle_type: CycleType) -> str:
    return ",".join(str(x) for x in cycle_type)


def all_cycle_types(degree: int) -> tuple[CycleType, ...]:
    """All partitions of ``degree`` in descending lexicographic order."""
    out: list[CycleType] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(max_part, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(degree, degree, [])
    return tuple(out)


def class_size(degree: int, cycle_type: Iterable[int]) -> int:
    """|C| = d! / prod_l (l^{m_l} * m_l!) where m_l counts parts of length l."""
    ct = validate_cycle_type(cycle_type, degree)
    denom = 1
    for length, mult in Counter(ct).items():
        denom *= (length ** mult) * math.factorial(mult)
    return math.factorial(degree) // denom


def class_parity(cycle_type: Iterable[int]) -> int:
    return sum(l - 1 for l in cycle_type) % 2


def class_order(cycle_type: Iterable[int]) -> int:
    return math.lcm(*cycle_type)


def class_fixed_points(cycle_type: Iterable[int]) -> int:
    return sum(1 for l in cycle_type if l == 1)


def class_reflection_length(cycle_type: Iterable[int]) -> int:
    return sum(l - 1 for l in cycle_type)


def canonical_class_element(degree: int, cycle_type: Iterable[int]) -> Perm:
    """The member of the class whose cycles occupy consecutive points in order."""
    ct = validate_cycle_type(cycle_type, degree)
    cycles = []
    next_point = 1
    for length in ct:
        cycles.append(tuple(range(next_point, next_point + length)))
        next_point += length
    return Perm.from_cycles(degree, cycles)


@functools.lru_cache(maxsize=None)
def _class_elements_cached(degree: int, cycle_type: CycleType) -> tuple[Perm, ...]:
    """The class as the conjugation orbit of its canonical element under S_d."""
    gens = centraliser_generators(Perm.identity(degree))
    orbit = frontier = {canonical_class_element(degree, cycle_type)}
    while frontier:
        frontier = {g.conjugate(x) for x in frontier for g in gens} - orbit
        orbit |= frontier
    return tuple(sorted(orbit))


def class_elements(degree: int, cycle_type: Iterable[int]) -> tuple[Perm, ...]:
    """All permutations of S_degree with the given cycle type, sorted.

    >>> [str(p) for p in class_elements(3, (2, 1))]
    ['(2,3)', '(1,2)', '(1,3)']
    """
    ct = validate_cycle_type(cycle_type, degree)
    if degree > MAX_EXHAUSTIVE_DEGREE:
        raise LimitExceededError(
            f"class enumeration is exhaustive and limited to degree <= {MAX_EXHAUSTIVE_DEGREE}")
    return _class_elements_cached(degree, ct)


# -- subgroups ---------------------------------------------------------------

def closure(degree: int, generators: Iterable[Perm]) -> frozenset[Perm]:
    """The subgroup generated by ``generators`` as an explicit element set.

    Breadth-first closure under right multiplication; valid for finite groups
    since powers of each generator reach its inverse.
    """
    if degree > MAX_EXHAUSTIVE_DEGREE:
        raise LimitExceededError(
            f"subgroup closure is exhaustive and limited to degree <= {MAX_EXHAUSTIVE_DEGREE}")
    gens = tuple(dict.fromkeys(generators))
    for g in gens:
        if len(g) != degree:
            raise ValueError(f"generator degree {len(g)} != {degree}")
    ident = Perm.identity(degree)
    seen = {ident}
    order_ = [ident]
    for x in order_:
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                order_.append(y)
    return frozenset(seen)


class Chain:
    """The group generated by ``generators`` as a base and strong generating
    set, for its order and membership without a listing (Schreier–Sims;
    Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, §4.4).

    Level i holds a base point b_i, generators X_i of G_i (G_0 is the group)
    and the orbit of b_i under them, each x with a u_x in G_i taking b_i to
    x.  When every Schreier generator u_y^-1 s u_x (s in X_i, y = s(x))
    strips to 1 through the levels below, those hold G_(i+1), the stabiliser
    of b_i (Schreier's lemma): |G| is the product of the orbit lengths, and g
    is in G when dividing out each level's u_x in turn leaves 1.  An element
    is the bytes of its images of 0..d, 0 fixed, and a left factor a 256-byte
    table: a b is ``b.translate(table of a)``, so the degree is below 256.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = ()) -> None:
        if degree > 255:
            raise LimitExceededError(f"a stabiliser chain holds degrees up to 255, not {degree}")
        self.degree = degree
        self._identity = bytes(range(degree + 1))
        self._levels = []  # per level: b_i, the tables of X_i, x -> u_x, x -> the table of u_x^-1
        for g in generators:
            self.add(g)

    def _strip(self, g: bytes, i: int) -> tuple[bytes, int]:
        """``g`` stripped through the levels from i on, and the level that missed it."""
        for k in range(i, len(self._levels)):
            base, _, _, inverses = self._levels[k]
            table = inverses.get(g[base])
            if table is None:
                return g, k
            g = g.translate(table)
        return g, len(self._levels)

    def _insert(self, g: bytes, i: int) -> bool:
        """Add ``g`` (in G_(i-1), fixing b_(i-1)) to G_i: its strip's residue
        goes to the level that missed it and every level up to i, deepest
        first, each walked to completion; a walk inserts only below itself."""
        g, j = self._strip(g, i)
        if g == self._identity:
            return False
        if j == len(self._levels):
            base = next(x for x in range(self.degree + 1) if g[x] != x)
            self._levels.append((base, [], {base: self._identity}, {base: bytes(range(256))}))
        table = bytes.maketrans(self._identity, g)
        for k in range(j, i - 1, -1):
            base, gens, reps, inverses = self._levels[k]
            gens.append(table)
            orbit, old = list(reps), len(reps)
            for n, x in enumerate(orbit):  # grows while it is walked
                for s in gens if n >= old else (table,):  # each (x, s) once over the level's life
                    su = reps[x].translate(s)
                    y = su[base]
                    if y not in reps:
                        reps[y], inverses[y] = su, bytes.maketrans(su, self._identity)
                        orbit.append(y)
                    elif (h := su.translate(inverses[y])) != self._identity:
                        self._insert(h, k + 1)
        return True

    def add(self, g: Perm) -> bool:
        """Add ``g`` to the generators; whether the group grew."""
        return self._insert(bytes((0, *g)), 0)

    def __contains__(self, g: Perm) -> bool:
        return self._strip(bytes((0, *g)), 0)[0] == self._identity

    def order(self) -> int:
        return math.prod(len(level[2]) for level in self._levels)

    def least_in_coset(self, g: Perm) -> Perm:
        """One element of the left coset g G that depends only on the coset:
        at each level, g times the u_x whose x has the least image g(x).  An
        element of g G is fixed by its images of the base points, and these
        are the least in turn (Holt, Eick and O'Brien, 2005, ch. 4)."""
        g = bytes((0, *g))
        for _, _, reps, _ in self._levels:
            g = reps[min(reps, key=g.__getitem__)].translate(bytes.maketrans(self._identity, g))
        return Perm(g[1:])


def is_transitive(degree: int, perms: Iterable[Perm]) -> bool:
    """Whether the group generated by ``perms`` acts transitively on
    1..degree: whether the images of 1 under words in them reach every point."""
    perms = tuple(perms)
    orbit, seen = [1], {1}
    for x in orbit:  # grows while it is walked
        for p in perms:
            y = p[x - 1]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return len(orbit) == degree


def generates_symmetric_group(degree: int, perms: Iterable[Perm]) -> bool:
    """Whether ``perms`` generate S_degree: whether their :class:`Chain` has
    order degree!."""
    return Chain(degree, perms).order() == math.factorial(degree)


def centraliser_generators(p: Perm) -> tuple[Perm, ...]:
    """Generators of Z(p), the centraliser of ``p``, read off its cycles,
    fixed points included: each cycle, and for each length k held by m >= 2
    cycles, the swap of two of them point by point and the rotation of all
    m.  Z(p) is the product over k of the wreath products C_k wr S_m, of
    order prod_k k^m m!."""
    d = len(p)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in p.cycles() + [(x,) for x in range(1, d + 1) if p(x) == x]:
        by_length.setdefault(len(cycle), []).append(cycle)
    gens = [Perm.cycle(d, cycle) for cycle in p.cycles()]
    for cycles in by_length.values():
        if len(cycles) > 1:
            gens += [Perm.from_cycles(d, zip(*cycles[:2])), Perm.from_cycles(d, zip(*cycles))]
    return tuple(dict.fromkeys(gens))
