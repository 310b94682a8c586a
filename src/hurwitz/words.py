"""Words of permutations and the local braid moves that rewrite them.

A :class:`Factorization` is an ordered word of non-identity permutations of a
fixed degree.  Two words represent the same semigroup element when one can be
rewritten into the other by the local moves

    R at i:  (g_i, g_{i+1})  ->  (g_i g_{i+1} g_i^-1, g_i)
    L at i:  (g_i, g_{i+1})  ->  (g_{i+1}, g_{i+1}^-1 g_i g_{i+1})

which are mutually inverse and preserve the product, the type (multiset of
factor classes), the length, and the subgroup generated by the factors.
Deciding that equivalence is the job of :mod:`hurwitz.orbits`; this module
only applies moves.  The ``*_state`` functions apply them to ``Perm`` words
(the reference and I/O path); :class:`MoveKernel` applies them to
integer-coded words, the form the searches run on, and :class:`Packing` to
coded words packed into single ints, the form of the certificate searches.

File format: a header line ``d=<degree>`` followed by one word per line,
factors in cycle notation separated by spaces, e.g. ``(1,2) (2,3) (1,3)``.
A word with no factors is written ``()``.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .perms import CycleType, Perm, format_cycle_type, is_transitive, parse_cycle_type, validate_cycle_type

#: A word as a bare tuple of Perm values: the reference and I/O form.
State = tuple[Perm, ...]

#: A word as the searches see it: each factor replaced by its
#: :class:`MoveKernel` code.
Coded = tuple[int, ...]


def move_right_state(state: State, index0: int) -> State:
    """Apply the R move at 0-based pair index ``index0``."""
    a = state[index0]
    b = state[index0 + 1]
    return state[:index0] + (a.conjugate(b), a) + state[index0 + 2:]


def move_left_state(state: State, index0: int) -> State:
    """Apply the L move at 0-based pair index ``index0``."""
    a = state[index0]
    b = state[index0 + 1]
    return state[:index0] + (b, b.inverse().conjugate(a)) + state[index0 + 2:]


def conjugate_state(state: State, g: Perm) -> State:
    """Conjugate every factor by ``g``."""
    return tuple(g.conjugate(f) for f in state)


class Memo(dict):
    """A dict that fills a missing key with ``compute(key)``: it stores the
    value and returns it.  Every lazily filled table of the searches is one."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[Any], Any]) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.compute(key)
        return value


class MoveKernel:
    """Integer codes for the factors one search meets, and the moves on them.

    A factor's code is its rank among the permutations of 1..d in
    lexicographic one-line order, the order of ``itertools.permutations``.
    Coding therefore keeps order: a coded word compares exactly as its
    ``Perm`` tuple does, so the least coded word of a set decodes to the
    least word; ``identity`` is the identity's code, 0.  Codes are assigned
    on first sight and nothing is sized by the order of S_d, so every
    degree takes the same path.

    The moves are tables of rows, each row a :class:`Memo` made on first use
    and filled per entry, so a search pays ``Perm`` arithmetic only once per
    distinct pair, and a loop that holds one row looks each entry up once:

    * ``conjugate[g][x]`` is the code of g x g^-1.  It is also the new first
      factor of R at a pair (g, x), and row g conjugates a word by g; the new
      second factor of L at a pair (a, b), b^-1 a b, is
      ``conjugate[inverse[b]][a]``.
    * ``mul[a][b]`` is the code of the product a b; fiber enumeration carries
      target^-1 prefix with it, prunes by ``reflection[g]``, g's reflection
      length, and reads a word's last factor off ``inverse[g]``, g^-1's code.

    Codes and rows depend only on the degree, so a process keeps one kernel
    per degree for its whole life, :func:`kernel_of`, and each search reads
    the rows that earlier searches filled; only asked-for entries are held.
    The fill functions close over the code tables, not over the kernel, so
    a kernel built apart is freed as soon as its caller drops it.
    """

    def __init__(self, degree: int) -> None:
        self.degree = degree
        perms: dict[int, Perm] = {}

        def code_of(p: Perm) -> int:
            if len(p) != degree:
                raise ValueError(f"degree mismatch: {len(p)} vs {degree}")
            code = _lex_rank(p)
            perms[code] = p
            return code

        encode = Memo(code_of).__getitem__
        self._perms = perms
        self.encode = encode
        self.identity = encode(Perm.identity(degree))
        self.conjugate = Memo(lambda g: Memo(lambda x: encode(perms[g].conjugate(perms[x]))))
        self.mul = Memo(lambda a: Memo(lambda b: encode(perms[a] * perms[b])))
        self.inverse = Memo(lambda g: encode(perms[g].inverse()))
        self.reflection = Memo(lambda g: perms[g].reflection_length())

    def encode_word(self, state: State) -> Coded:
        return tuple(map(self.encode, state))

    def decode(self, code: int) -> Perm:
        return self._perms[code]

    def decode_word(self, coded: Coded) -> State:
        return tuple(map(self._perms.__getitem__, coded))


#: The one :class:`MoveKernel` of each degree that every search shares.
kernel_of = functools.cache(MoveKernel)


class Packing:
    """Coded words of one length packed into single ints, and the R and L
    moves on them; the certificate searches run on this form.

    The factor codes of a :class:`MoveKernel` are ranks below B = d!, so a
    word of length n packs as the base-B number whose most significant digit
    is its first factor.  Ints of one length then compare exactly as their
    coded tuples do, and a move at pair position i (0-based), which rewrites
    only the digits of places B^(n-1-i) and B^(n-2-i), adds
    ``delta * B**(n-2-i)`` to the word.  Both deltas depend only on the pair
    code q = a B + b, the two digits there:

        R:  (a, b) -> (conjugate[a][b], a),  delta (conjugate[a][b] - a) B + (a - b)
        L:  (a, b) -> (b, b^-1 a b),         delta (b - a) B + (b^-1 a b - b)

    with b^-1 a b read off the kernel as ``conjugate[inverse[b]][a]``.
    ``deltas[q]`` is that pair ``(R, L)``, filled from the kernel's rows on
    first use; ``places[i]`` is B^(n-2-i).
    """

    def __init__(self, kernel: MoveKernel, length: int) -> None:
        base = math.factorial(kernel.degree)
        self.base = base
        self.length = length
        self.places = [base ** (length - 2 - i) for i in range(length - 1)]
        conjugate, inverse = kernel.conjugate, kernel.inverse

        def pair_deltas(q: int) -> tuple[int, int]:
            a, b = divmod(q, base)
            return (conjugate[a][b] - a) * base + a - b, (b - a) * base + conjugate[inverse[b]][a] - b

        self.deltas = Memo(pair_deltas)

    def pack(self, coded: Coded) -> int:
        """The base-B number of ``coded``, of any length: a tail of t factors
        packs as the last t digits of the words that end in it."""
        w = 0
        for code in coded:
            w = w * self.base + code
        return w

    def unpack(self, w: int) -> Coded:
        """The coded word of ``length`` factors that packs as ``w``."""
        digits = []
        for _ in range(self.length):
            w, code = divmod(w, self.base)
            digits.append(code)
        return tuple(reversed(digits))


def _lex_rank(p: Perm) -> int:
    """Rank of ``p`` in lexicographic one-line order, counting from 0."""
    rest = sorted(p)
    rank = 0
    for i, value in enumerate(p):
        j = rest.index(value)
        del rest[j]
        rank = rank * (len(p) - i) + j
    return rank


@dataclass(frozen=True)
class Move:
    """A single local rewrite at 1-based position ``position`` (acting on the
    factors at ``position`` and ``position + 1``)."""

    position: int
    direction: str  # "L" or "R"

    def __post_init__(self) -> None:
        if self.direction not in ("L", "R"):
            raise ValueError(f"direction must be 'L' or 'R', got {self.direction!r}")
        if self.position < 1:
            raise ValueError(f"move position must be >= 1, got {self.position}")

    def invert(self) -> "Move":
        return Move(self.position, "L" if self.direction == "R" else "R")

    def shifted(self, offset: int) -> "Move":
        return Move(self.position + offset, self.direction)

    def __str__(self) -> str:
        return f"{self.direction}{self.position}"


def apply_moves_state(state: State, moves: Iterable[Move]) -> State:
    for m in moves:
        i0 = m.position - 1
        if i0 < 0 or i0 + 1 >= len(state):
            raise ValueError(f"move {m} out of range for a word of length {len(state)}")
        state = move_right_state(state, i0) if m.direction == "R" else move_left_state(state, i0)
    return state


@dataclass(frozen=True)
class TypeVector:
    """Multiset of conjugacy-class labels with multiplicities (the word type).

    ``counts`` is kept sorted by cycle type so equal type vectors compare and
    hash equal.  The text form is ``"2,1:4"`` (cycle type, colon, count) with
    ``;`` between classes.
    """

    counts: tuple[tuple[CycleType, int], ...]

    def __post_init__(self) -> None:
        for ct, n in self.counts:
            if n < 1:
                raise ValueError(f"multiplicity must be positive: {ct}:{n}")
        keys = [ct for ct, _ in self.counts]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise ValueError("type vector entries must be sorted and unique")

    @classmethod
    def from_counts(cls, mapping: dict[CycleType, int] | Iterable[tuple[CycleType, int]]) -> "TypeVector":
        items = dict(mapping)
        return cls(tuple(sorted((validate_cycle_type(ct), n) for ct, n in items.items())))

    @classmethod
    def from_factors(cls, factors: Iterable[Perm]) -> "TypeVector":
        return cls.from_counts(Counter(f.cycle_type() for f in factors))

    @classmethod
    def single(cls, cycle_type: Iterable[int], count: int) -> "TypeVector":
        return cls.from_counts({validate_cycle_type(cycle_type): count})

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "TypeVector":
        items: dict[CycleType, int] = {}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ValueError(f"bad type entry (want 'cycletype:count'): {chunk!r}")
            ct_text, count_text = chunk.rsplit(":", 1)
            ct = parse_cycle_type(ct_text, degree)
            n = int(count_text)
            items[ct] = items.get(ct, 0) + n
        if not items:
            raise ValueError(f"empty type vector: {text!r}")
        return cls.from_counts(items)

    def total(self) -> int:
        return sum(n for _, n in self.counts)

    def as_dict(self) -> dict[CycleType, int]:
        return dict(self.counts)

    def check_degree(self, degree: int) -> None:
        for ct, _ in self.counts:
            validate_cycle_type(ct, degree)

    def __str__(self) -> str:
        return ";".join(f"{format_cycle_type(ct)}:{n}" for ct, n in self.counts)


@dataclass(frozen=True)
class Factorization:
    """An ordered word of non-identity permutations of one degree.

    The word is only a representative: semigroup equality is Hurwitz-move
    equivalence, decided by the orbit engine, not structural equality.
    """

    degree: int
    factors: tuple[Perm, ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        factors = tuple(self.factors)
        for f in factors:
            if not isinstance(f, Perm):
                raise TypeError(f"factor is not a Perm: {f!r}")
            if len(f) != self.degree:
                raise ValueError(f"factor degree {len(f)} != word degree {self.degree}")
            if f.is_identity():
                raise ValueError("identity factors are not allowed in a word")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def of(cls, degree: int, factors: Iterable[Perm | str | Sequence[int]]) -> "Factorization":
        """Build a word, coercing strings/one-line sequences to Perm."""
        coerced: list[Perm] = []
        for f in factors:
            if isinstance(f, Perm):
                coerced.append(f)
            elif isinstance(f, str):
                coerced.append(Perm.parse(f, degree))
            else:
                coerced.append(Perm(f))
        return cls(degree, tuple(coerced))

    @classmethod
    def empty(cls, degree: int) -> "Factorization":
        return cls(degree, ())

    @classmethod
    def from_state(cls, degree: int, state: State) -> "Factorization":
        return cls(degree, tuple(state))

    # -- homomorphisms and invariants ---------------------------------------

    def product(self) -> Perm:
        """The ordered product of the factors; the empty word maps to identity."""
        p = Perm.identity(self.degree)
        for f in self.factors:
            p = p * f
        return p

    def type_vector(self) -> TypeVector:
        return TypeVector.from_factors(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def is_transitive(self) -> bool:
        return is_transitive(self.degree, self.factors)

    # -- rewriting -----------------------------------------------------------

    def apply_move(self, move: Move) -> "Factorization":
        if not 1 <= move.position <= len(self.factors) - 1:
            raise ValueError(
                f"move position {move.position} out of range 1..{len(self.factors) - 1}")
        state = apply_moves_state(self.factors, (move,))
        return Factorization(self.degree, state)

    def apply_moves(self, moves: Iterable[Move]) -> "Factorization":
        out = self
        for m in moves:
            out = out.apply_move(m)
        return out

    def conjugated_by(self, g: Perm) -> "Factorization":
        """Conjugate every factor by ``g``; the product conjugates along."""
        if len(g) != self.degree:
            raise ValueError(f"degree mismatch: {len(g)} vs {self.degree}")
        return Factorization(self.degree, conjugate_state(self.factors, g))

    def concat(self, other: "Factorization") -> "Factorization":
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Factorization(self.degree, self.factors + other.factors)

    def repeated(self, n: int) -> "Factorization":
        if n < 0:
            raise ValueError("repetition count must be >= 0")
        return Factorization(self.degree, self.factors * n)

    # -- text form -----------------------------------------------------------

    def to_line(self) -> str:
        if not self.factors:
            return "()"
        return " ".join(str(f) for f in self.factors)

    __str__ = to_line

    @classmethod
    def parse_line(cls, degree: int, line: str) -> "Factorization":
        """Parse a file line: factors in cycle notation separated by spaces."""
        tokens = line.split()
        if tokens == ["()"]:
            return cls.empty(degree)
        return cls.of(degree, tokens)

    @classmethod
    def parse_word(cls, degree: int, text: str) -> "Factorization":
        """Parse the inline CLI form.

        With whitespace, each token is a factor in full cycle or one-line
        notation (so ``"(1,2)(3,4) (1,3)"`` is two factors, the first a double
        transposition).  Without whitespace, every bracketed group is its own
        factor: ``"(1,2)(2,3)"`` is two transpositions.  ``"()"`` is the empty
        word.
        """
        stripped = text.strip()
        if stripped == "()":
            return cls.empty(degree)
        if any(ch.isspace() for ch in stripped):
            return cls.parse_line(degree, stripped)
        groups = []
        pos = 0
        while pos < len(stripped):
            end_char = {"(": ")", "[": "]"}.get(stripped[pos])
            if end_char is None:
                raise ValueError(f"bad word syntax at {stripped[pos:]!r}")
            end = stripped.find(end_char, pos)
            if end < 0:
                raise ValueError(f"unterminated factor in {text!r}")
            groups.append(stripped[pos:end + 1])
            pos = end + 1
        return cls.of(degree, groups)


def save_words(path: str | Path, degree: int, words: Iterable[Factorization]) -> None:
    lines = [f"d={degree}"]
    for w in words:
        if w.degree != degree:
            raise ValueError(f"word degree {w.degree} != file degree {degree}")
        lines.append(w.to_line())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_words(path: str | Path) -> tuple[int, list[Factorization]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("d="):
        raise ValueError(f"missing 'd=<degree>' header in {path}")
    degree = int(lines[0][2:])
    return degree, [Factorization.parse_line(degree, ln) for ln in lines[1:]]
