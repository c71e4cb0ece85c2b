"""Freely reduced words over a rank-d generating set and its formal inverses.

A letter is a nonzero signed integer: ``+i`` is the i-th generator,
``-i`` its inverse (1-based, ``1 <= i <= d``).  A :class:`Word` stores a
tuple of such letters together with its :class:`Alphabet` and is always
freely reduced; raw letter sequences exist only transiently on the way
into the constructor.  The public constructor and :func:`parse_word`
validate and reduce once; words derived from valid words inside the
library (products, inverses, normal forms, sections) are built by the
internal ``_reduced`` without checking again.

Text form: tokens separated by whitespace, each token a generator name,
an optional trailing apostrophe for the inverse, and an optional
caret-integer repetition, e.g. ``a1^3`` or ``a1'^2`` (meaning the square
of the inverse).  Generator names are ``a1..a9``; the aliases ``a b c``
are accepted and printed when d = 3.  The token ``e`` denotes the empty
word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import (
    AlphabetMismatch,
    ArityTooSmall,
    EmptyWord,
    MalformedToken,
    UnknownGenerator,
)

# Words longer than this are rejected at parse time; exponent sums then fit
# comfortably in machine integers everywhere downstream.
MAX_WORD_LETTERS = 2**32

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """The generating set {a_1, ..., a_d} of the degree-d group."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 3:
            raise ArityTooSmall(f"arity must be at least 3, got {self.d}")

    def indices(self) -> range:
        return range(1, self.d + 1)


class Letter(NamedTuple):
    """A single signed letter, split into generator index and sign."""

    index: int
    sign: int

    @classmethod
    def from_int(cls, value: int) -> "Letter":
        return cls(abs(value), 1 if value > 0 else -1)

    def to_int(self) -> int:
        return self.index * self.sign


def reduce_letters(raw: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a raw signed-letter sequence (stack cancellation)."""
    out: list[int] = []
    for letter in raw:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty tuple is the identity element."""

    alphabet: Alphabet
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        d = self.alphabet.d
        for letter in self.letters:
            if letter == 0 or abs(letter) > d:
                raise UnknownGenerator(
                    f"letter {letter} outside +-1..{d} of the alphabet"
                )
        object.__setattr__(self, "letters", reduce_letters(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else invert(self)
        result = _reduced(self.alphabet, ())
        n = abs(n)
        while n:
            if n & 1:
                result = concat(result, base)
            n >>= 1
            if n:
                base = concat(base, base)
        return result

    def conjugated(self, h: "Word") -> "Word":
        """h^-1 * self * h."""
        return concat(concat(invert(h), self), h)

    def __str__(self) -> str:
        return format_word(self)


def _reduced(alphabet: Alphabet, letters: tuple[int, ...]) -> Word:
    """A Word from letters already valid over alphabet and freely reduced.

    Internal: skips the public constructor's validation and reduction, so
    callers must only pass letters built from valid, reduced words."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "letters", letters)
    return w


@dataclass(frozen=True)
class SignPure:
    """Marker returned by cyclic_normalize: every letter of the (cyclically
    reduced) word shares one sign, so no trailing inverse-then-plain pair
    exists.  ``core`` is the cyclically reduced conjugate itself."""

    core: Word

    @property
    def sign(self) -> int:
        return 1 if self.core.letters[0] > 0 else -1


def empty_word(alphabet: Alphabet) -> Word:
    return Word(alphabet)


def invert(w: Word) -> Word:
    return _reduced(w.alphabet, tuple(-l for l in reversed(w.letters)))


def concat(u: Word, v: Word) -> Word:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch(
            f"cannot concatenate words over arities {u.alphabet.d} and {v.alphabet.d}"
        )
    # both factors are reduced, so letters can only cancel at the seam
    left, right = u.letters, v.letters
    i, j, n = len(left), 0, len(right)
    while i and j < n and left[i - 1] == -right[j]:
        i -= 1
        j += 1
    return _reduced(u.alphabet, left[:i] + right[j:])


def commutator(u: Word, v: Word) -> Word:
    """u^-1 v^-1 u v."""
    return concat(concat(concat(invert(u), invert(v)), u), v)


def exponent_vector(w: Word) -> ExponentVector:
    counts = [0] * w.alphabet.d
    for letter in w.letters:
        counts[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(counts)


def exponent_total(w: Word) -> int:
    """Sum of all per-generator exponent sums (the signed total)."""
    return sum(1 if l > 0 else -1 for l in w.letters)


def cyclic_normalize(w: Word) -> Union[Word, SignPure]:
    """Rotate w to a conjugate ending in an inverse-then-plain letter pair.

    The word is first cyclically reduced (peeling matched outer letters);
    among the remaining cyclic positions the leftmost pair (negative
    letter followed cyclically by a positive one) is rotated to the end.
    If the cyclic reduction carries letters of one sign only, no such
    pair exists and the SignPure marker wrapping that conjugate is
    returned instead.
    """
    letters = w.letters
    if not letters:
        raise EmptyWord("cannot cyclically normalize the empty word")
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    # A nonempty freely reduced word never cyclically reduces to nothing:
    # the final two letters would have had to cancel inside a reduced word.
    core = letters[i : j + 1]
    # one byte per letter, 1 where the letter is positive, so that the
    # sign tests and the search for the pair run as bytes scans
    signs = bytes(map((0).__lt__, core))
    if 0 not in signs or 1 not in signs:
        return SignPure(_reduced(w.alphabet, core))
    pair = signs.find(b"\x00\x01")
    if pair < 0:
        # no pair inside the core, so it wraps: last letter negative,
        # first letter positive
        pair = len(core) - 1
    k = (pair + 2) % len(core)
    # a rotation of a cyclically reduced word is reduced
    return _reduced(w.alphabet, core[k:] + core[:k])


# ---------------------------------------------------------------------------
# text form


def canonical_names(alphabet: Alphabet) -> tuple[str, ...]:
    """Printing names: a b c at arity 3, a1..ad otherwise."""
    if alphabet.d == 3:
        return ("a", "b", "c")
    return tuple(f"a{i}" for i in alphabet.indices())


def _plain_tokens(names: Mapping[str, int], d: int) -> dict[str, int]:
    """``name`` and ``name'`` -> letter, for the names with an index in 1..d.

    A name that the token reader never looks up (empty, ``e``, or holding
    ``'`` or ``^``) is left out, so such a token still takes the general
    path and fails the same way."""
    tokens: dict[str, int] = {}
    for name, index in names.items():
        if (
            isinstance(name, str)
            and type(index) is int
            and 1 <= index <= d
            and name not in ("", "e")
            and "'" not in name
            and "^" not in name
        ):
            tokens[name] = index
            tokens[name + "'"] = -index
    return tokens


@lru_cache(maxsize=32)
def _default_tokens(d: int) -> tuple[dict[str, int], dict[str, int]]:
    """The canonical names (plus the d = 3 aliases) and their plain tokens."""
    names = {f"a{i}": i for i in range(1, d + 1)}
    if d == 3:
        names.update({"a": 1, "b": 2, "c": 3})
    return names, _plain_tokens(names, d)


def parse_word(
    text: str, alphabet: Alphabet, names: Mapping[str, int] | None = None
) -> Word:
    """Parse the text form into a freely reduced Word.

    ``names`` maps generator names to indices; by default the canonical
    names (plus the d = 3 aliases) are used.  Custom recursion tables
    pass their own name set.
    """
    d = alphabet.d
    if names is None:
        table, tokens = _default_tokens(d)
    else:
        table, tokens = names, _plain_tokens(names, d)
    parts = text.split()
    letters = list(map(tokens.get, parts))
    if None in letters:
        letters = _read_tokens(parts, table, tokens, d)
    if len(tokens) != 2 * len(table):
        # some name maps outside 1..d (or cannot be a token at all):
        # validate every letter the way the public constructor does
        return Word(alphabet, tuple(letters))
    return _reduced(alphabet, reduce_letters(letters))


def _read_tokens(
    parts: list[str], table: Mapping[str, int], tokens: Mapping[str, int], d: int
) -> list[int]:
    """Letters of the tokens one by one: ``e``, ``^`` and error cases."""
    letters: list[int] = []
    for token in parts:
        letter = tokens.get(token)
        if letter is not None:
            letters.append(letter)
            continue
        if token == "e":
            continue
        body = token
        exponent = 1
        if "^" in body:
            body, _, exp_text = body.partition("^")
            try:
                exponent = int(exp_text)
            except ValueError:
                raise MalformedToken(f"bad repetition count in token {token!r}")
        sign = 1
        if body.endswith("'"):
            body = body[:-1]
            sign = -1
        if not body or "'" in body or "^" in body:
            raise MalformedToken(f"cannot read token {token!r}")
        index = table.get(body)
        if index is None:
            raise UnknownGenerator(f"unknown generator {body!r} for arity {d}")
        if len(letters) + abs(exponent) > MAX_WORD_LETTERS:
            raise MalformedToken(
                f"word exceeds the {MAX_WORD_LETTERS} letter cap"
            )
        letter = index * sign * (1 if exponent >= 0 else -1)
        letters.extend([letter] * abs(exponent))
    return letters


def format_word(w: Word, names: tuple[str, ...] | None = None) -> str:
    """Canonical text: letters separated by single spaces, ``e`` if empty."""
    if names is None:
        names = canonical_names(w.alphabet)
    if not w.letters:
        return "e"
    parts = []
    for letter in w.letters:
        name = names[abs(letter) - 1]
        parts.append(name if letter > 0 else name + "'")
    return " ".join(parts)
