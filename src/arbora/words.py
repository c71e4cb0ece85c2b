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
of the inverse).  Generator names are ``a1..ad``; the aliases ``a b c``
are accepted and printed when d = 3.  The token ``e`` denotes the empty
word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlphabetMismatch,
    ArityTooSmall,
    EmptyWord,
    MalformedToken,
    UnknownGenerator,
)

# No parsed word may have more than this many letters; a caret repetition
# is checked before it allocates, so a short token such as
# ``a^4294967296`` is rejected at once.  Power words of about 10**7
# letters still parse.
MAX_WORD_LETTERS = 2**24

ExponentVector = tuple[int, ...]

_set = object.__setattr__


class _Value:
    """Base of the immutable value types: a subclass names its fields in
    __slots__ (a leading underscore marks a cache, outside equality, hash
    and repr) and sets them in __init__ with _set.  Values of one exact
    type with equal fields are equal; copy and pickle call __init__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Alphabet(_Value):
    """The generating set {a_1, ..., a_d} of the degree-d group."""

    __slots__ = ("d",)

    def __init__(self, d: int) -> None:
        if type(d) is not int:
            raise TypeError(f"arity must be an int, got {d!r}")
        if d < 3:
            raise ArityTooSmall(f"arity must be at least 3, got {d}")
        _set(self, "d", d)

    def indices(self) -> range:
        return range(1, self.d + 1)


def reduce_letters(raw: Sequence[int]) -> tuple[int, ...]:
    """Freely reduce a raw signed-letter sequence (stack cancellation)."""
    previous = 0
    for letter in raw:
        if letter == -previous:
            break
        previous = letter
    else:
        # no adjacent pair cancels, so the letters are reduced already
        return tuple(raw)
    out: list[int] = []
    for letter in raw:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Word(_Value):
    """A freely reduced word; the empty tuple is the identity element."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()) -> None:
        letters = tuple(letters)
        d = alphabet.d
        for bad in letters:
            # 1.0 and True compare like 1 but are no letter
            if type(bad) is not int or bad == 0 or abs(bad) > d:
                raise UnknownGenerator(
                    f"letter {bad!r} outside +-1..{d} of the alphabet"
                )
        _set(self, "alphabet", alphabet)
        _set(self, "letters", reduce_letters(letters))

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
    _set(w, "alphabet", alphabet)
    _set(w, "letters", letters)
    return w


def invert(w: Word) -> Word:
    return _reduced(w.alphabet, tuple(-l for l in reversed(w.letters)))


def concat(u: Word, v: Word) -> Word:
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
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


def _cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced letters with the matched outer ones peeled: a cyclically
    reduced conjugate, nonempty for nonempty letters (else the last two
    would have cancelled)."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return letters[i : j + 1]


def cyclic_normalize(w: Word) -> Word:
    """Rotate w to a conjugate ending in an inverse-then-plain letter pair.

    The word is first cyclically reduced (peeling matched outer letters);
    among the remaining cyclic positions the leftmost pair (negative
    letter followed cyclically by a positive one) is rotated to the end.
    If the cyclic reduction carries letters of one sign only, no such
    pair exists and that conjugate is returned unrotated.
    """
    if not w.letters:
        raise EmptyWord("cannot cyclically normalize the empty word")
    core = _cyclic_core(w.letters)
    # one byte per letter, 1 where the letter is positive, so that the
    # sign tests and the search for the pair run as bytes scans
    signs = bytes(map((0).__lt__, core))
    if 0 not in signs or 1 not in signs:
        return _reduced(w.alphabet, core)
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


@lru_cache(maxsize=32)
def _default_tokens(d: int) -> dict[str, int]:
    """The canonical names (plus the d = 3 aliases) and their inverses as
    tokens: ``name`` -> index, ``name'`` -> -index."""
    names = {f"a{i}": i for i in range(1, d + 1)}
    if d == 3:
        names.update({"a": 1, "b": 2, "c": 3})
    return names | {name + "'": -index for name, index in names.items()}


def parse_word(
    text: str, alphabet: Alphabet, names: Mapping[str, int] | None = None
) -> Word:
    """Parse the text form into a freely reduced Word.

    ``names`` maps generator names to indices; by default the canonical
    names (plus the d = 3 aliases) are used.  Custom recursion tables
    pass their own name set, which is only looked up, name by name.
    """
    d = alphabet.d
    parts = text.split()
    if names is not None:
        return _reduced(alphabet, _read_tokens(parts, names, d))
    tokens = _default_tokens(d)
    try:
        letters = list(map(tokens.__getitem__, parts))
    except KeyError:
        return _reduced(alphabet, _read_tokens(parts, tokens, d))
    if len(letters) > MAX_WORD_LETTERS:
        raise MalformedToken(f"word exceeds the {MAX_WORD_LETTERS} letter cap")
    return _reduced(alphabet, reduce_letters(letters))


def _read_tokens(parts: list[str], names: Mapping[str, int], d: int) -> tuple[int, ...]:
    """Freely reduced letters of the tokens read one by one.  Every token
    is split into name, apostrophe and caret count, and its name is looked
    up in ``names``.

    A caret run repeats one letter, so it cancels only at its seam with
    the letters before it: reducing while reading holds a long run once.
    The cap counts the letters read, not the letters kept."""
    out: list[int] = []
    count = 0
    for token in parts:
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
        index = names.get(body)
        if index is None:
            raise UnknownGenerator(f"unknown generator {body!r} for arity {d}")
        # 1.0 and True compare like 1 but are no letter, as in Word()
        if type(index) is not int:
            raise UnknownGenerator(f"index {index!r} of {body!r} is not an int")
        letter = index * sign * (1 if exponent >= 0 else -1)
        run = abs(exponent)
        if run and (letter == 0 or abs(letter) > d):
            raise UnknownGenerator(f"letter {letter} outside +-1..{d} of the alphabet")
        count += run
        if count > MAX_WORD_LETTERS:
            raise MalformedToken(f"word exceeds the {MAX_WORD_LETTERS} letter cap")
        while run and out and out[-1] == -letter:
            out.pop()
            run -= 1
        out.extend(repeat(letter, run))
    return tuple(out)


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
