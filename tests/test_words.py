import pytest
from hypothesis import given, settings, strategies as st

from arbora.errors import (
    AlphabetMismatch,
    ArityTooSmall,
    EmptyWord,
    MalformedToken,
    UnknownGenerator,
)
from arbora.words import (
    Alphabet,
    Word,
    canonical_names,
    commutator,
    concat,
    cyclic_normalize,
    exponent_vector,
    format_word,
    invert,
    parse_word,
)

A3 = Alphabet(3)
A4 = Alphabet(4)


@st.composite
def words(draw, d=3, max_len=12):
    alphabet = Alphabet(d)
    pool = [i for i in range(1, d + 1)] + [-i for i in range(1, d + 1)]
    raw = draw(st.lists(st.sampled_from(pool), max_size=max_len))
    return Word(alphabet, tuple(raw))


def test_alphabet_rejects_small_arity():
    with pytest.raises(ArityTooSmall):
        Alphabet(2)


def test_alphabet_rejects_an_arity_that_is_not_an_int():
    # 3.0 and True compare like 3 and 1; neither is an arity
    for d in (3.0, "3", True):
        with pytest.raises(TypeError, match="arity must be an int"):
            Alphabet(d)


def test_free_reduction_on_construction():
    assert Word(A3, (1, -1, 2)).letters == (2,)
    assert Word(A3, (1, 2, -2, -1, 3)).letters == (3,)
    assert Word(A3, ()).letters == ()


def test_word_rejects_foreign_letters():
    with pytest.raises(UnknownGenerator):
        Word(A3, (4,))
    with pytest.raises(UnknownGenerator):
        Word(A3, (0,))
    # the first bad letter is named
    for letters, bad in (((1, 0), 0), ((2, -9, 7), -9)):
        with pytest.raises(UnknownGenerator) as info:
            Word(A3, letters)
        assert str(info.value) == f"letter {bad} outside +-1..3 of the alphabet"


def test_word_rejects_letters_that_are_not_integers():
    # 1.0 and True equal the letter 1 and pass a set test; "1" has no abs
    # and [1] no hash
    for letters, shown in (((1.5,), "1.5"), ((1.0, 2), "1.0"), (("1",), "'1'"),
                           ((2, True), "True"), ((3, [1]), "[1]")):
        with pytest.raises(UnknownGenerator) as info:
            Word(A3, letters)
        assert str(info.value) == f"letter {shown} outside +-1..3 of the alphabet"


def test_word_takes_any_iterable_of_letters():
    assert Word(A3, (l for l in (1, 2))).letters == (1, 2)
    assert Word(A3, iter([1, -1, 3])).letters == (3,)
    assert Word(A3, [-3, 2]) == Word(A3, (-3, 2))
    assert Word(A3, Word(A3, (1, -2))).letters == (1, -2)


def test_invert_and_concat():
    w = Word(A3, (1, 2))
    assert invert(w).letters == (-2, -1)
    assert concat(w, Word(A3, (-2, 3))).letters == (1, 3)
    assert (w * ~w).letters == ()


def test_concat_rejects_mixed_arities():
    with pytest.raises(AlphabetMismatch):
        concat(Word(A3, (1,)), Word(A4, (1,)))


def test_power():
    ab = Word(A3, (1, 2))
    assert (ab**2).letters == (1, 2, 1, 2)
    assert (ab**-1).letters == (-2, -1)
    assert (ab**0).letters == ()


def test_conjugated():
    a, b = Word(A3, (1,)), Word(A3, (2,))
    assert a.conjugated(b).letters == (-2, 1, 2)


def test_commutator():
    a, b = Word(A3, (1,)), Word(A3, (2,))
    assert commutator(a, b).letters == (-1, -2, 1, 2)


def test_exponent_vector_and_total():
    w = Word(A3, (1, 1, -2))
    assert exponent_vector(w) == (2, -1, 0)
    assert exponent_vector(Word(A3)) == (0, 0, 0)


def test_cyclic_normalize_rotates_to_trailing_pair():
    out = cyclic_normalize(Word(A3, (1, -2)))
    assert isinstance(out, Word) and out.letters == (-2, 1)
    # matched outer letters peel off cyclically before the rotation
    out = cyclic_normalize(Word(A3, (-1, 2, -3, 1)))
    assert isinstance(out, Word) and out.letters == (-3, 2)
    # rotation of a longer word with no cyclic cancellation
    out = cyclic_normalize(Word(A3, (-1, 2, -3, 2)))
    assert isinstance(out, Word) and out.letters == (-3, 2, -1, 2)


def test_cyclic_normalize_sign_pure():
    # a one-signed core has no inverse-then-plain pair and stays unrotated
    assert cyclic_normalize(Word(A3, (1, 1, 2))).letters == (1, 1, 2)
    # mixed input whose cyclic reduction is one-signed
    assert cyclic_normalize(Word(A3, (-2, 1, 2))).letters == (1,)
    assert cyclic_normalize(Word(A3, (-1, -2))).letters == (-1, -2)


def test_cyclic_normalize_empty():
    with pytest.raises(EmptyWord):
        cyclic_normalize(Word(A3, (2, -2)))


def test_parse_basic():
    assert parse_word("a b' c^3", A3).letters == (1, -2, 3, 3, 3)
    assert parse_word("a1 a2'", A4).letters == (1, -2)
    assert parse_word("e", A3).letters == ()
    assert parse_word("", A3).letters == ()
    assert parse_word("a a'", A3).letters == ()
    assert parse_word("a'^2", A3).letters == (-1, -1)
    assert parse_word("a^-2", A3).letters == (-1, -1)
    assert parse_word("a1 a2 a3", A3).letters == (1, 2, 3)


def test_parse_custom_names():
    assert parse_word("x y'", A3, {"x": 1, "y": 3}).letters == (1, -3)
    with pytest.raises(UnknownGenerator):
        parse_word("a", A3, {"x": 1})


def test_parse_errors():
    with pytest.raises(UnknownGenerator):
        parse_word("x", A3)
    with pytest.raises(UnknownGenerator):
        parse_word("a", A4)  # single-letter aliases only exist at arity 3
    with pytest.raises(MalformedToken):
        parse_word("a^x", A3)
    with pytest.raises(MalformedToken):
        parse_word("a'b", A3)
    with pytest.raises(MalformedToken):
        parse_word("a^2^3", A3)
    with pytest.raises(MalformedToken):
        parse_word("^3", A3)
    # caret repetitions may make a word at most 2**24 letters long; the
    # last word builds all 2**24 letters before its final token
    for text in ("a^4294967297", "a^16777217", "a^16777216 a^1"):
        with pytest.raises(MalformedToken):
            parse_word(text, A3)


def test_parse_caps_every_letter(monkeypatch):
    monkeypatch.setattr("arbora.words.MAX_WORD_LETTERS", 4)
    for text in ("a a a a a", "a^4 a", "a a^4"):
        with pytest.raises(MalformedToken):
            parse_word(text, A3)
    assert parse_word("a a a a", A3).letters == (1, 1, 1, 1)


def test_format_word():
    assert format_word(Word(A3, (1, -2, 3))) == "a b' c"
    assert format_word(Word(A3, ())) == "e"
    assert format_word(Word(A4, (4, -1))) == "a4 a1'"
    assert format_word(Word(A3, (1,)), ("x", "y", "z")) == "x"
    assert str(Word(A3, (-3,))) == "c'"


def test_canonical_names():
    assert canonical_names(A3) == ("a", "b", "c")
    assert canonical_names(A4) == ("a1", "a2", "a3", "a4")


@given(words())
@settings(max_examples=80)
def test_reduction_is_a_fixed_point(w):
    assert Word(w.alphabet, w.letters).letters == w.letters
    for x, y in zip(w.letters, w.letters[1:]):
        assert x != -y


@given(words(), words(), words())
@settings(max_examples=60)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(words())
@settings(max_examples=60)
def test_invert_involution(w):
    assert invert(invert(w)) == w
    assert concat(w, invert(w)).letters == ()


@given(words(), words())
@settings(max_examples=60)
def test_exponent_vector_additive(u, v):
    joined = exponent_vector(concat(u, v))
    assert joined == tuple(
        x + y for x, y in zip(exponent_vector(u), exponent_vector(v))
    )


@given(words(d=3), words(d=5))
@settings(max_examples=40)
def test_parse_format_roundtrip(u, v):
    assert parse_word(format_word(u), u.alphabet) == u
    assert parse_word(format_word(v), v.alphabet) == v


@given(words(max_len=10))
@settings(max_examples=80)
def test_cyclic_normalize_preserves_counts(w):
    if not w.letters:
        return
    out = cyclic_normalize(w).letters
    assert exponent_vector(Word(w.alphabet, out)) == exponent_vector(w)
    if any(l < 0 for l in out) and any(l > 0 for l in out):
        assert out[-2] < 0 < out[-1]


# ---------------------------------------------------------------------------
# the letter kernel against plain references


def peel_by_slicing(letters):
    """Reference cyclic normalization: peel by slicing, rotate by scanning."""
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    if all(l > 0 for l in letters) or all(l < 0 for l in letters):
        return tuple(letters)
    n = len(letters)
    for j in range(n):
        if letters[j] < 0 and letters[(j + 1) % n] > 0:
            k = (j + 2) % n
            return tuple(letters[k:] + letters[:k])


def normalized(w):
    return cyclic_normalize(w).letters


@given(words(max_len=16), words(max_len=6))
@settings(max_examples=150)
def test_cyclic_normalize_matches_slice_peel(core, u):
    w = concat(concat(invert(u), core), u)
    if not w.letters:
        return
    assert normalized(w) == peel_by_slicing(w.letters)


def test_cyclic_normalize_long_conjugates():
    import random

    rng = random.Random(7)
    pool = [1, 2, 3, -1, -2, -3]
    for core in [(1, -2), (-1, -2, 3), (2, 2, 1), (-3, 1, -2, 1)]:
        u = Word(A3, tuple(rng.choice(pool) for _ in range(3000)))
        w = concat(concat(invert(u), Word(A3, core)), u)
        assert normalized(w) == peel_by_slicing(w.letters)


README_NAMES = {"x": 1, "y": 2, "z": 3}


def parse_token_by_token(text, alphabet, names=None):
    """Reference reader: each token on its own, then the public constructor."""
    if names is None:
        names = {f"a{i}": i for i in alphabet.indices()}
        if alphabet.d == 3:
            names.update({"a": 1, "b": 2, "c": 3})
    letters = []
    for token in text.split():
        if token == "e":
            continue
        body, caret, exp_text = token.partition("^")
        try:
            exponent = int(exp_text) if caret else 1
        except ValueError:
            raise MalformedToken(token)
        sign = -1 if body.endswith("'") else 1
        body = body[:-1] if sign < 0 else body
        if not body or "'" in body or "^" in body:
            raise MalformedToken(token)
        if body not in names:
            raise UnknownGenerator(body)
        letter = names[body] * sign * (1 if exponent >= 0 else -1)
        letters += [letter] * abs(exponent)
    return Word(alphabet, tuple(letters))


def outcome(parse, *args):
    try:
        return parse(*args)
    except (MalformedToken, UnknownGenerator) as exc:
        return type(exc)


TOKENS = st.sampled_from(
    ["a", "b'", "c", "a1", "a2'", "a3", "a4", "e", "a^3", "b'^2", "c^-2",
     "a^0", "x", "y'", "z^2", "x'^-1", "a''", "a'b", "^2", "a^x", "a^2^3",
     "q", "'", "e'"]
)


@given(st.lists(TOKENS, max_size=12), st.sampled_from([3, 4]))
@settings(max_examples=200)
def test_parse_matches_token_by_token_reference(tokens, d):
    text = " ".join(tokens)
    alphabet = Alphabet(d)
    assert outcome(parse_word, text, alphabet) == outcome(
        parse_token_by_token, text, alphabet
    )
    assert outcome(parse_word, text, alphabet, README_NAMES) == outcome(
        parse_token_by_token, text, alphabet, README_NAMES
    )


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "token, expected",
    [
        ("e", ()),
        ("b^2", (2, 2)),
        ("a'^-3", (1, 1, 1)),
        ("q", (UnknownGenerator, "unknown generator 'q' for arity 3")),
        ("a^x", (MalformedToken, "bad repetition count in token {token!r}")),
    ],
)
@pytest.mark.parametrize("names", [None, README_NAMES], ids=["default", "custom"])
def test_parse_reads_a_general_token_anywhere(at, token, expected, names):
    # the README names x y z stand for a b c
    rename = str.maketrans("abc", "xyz") if names else {}
    tokens = ["c", "b'", "c", "b'", "c"]
    tokens[at] = token
    text = " ".join(tokens).translate(rename)
    if expected and isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as info:
            parse_word(text, A3, names)
        assert str(info.value) == message.format(token=token.translate(rename))
    else:
        letters = [3, -2, 3, -2, 3]
        letters[at : at + 1] = expected
        assert parse_word(text, A3, names) == Word(A3, tuple(letters))


def test_custom_names_are_read_on_each_call():
    names = {"x": 1, "y": 2}
    assert parse_word("x y'", A3, dict(names)).letters == (1, -2)
    names["y"] = 3  # an edited map is read afresh
    assert parse_word("x y'", A3, names).letters == (1, -3)
    # 1.0 and True equal 1 but are no letter's index
    for index in (1.0, True):
        with pytest.raises(UnknownGenerator, match=f"index {index!r} of 'x' is not"):
            parse_word("x", A3, {"x": index})
    # unhashable items are read
    assert parse_word("x y'", A3, {"x": 1, "y": 2, "z": [3]}).letters == (1, -2)


def test_parse_validates_names_outside_the_alphabet():
    with pytest.raises(UnknownGenerator):
        parse_word("x y", A3, {"x": 1, "y": 4})
    with pytest.raises(UnknownGenerator):
        parse_word("y^2", A3, {"x": 1, "y": 0})
    assert parse_word("x x'", A3, {"x": 1, "y": 4}).letters == ()
    with pytest.raises(UnknownGenerator):
        parse_word("x'", A3, {"x'": 1})


@given(words(), words())
@settings(max_examples=100)
def test_concat_and_invert_match_the_public_constructor(u, v):
    joined = concat(u, v)
    direct = Word(A3, u.letters + v.letters)
    assert joined == direct and hash(joined) == hash(direct)
    inverse = invert(u)
    direct = Word(A3, tuple(-l for l in reversed(u.letters)))
    assert inverse == direct and hash(inverse) == hash(direct)


@given(words(max_len=6), st.integers(-20, 20))
@settings(max_examples=100)
def test_power_matches_repeated_product(w, n):
    base = w.letters if n >= 0 else tuple(-l for l in reversed(w.letters))
    assert w**n == Word(A3, base * abs(n))
