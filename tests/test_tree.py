import pytest
from hypothesis import given, settings, strategies as st

from arbora.errors import BadVertex, LevelTooLarge, MalformedToken, UnknownGenerator
from arbora.family import build_table
from arbora.tree import (
    Permutation,
    RecursionTable,
    act_vertex,
    format_portrait,
    format_table,
    format_vertex,
    level_permutation,
    load_table,
    parse_vertex,
    portrait,
    section,
    vertex_orbit,
    word_permutation,
    wreath,
)
from arbora.words import Alphabet, Word, empty_word, invert, parse_word

T3 = build_table(3)
T4 = build_table(4)
T5 = build_table(5)


def w3(text):
    return parse_word(text, T3.alphabet)


# ---------------------------------------------------------------------------
# permutations


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 2, 4))


def test_permutation_compose_left_to_right():
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    assert (t12 * t23).images == (3, 1, 2)
    assert (t23 * t12).images == (2, 3, 1)


def test_permutation_inverse_and_identity():
    p = Permutation((3, 1, 2))
    assert p.inverse().images == (2, 3, 1)
    assert (p * p.inverse()).is_identity
    assert Permutation.identity(4).is_identity
    assert p(1) == 3 and p.inverse()(3) == 1


def test_permutation_cycles_and_str():
    assert Permutation((3, 1, 2)).cycles() == ((1, 3, 2),)
    assert str(Permutation((3, 1, 2))) == "(1 3 2)"
    assert str(Permutation.identity(3)) == "()"
    assert str(Permutation((2, 1, 3, 5, 4))) == "(1 2)(4 5)"


def test_permutation_from_cycles_composes_in_order():
    p = Permutation.from_cycles(3, [(1, 2), (2, 3)])
    assert p.images == (3, 1, 2)
    q = Permutation.from_cycles(5, [(5, 4, 3)])
    assert q(5) == 4 and q(4) == 3 and q(3) == 5


def test_cycle_string_roundtrip():
    for text, n in [("(1 3 2)", 3), ("()", 3), ("(1 2)(4 5)", 5)]:
        p = Permutation.from_cycle_string(n, text)
        assert str(p) == text
    with pytest.raises(MalformedToken):
        Permutation.from_cycle_string(3, "(1 4)")
    with pytest.raises(MalformedToken):
        Permutation.from_cycle_string(3, "(1 1)")
    with pytest.raises(MalformedToken):
        Permutation.from_cycle_string(3, "1 2")


# ---------------------------------------------------------------------------
# vertices


def test_parse_and_format_vertex():
    assert parse_vertex("", 3) == ()
    assert parse_vertex("132", 3) == (1, 3, 2)
    assert format_vertex((2, 1)) == "21"
    with pytest.raises(BadVertex):
        parse_vertex("14", 3)
    with pytest.raises(BadVertex):
        parse_vertex("0", 3)
    with pytest.raises(BadVertex):
        parse_vertex("x", 3)


# ---------------------------------------------------------------------------
# the built-in arity-3 table, against hand-written rows


def test_arity3_table_matches_hand_rows():
    A = Alphabet(3)
    rows = {
        "a": ((Word(A, (1,)), Word(A, (2,)), Word(A, ())), (1, 2)),
        "b": ((Word(A, ()), Word(A, (2,)), Word(A, (3,))), (2, 3)),
        "c": ((Word(A, (1,)), Word(A, ()), Word(A, (3,))), (3, 1)),
    }
    hand = RecursionTable(
        A,
        ("a", "b", "c"),
        tuple(rows[n][0] for n in ("a", "b", "c")),
        tuple(Permutation.transposition(3, *rows[n][1]) for n in ("a", "b", "c")),
    )
    assert hand == T3


def test_single_letter_actions():
    assert act_vertex(T3, w3("a"), (1,)) == (2,)
    assert act_vertex(T3, w3("a"), (3,)) == (3,)
    assert act_vertex(T3, w3("c"), (3,)) == (1,)
    assert act_vertex(T3, w3("a"), (1, 1)) == (2, 2)
    assert act_vertex(T3, w3("a"), ()) == ()
    with pytest.raises(BadVertex):
        act_vertex(T3, w3("a"), (4,))


def test_inverse_letter_sections():
    assert section(T3, w3("a'"), (1,)) == w3("b'")
    assert section(T3, w3("a'"), (2,)) == w3("a'")
    assert section(T3, w3("a'"), (3,)) == w3("e")
    assert section(T3, w3("b'"), (2,)) == w3("c'")
    assert section(T3, w3("c'"), (1,)) == w3("c'")


def test_sections_of_products():
    assert section(T3, w3("a b c"), (2,)) == w3("b a")
    assert section(T3, w3("a b c"), (1,)) == w3("a b c")
    assert section(T3, w3("a b c"), (1, 2)) == w3("b a")
    assert section(T3, empty_word(T3.alphabet), (2, 2)) == w3("e")


def test_section_at_root_validates_foreign_letters():
    with pytest.raises(UnknownGenerator):
        section(T3, Word(Alphabet(5), (5,)), ())


def test_wreath_table_entries():
    wr = wreath(T3, w3("b b"))
    assert [s.letters for s in wr.sections] == [(), (2, 3), (3, 2)]
    assert wr.perm.is_identity
    wr = wreath(T3, w3("a b"))
    assert [str(s) for s in wr.sections] == ["a b", "b", "c"]
    assert wr.perm.images == (3, 1, 2)


def test_word_permutation():
    assert word_permutation(T3, w3("e")).is_identity
    assert word_permutation(T3, w3("a b")).images == (3, 1, 2)
    assert word_permutation(T3, w3("a b c b")).is_identity


def test_level_permutation_lex_order():
    assert level_permutation(T3, w3("a"), 0) == ((),)
    assert level_permutation(T3, w3("a"), 1) == ((2,), (1,), (3,))
    assert level_permutation(T3, w3("a"), 2) == (
        (2, 2), (2, 1), (2, 3),
        (1, 1), (1, 3), (1, 2),
        (3, 1), (3, 2), (3, 3),
    )
    with pytest.raises(LevelTooLarge):
        level_permutation(T3, w3("a"), 20)


def test_portrait_shape_and_format():
    p = portrait(T3, w3("a b"), 0)
    assert p.is_leaf and p.residual == w3("a b")
    p = portrait(T3, w3("a b"), 1)
    assert len(p.children) == 3
    assert p.children[1].residual == w3("b")
    text = format_portrait(p)
    assert text == "\n".join(
        ["(1 3 2)", "  1: (1 3 2) a b", "  2: (2 3) b", "  3: (1 3) c"]
    )
    with pytest.raises(LevelTooLarge):
        portrait(T3, w3("a"), 20)


def test_vertex_orbit_sizes():
    assert len(vertex_orbit(T3, (1,))) == 3
    assert len(vertex_orbit(T3, (1, 1, 1))) == 27
    assert len(vertex_orbit(T5, (1, 1))) == 25


# ---------------------------------------------------------------------------
# table file format


def test_format_table_roundtrip():
    text = format_table(T4)
    assert "a1 = (a1, a2, e, e) (1 2)" in text.splitlines()
    assert load_table(text) == T4


def test_load_table_with_comments():
    table = load_table(
        """
        # ternary odometer-like machine
        x = (e, e, x) (1 2 3)
        y = (y, e, e) ()
        z = (e, z, e) (1 3)
        """
    )
    assert table.names == ("x", "y", "z")
    assert act_vertex(table, parse_word("x", table.alphabet, {"x": 1}), (3, 1)) == (1, 2)


def test_load_table_errors():
    with pytest.raises(MalformedToken):
        load_table("a (a, b, e) (1 2)")  # missing =
    with pytest.raises(MalformedToken):
        load_table("a = (a, b) (1 2)\nb = (e, b, c) (2 3)\nc = (a, e, c) (3 1)")
    with pytest.raises(MalformedToken):
        load_table("a = (a, e) (1 2)\na = (e, a) ()")
    with pytest.raises(MalformedToken):
        load_table("e = (e, e, e) ()\nb = (e, b, c) (2 3)\nc = (a, e, c) (3 1)")
    with pytest.raises(MalformedToken):
        load_table("a = (a, b, e) (1 5)\nb = (e, b, c) (2 3)\nc = (a, e, c) (3 1)")


# ---------------------------------------------------------------------------
# structural laws on random words


@st.composite
def table_words(draw, table, max_len=12):
    d = table.alphabet.d
    pool = [i for i in range(1, d + 1)] + [-i for i in range(1, d + 1)]
    raw = draw(st.lists(st.sampled_from(pool), max_size=max_len))
    return Word(table.alphabet, tuple(raw))


@st.composite
def vertices(draw, d, max_depth=4):
    return tuple(
        draw(st.lists(st.integers(1, d), min_size=0, max_size=max_depth))
    )


@given(table_words(T3), table_words(T3), vertices(3))
@settings(max_examples=80)
def test_section_product_rule(u, v, vtx):
    for x in range(1, 4):
        left = section(T3, u * v, (x,))
        right = section(T3, u, (x,)) * section(T3, v, act_vertex(T3, u, (x,)))
        assert left == right
    # and the action composes the same way
    assert act_vertex(T3, u * v, vtx) == act_vertex(T3, v, act_vertex(T3, u, vtx))


@given(table_words(T5), vertices(5, 2), vertices(5, 2))
@settings(max_examples=60)
def test_section_composition_rule(w, u, v):
    assert section(T5, w, u + v) == section(T5, section(T5, w, u), v)


@given(table_words(T3), vertices(3))
@settings(max_examples=80)
def test_inverse_section_rule(w, vtx):
    moved = act_vertex(T3, invert(w), vtx)
    assert section(T3, invert(w), vtx) == invert(section(T3, w, moved))


@given(table_words(T4), vertices(4, 3))
@settings(max_examples=60)
def test_action_preserves_level(w, vtx):
    image = act_vertex(T4, w, vtx)
    assert len(image) == len(vtx)
    back = act_vertex(T4, invert(w), image)
    assert back == vtx


@given(table_words(T3, max_len=8))
@settings(max_examples=60)
def test_level_permutation_matches_pointwise_action(w):
    images = level_permutation(T3, w, 2)
    listed = [
        act_vertex(T3, w, (x, y)) for x in range(1, 4) for y in range(1, 4)
    ]
    assert list(images) == listed


# ---------------------------------------------------------------------------
# the fold against direct evaluation from the table's rows

README = load_table(
    "x = (e, e, x) (1 2 3)\ny = (y, e, e) ()\nz = (e, z, e) (1 3)\n"
)
# sections of several letters, so that inverse letters must reverse them
LONG = load_table(
    "p = (p q, e, q' r p) (1 2)\nq = (e, r' q, p) ()\nr = (q p' r, p, e) (1 3 2)\n"
)


def letter_step(table, letter, x):
    """Section letters and image of one letter at slot x, from the rows."""
    i = abs(letter)
    images = table.perms[i - 1].images
    if letter > 0:
        return table.sections[i - 1][x - 1].letters, images[x - 1]
    pre = images.index(x) + 1
    return tuple(-l for l in reversed(table.sections[i - 1][pre - 1].letters)), pre


def direct_fold(table, letters, x):
    """Unreduced section letters of a word at slot x, and the image of x."""
    out = []
    for letter in letters:
        sec, x = letter_step(table, letter, x)
        out += sec
    return out, x


def direct_act(table, letters, v):
    image = []
    for x in v:
        letters, y = direct_fold(table, letters, x)
        image.append(y)
    return tuple(image)


@pytest.mark.parametrize(
    "table", [T3, T4, T5, README, LONG], ids=["d3", "d4", "d5", "readme", "long"]
)
@given(data=st.data())
@settings(max_examples=40)
def test_fold_matches_direct_evaluation(table, data):
    d = table.alphabet.d
    w = data.draw(table_words(table, max_len=16))
    v = data.draw(vertices(d, 3))
    direct = [direct_fold(table, w.letters, x) for x in range(1, d + 1)]
    assert word_permutation(table, w).images == tuple(y for _, y in direct)
    rec = wreath(table, w)
    assert rec.perm.images == tuple(y for _, y in direct)
    assert rec.sections == tuple(Word(table.alphabet, tuple(s)) for s, _ in direct)
    assert act_vertex(table, w, v) == direct_act(table, w.letters, v)
