import itertools
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from arbora import tree, verifier
from arbora.errors import AlphabetMismatch, BadVertex, LevelTooLarge, MalformedToken
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
    _compose,
    _level,
    _orbit_numbers,
)
from arbora.verifier import check_free_semigroup
from arbora.words import Alphabet, Word, invert, parse_word
from pointwise import level_images

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
    # 2.0 and True sort like 2 and 1, but str() and inverse() need ints
    for images in ((2.0, 1, 3), (True, 2, 3)):
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(images)


def test_products_and_inverses_of_bijections_stay_bijections():
    # products and inverses skip the public constructor's check, which
    # still refuses a non-bijection; a product across degrees is refused
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((2, 2, 1))
    p, q = Permutation((3, 1, 2, 4)), Permutation((2, 4, 1, 3))
    for r in (p * q, q * p, p.inverse(), (p * q).inverse()):
        assert r == Permutation(r.images)
    with pytest.raises(ValueError, match="degrees 3 and 4 differ"):
        Permutation.identity(3) * Permutation.identity(4)
    with pytest.raises(ValueError, match="degrees 4 and 3 differ"):
        p * Permutation((2, 3, 1))


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


def _cycles_one_by_one(n, cycles):
    """The product of one validated Permutation per cycle, left to right."""
    result = Permutation.identity(n)
    for cycle in cycles:
        images = list(range(1, n + 1))
        for pos, x in enumerate(cycle):
            images[x - 1] = cycle[(pos + 1) % len(cycle)]
        result = result * Permutation(tuple(images))
    return result


@st.composite
def cycle_lists(draw):
    n = draw(st.integers(1, 6))
    cycle = st.lists(st.integers(1, n), unique=True, max_size=n)
    return n, draw(st.lists(cycle, max_size=4))


@given(cycle_lists())
@settings(max_examples=150)
def test_from_cycles_is_the_product_of_its_cycles(case):
    n, cycles = case
    p = Permutation.from_cycles(n, cycles)
    assert p == _cycles_one_by_one(n, cycles)
    assert p == Permutation(p.images)


@pytest.mark.parametrize("pair", [(1, 4), (0, 2), (3, -1), (7, 9), (1.0, 2), (2, True)])
def test_from_cycles_refuses_an_entry_outside_the_degree(pair):
    with pytest.raises(ValueError, match=r"^cycle entry outside 1\.\.3$"):
        Permutation.from_cycles(3, [(1, 2), pair])
    with pytest.raises(ValueError, match=r"^cycle entry outside 1\.\.3$"):
        Permutation.transposition(3, *pair)
    bad = next(x for x in pair if x not in (1, 2, 3) or type(x) is not int)
    with pytest.raises(ValueError, match=r"^cycle entry outside 1\.\.3$"):
        Permutation.from_cycles(3, [(bad,)])  # a one-point cycle too


def test_from_cycles_refuses_a_point_repeated_within_a_cycle():
    with pytest.raises(ValueError, match="^repeated entry within a cycle$"):
        Permutation.from_cycles(3, [(1, 1, 2)])
    with pytest.raises(ValueError, match="^repeated entry within a cycle$"):
        Permutation.transposition(3, 2, 2)
    # a point may recur in different cycles
    assert Permutation.from_cycles(3, [(1, 2), (2, 1)]).is_identity
    # the cycle string names the text it could not read
    outside, repeated = "cycle entry outside 1..3", "repeated entry within a cycle"
    for text, error in [("(1 4)", outside), ("(3)(5)", outside), ("(1 2 1)", repeated)]:
        with pytest.raises(MalformedToken) as info:
            Permutation.from_cycle_string(3, text)
        assert str(info.value) == f"{error} in {text!r}"


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
    assert format_vertex((2, 1), 3) == "21"
    with pytest.raises(BadVertex):
        parse_vertex("14", 3)
    with pytest.raises(BadVertex):
        parse_vertex("0", 3)
    with pytest.raises(BadVertex):
        parse_vertex("x", 3)
    with pytest.raises(BadVertex):
        parse_vertex("\u00b2", 3)  # a digit that int() does not read


def test_vertices_past_nine_slots_are_dot_separated():
    # at degree 10 the digits 1010 could be (10, 10) or (1, 0, 1, 0)
    assert parse_vertex("10.1.10", 10) == (10, 1, 10)
    assert parse_vertex("", 10) == ()
    assert format_vertex((10, 1, 10), 10) == "10.1.10"
    assert format_vertex((), 12) == ""
    for v in itertools.product((1, 9, 10, 12), repeat=2):
        assert parse_vertex(format_vertex(v, 12), 12) == v
    for text in ("1010", "13", "1..2", "0", "2.x", "1."):
        with pytest.raises(BadVertex, match="^vertex entry .* outside 1..12$"):
            parse_vertex(text, 12)


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
    assert section(T3, Word(T3.alphabet), (2, 2)) == w3("e")


def test_section_at_root_validates_foreign_letters():
    with pytest.raises(AlphabetMismatch):
        section(T3, Word(Alphabet(5), (5,)), ())


@pytest.mark.parametrize("letters", [(5, 1), (1, 2)])
@pytest.mark.parametrize(
    "call",
    [
        lambda w: section(T3, w, (1,)),
        lambda w: act_vertex(T3, w, (1,)),
        lambda w: wreath(T3, w),
        lambda w: word_permutation(T3, w),
        lambda w: level_permutation(T3, w, 1),
        lambda w: portrait(T3, w, 1),
    ],
    ids=["section", "act_vertex", "wreath", "word_permutation",
         "level_permutation", "portrait"],
)
def test_tree_functions_reject_a_foreign_alphabet(call, letters):
    # a5 has no row in an arity-3 table, and a1 a2 has one only by accident
    with pytest.raises(AlphabetMismatch):
        call(Word(Alphabet(5), letters))


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


def test_level_cap_refuses_a_huge_level_at_once():
    # the vertex count is multiplied only until it passes the cap, so a
    # level of 10**7 is refused without computing 3**(10**7)
    start = time.monotonic()
    with pytest.raises(LevelTooLarge):
        level_permutation(T3, w3("a"), 10**7)
    with pytest.raises(LevelTooLarge):
        portrait(T3, w3("a"), 10**7)
    assert time.monotonic() - start < 1.0
    # the orbit checks the level before it reads the vertex
    with pytest.raises(LevelTooLarge):
        vertex_orbit(T3, (9,) * 20)


def test_vertex_orbit_sizes():
    assert len(vertex_orbit(T3, (1,))) == 3
    assert len(vertex_orbit(T3, (1, 1, 1))) == 27
    assert len(vertex_orbit(T5, (1, 1))) == 25


def closure(table, v):
    """The orbit of v under the generators and their inverses, by act_vertex."""
    A = table.alphabet
    moves = [Word(A, (l,)) for i in A.indices() for l in (i, -i)]
    seen, frontier = {v}, {v}
    while frontier:
        frontier = {act_vertex(table, m, u) for u in frontier for m in moves}
        frontier -= seen
        seen |= frontier
    return seen


def test_vertex_orbit_is_the_closure_under_inverses_too():
    # the README table is not level-transitive (the orbit of 11 has 9
    # vertices); closing under the generators alone finds the orbits that
    # closing under the generators and their inverses finds
    for k in range(5):
        for v in itertools.product(README.alphabet.indices(), repeat=k):
            assert vertex_orbit(README, v) == closure(README, v)
    assert len(vertex_orbit(README, (1, 1))) == 9


def test_orbit_numbers_are_the_orbit_in_lexicographic_numbering():
    # the CLI and the transitivity check count the orbit by its vertex
    # numbers, a vertex's lexicographic rank on its level; the split
    # table has several orbits on each level, so a wrong start shows
    split = load_table("x = (x, e, e) (1 2)\ny = (e, y, e) ()\nz = (e, e, z) ()\n")
    assert len(vertex_orbit(split, (3,))) == 1
    for table in (README, split):
        for k in range(4):
            level = list(itertools.product(table.alphabet.indices(), repeat=k))
            for v in level:
                numbers = _orbit_numbers(table, v)
                assert {level[u] for u in numbers} == closure(table, v)
    with pytest.raises(LevelTooLarge):
        _orbit_numbers(T3, (9,) * 20)
    with pytest.raises(BadVertex):
        _orbit_numbers(T3, (1, 4))


def test_vertex_orbit_past_a_byte_of_vertices():
    # level 6 has 729 vertices, so its rows are arrays, not bytes
    for v in ((1,) * 6, (2, 3, 1, 1, 2, 3), (3,) * 6, (1, 2, 3, 3, 2, 1)):
        assert vertex_orbit(README, v) == closure(README, v)
    assert len(vertex_orbit(T3, (2,) * 6)) == 3**6


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
        x = (e, e, x) (1 2 3) # rot
        y = (y, e, e) ()#fixes level 1
        z = (e, z, e) (1 3)   # swap
        """
    )
    assert table.names == ("x", "y", "z")
    assert act_vertex(table, parse_word("x", table.alphabet, {"x": 1}), (3, 1)) == (1, 2)
    assert table == load_table("x = (e, e, x) (1 2 3)\ny = (y, e, e) ()\nz = (e, z, e) (1 3)")


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


e3 = Word(T3.alphabet)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((T3.names[:2], T3.sections, T3.perms),
         "table must have exactly 3 generator rows"),
        ((("a", "b", "a"), T3.sections, T3.perms),
         "generator names must be unique and not 'e'"),
        ((("a", "b", "e"), T3.sections, T3.perms),
         "generator names must be unique and not 'e'"),
        ((T3.names, (T3.sections[0][:2], *T3.sections[1:]), T3.perms),
         "generator 'a' has 2 sections, needs 3"),
        ((T3.names, ((Word(Alphabet(4), (1,)), e3, e3), *T3.sections[1:]), T3.perms),
         "section word over a different alphabet"),
        ((T3.names, T3.sections, (*T3.perms[:2], Permutation.identity(4))),
         "permutation degree 4 != 3"),
    ],
    ids=["rows", "repeated name", "name e", "sections", "alphabet", "degree"],
)
def test_table_refusals(fields, message):
    with pytest.raises(MalformedToken) as info:
        RecursionTable(T3.alphabet, *fields)
    assert str(info.value) == message


@pytest.mark.parametrize("line", ["a = a, b, e (1 2)", "a = (a, b, e (1 2"])
def test_load_table_refuses_a_line_without_its_section_list(line):
    with pytest.raises(MalformedToken) as info:
        load_table(f"{line}\nb = (e, b, c) (2 3)\nc = (a, e, c) (3 1)")
    assert str(info.value) == f"missing section list in table line {line!r}"


def test_degree_is_capped_at_256():
    # a level's vertices are numbered by bytes
    def swap_table(d):
        alphabet = Alphabet(d)
        empty = Word(alphabet, ())
        return RecursionTable(
            alphabet,
            tuple(f"a{i}" for i in alphabet.indices()),
            ((empty,) * d,) * d,
            (Permutation.from_cycles(d, [(1, d)]),) * d,
        )

    table = swap_table(256)
    assert word_permutation(table, Word(table.alphabet, (1, 2, 3))).cycles() == ((1, 256),)
    with pytest.raises(MalformedToken, match="degree 257"):
        swap_table(257)


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


@pytest.mark.parametrize("table", [T3, T5, README, LONG], ids=["d3", "d5", "readme", "long"])
@given(data=st.data())
@settings(max_examples=60)
def test_act_vertex_copies_the_rest_past_an_empty_section(table, data):
    # short words on long vertices: the section empties on the way down
    d = table.alphabet.d
    w = data.draw(table_words(table, max_len=3))
    v = data.draw(vertices(d, 12))
    assert act_vertex(table, w, v) == direct_act(table, w.letters, v)
    assert act_vertex(table, w, list(v)) == direct_act(table, w.letters, v)


@st.composite
def random_tables(draw, arities=range(3, 10)):
    """Random tables whose sections have at most two letters."""
    d = draw(st.sampled_from(arities))
    alphabet = Alphabet(d)
    pool = [*range(1, d + 1), *range(-d, 0)]
    sections = tuple(
        tuple(
            Word(alphabet, tuple(draw(st.lists(st.sampled_from(pool), max_size=2))))
            for _ in range(d)
        )
        for _ in range(d)
    )
    perms = tuple(
        Permutation(tuple(draw(st.permutations(range(1, d + 1))))) for _ in range(d)
    )
    names = tuple(f"a{i}" for i in alphabet.indices())
    return RecursionTable(alphabet, names, sections, perms)


@given(random_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_pair_rows_compose_like_single_letters(table, data):
    d = table.alphabet.d
    letters = data.draw(table_words(table, max_len=15)).letters
    # every prefix, so that lengths 0, 1, odd and even are all checked
    for rows in table._rows:
        for n in range(len(letters) + 1):
            single = reduce(bytes.translate, [rows[l] for l in letters[:n]], rows[0])
            assert _compose(rows, letters[:n]) == single
    # and the deepest level's action is the fold's, vertex by vertex
    k = len(table._rows)
    level = list(itertools.product(range(1, d + 1), repeat=k))
    images = level_images(table, Word(table.alphabet, letters), k)
    assert _compose(table._rows[-1], letters)[: d**k] == bytes(map(level.index, images))


# ---------------------------------------------------------------------------
# levels deeper than a table keeps


@pytest.mark.parametrize(
    "table, k", [(T3, 6), (README, 6), (LONG, 7)], ids=["d3", "readme", "long"]
)
def test_deep_level_rows_match_pointwise_action(table, k):
    # past 256 vertices a level's rows are arrays; LONG's sections hold
    # inverse letters, so each of its rows folds both signs down to level 3
    A = table.alphabet
    rows = _level(table, k)
    level = list(itertools.product(A.indices(), repeat=k))
    sample = random.Random(k).sample(range(len(level)), 60)
    for l in (*A.indices(), *(-i for i in A.indices())):
        w = Word(A, (l,))
        assert [level[rows[l][u]] for u in sample] == [
            act_vertex(table, w, level[u]) for u in sample
        ]
        assert rows[l].translate(rows[-l]) == rows[0]
    # the level was built for this call alone: the table keeps levels 1..3
    assert len(rows[0]) == len(level) and len(table._rows) == 3


def test_rows_are_made_on_first_use(monkeypatch):
    # a new table keeps only identity rows; the orbit and the sweep read
    # the generators' rows alone, on kept levels (3) and deeper ones (7),
    # so no inverse letter's row is made on the levels they read
    table = build_table(3)
    assert [list(rows) for rows in table._rows] == [[0], [0], [0]]
    read = []

    def recording(table, k):
        read.append(_level(table, k))
        return read[-1]

    monkeypatch.setattr(tree, "_level", recording)
    monkeypatch.setattr(verifier, "_level", recording)
    vertex_orbit(table, (1,) * 3)
    vertex_orbit(table, (1,) * 7)
    check_free_semigroup(table, 5)
    assert [len(rows[0]) for rows in read] == [27, 3**7, 27, 9]
    for rows in read:
        assert [key for key in rows if type(key) is int and key < 0] == []


@pytest.mark.parametrize("table", [T3, README], ids=["d3", "readme"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_level_permutation_past_a_byte_matches_pointwise_action(table, data):
    # level 6 has 729 vertices and the table keeps levels 1..3, so the word
    # is folded three levels and each section composed on level 3
    w = data.draw(table_words(table, max_len=10))
    assert level_permutation(table, w, 6) == level_images(table, w, 6)


@pytest.mark.parametrize(
    "table, top", [(T3, 6), (README, 6), (LONG, 5)], ids=["d3", "readme", "long"]
)
def test_level_permutation_of_a_mixed_word_matches_pointwise_action(table, top):
    # six letters of both signs, more than the three levels a table keeps
    w = Word(table.alphabet, (1, -2, 3, 3, -1, 2))
    for k in range(top + 1):
        assert level_permutation(table, w, k) == level_images(table, w, k)
