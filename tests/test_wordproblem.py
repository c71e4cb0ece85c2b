import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from arbora.errors import AlphabetMismatch, NodeBudgetExceeded
from arbora.family import build_table, catalog_word
from arbora.tree import Permutation, RecursionTable, load_table
from arbora.wordproblem import (
    Decision,
    Finite,
    UnknownBeyond,
    are_equal,
    is_identity,
    order_probe,
)
from arbora.words import (
    Alphabet,
    Word,
    _cyclic_core,
    commutator,
    exponent_vector,
    parse_word,
)
from pointwise import level_images

T3 = build_table(3)
T4 = build_table(4)
T5 = build_table(5)


def w3(text):
    return parse_word(text, T3.alphabet)


def test_empty_word_is_identity():
    dec = is_identity(T3, w3("e"))
    assert dec == Decision(True, 1, 1)
    dec = is_identity(T3, w3("a a'"))
    assert dec.is_identity and dec.nodes_explored == 1


def test_single_generator_is_not():
    dec = is_identity(T3, w3("a"))
    assert not dec.is_identity
    assert dec.nodes_explored == 1 and dec.max_depth == 1


def test_commutator_rejected_at_the_root():
    dec = is_identity(T3, commutator(w3("a"), w3("b")))
    assert not dec.is_identity and dec.nodes_explored == 1


def test_even_arity_relator():
    w4 = catalog_word(4, "w4")
    assert is_identity(T4, w4).is_identity


def test_sign_pure_conjugates_are_rejected():
    w = w3("b' c a c' b")  # conjugate of a positive word
    dec = is_identity(T3, w)
    assert not dec.is_identity


def test_xi_cubed_is_trivial():
    xi = catalog_word(3, "xi_1")
    assert not is_identity(T3, xi).is_identity
    assert is_identity(T3, xi**3).is_identity


def test_are_equal():
    assert not are_equal(T3, w3("a b"), w3("b a"))
    assert are_equal(T3, catalog_word(3, "xi_1"), catalog_word(3, "xi_2"))
    assert are_equal(T3, w3("a b c"), w3("a b c"))


def test_order_probe():
    xi = catalog_word(3, "xi_1")
    assert order_probe(T3, xi, 10) == Finite(3)
    assert order_probe(T3, w3("a"), 4) == UnknownBeyond(4)
    assert order_probe(T3, w3("e"), 5) == Finite(1)
    assert order_probe(T5, catalog_word(5, "xi_1"), 10) == Finite(2)
    with pytest.raises(ValueError):
        order_probe(T3, w3("a"), 0)


def test_strategy_gating():
    with pytest.raises(ValueError):
        is_identity(T3, w3("a"), max_nodes=0)


def test_node_budget():
    # [a^12, b^12] fixes level 3, so the search goes past the first node
    deep = commutator(w3("a^12"), w3("b^12"))
    free = is_identity(T3, deep)
    assert not free.is_identity and free.nodes_explored > 1
    with pytest.raises(NodeBudgetExceeded):
        is_identity(T3, deep, max_nodes=free.nodes_explored - 1)
    # the budget is an upper bound on explored nodes, not a target
    again = is_identity(T3, deep, max_nodes=free.nodes_explored)
    assert again == free


def test_foreign_alphabet_is_rejected():
    with pytest.raises(AlphabetMismatch):
        is_identity(T3, Word(Alphabet(5), (4,)))
    with pytest.raises(AlphabetMismatch):
        is_identity(T3, Word(Alphabet(5), (1, 2)))
    with pytest.raises(AlphabetMismatch):
        are_equal(T3, Word(Alphabet(5), (1,)), Word(Alphabet(5), (1,)))


def test_visited_set_ends_a_cycle():
    # x y' has sections (e, x' y, y' x), whose cores lead back to each
    # other: without the visited set the search would never stop
    table = load_table(
        "x = (e, x', y') (2 3)\ny = (e, y', x') (2 3)\nz = (y', e, z') (1 2 3)\n"
    )
    w = Word(table.alphabet, (1, -2))
    assert is_identity(table, w, max_nodes=20) == Decision(True, 5, 3)
    level5 = tuple(itertools.product(range(1, 4), repeat=5))
    assert level_images(table, w, 5) == level5


@st.composite
def words(draw, d, max_len=10):
    pool = [*range(1, d + 1), *range(-d, 0)]
    raw = draw(st.lists(st.sampled_from(pool), max_size=max_len))
    return Word(Alphabet(d), tuple(raw))


@given(st.sampled_from([T3, T5]), st.data())
@settings(max_examples=100, deadline=None)
def test_count_law(table, data):
    # at odd arity a nonzero exponent vector means a nontrivial element;
    # the search finds that out from sections alone
    w = data.draw(words(table.alphabet.d))
    if any(exponent_vector(w)):
        assert not is_identity(table, w).is_identity


@st.composite
def small_tables(draw, arities=(3, 4)):
    """Random tables whose sections have at most one letter."""
    d = draw(st.sampled_from(arities))
    alphabet = Alphabet(d)
    letters = st.lists(
        st.sampled_from([0, *range(1, d + 1), *range(-d, 0)]), min_size=d, max_size=d
    )
    sections = tuple(
        tuple(Word(alphabet, (l,) if l else ()) for l in draw(letters))
        for _ in range(d)
    )
    perms = tuple(
        Permutation(tuple(draw(st.permutations(range(1, d + 1))))) for _ in range(d)
    )
    names = tuple(f"a{i}" for i in range(1, d + 1))
    return RecursionTable(alphabet, names, sections, perms)


@given(small_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_letter_tables_terminate(table, data):
    # finishing under the default budget is the termination claim; an
    # identity verdict must also fix level 3
    d = table.alphabet.d
    level3 = tuple(itertools.product(range(1, d + 1), repeat=3))
    for w in data.draw(st.lists(words(d, 8), min_size=1, max_size=20)):
        if is_identity(table, w).is_identity:
            assert level_images(table, w, 3) == level3


# the deepest level with at most 32 vertices, the level each node is tested on
CHECKED_LEVEL = {3: 3, 4: 2, 5: 2}


@given(small_tables(arities=(3, 4, 5)), st.data())
@settings(max_examples=100, deadline=None)
def test_a_vertex_moved_on_the_checked_level_ends_the_search_at_node_1(table, data):
    d = table.alphabet.d
    k = CHECKED_LEVEL[d]
    checked = tuple(itertools.product(range(1, d + 1), repeat=k))
    level4 = tuple(itertools.product(range(1, d + 1), repeat=4))
    for w in data.draw(st.lists(words(d, 8), min_size=1, max_size=10)):
        dec = is_identity(table, w)
        if level_images(table, w, k) != checked:
            assert not dec.is_identity and dec.nodes_explored == 1
        if dec.is_identity:
            assert level_images(table, w, 4) == level4


def long_conjugator(rng, table, w, n):
    """A reduced word of n letters that cancels at neither seam of u' w u."""
    d = table.alphabet.d
    pool = [*range(1, d + 1), *range(-d, 0)]
    u = [rng.choice([l for l in pool if l not in (w.letters[0], -w.letters[-1])])]
    while len(u) < n:
        u.append(rng.choice([l for l in pool if l != -u[-1]]))
    return Word(table.alphabet, tuple(u))


@given(st.sampled_from([T3, T4, T5]), st.data())
@settings(max_examples=60, deadline=None)
def test_a_long_conjugate_gets_the_decision_of_its_core(table, data):
    d = table.alphabet.d
    w = data.draw(words(d, 10).filter(len))
    n = data.draw(st.integers(1, 2000))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    conj = w.conjugated(long_conjugator(rng, table, w, n))
    assert len(conj) == len(w) + 2 * n
    dec = is_identity(table, conj)
    assert dec == is_identity(table, w)
    # node 1 answers nonidentity exactly when w moves a checked vertex or
    # w's cyclic core has letters of one sign only (such as a**6 at d = 3,
    # which fixes level 3)
    k = CHECKED_LEVEL[d]
    moved = level_images(table, w, k) != tuple(
        itertools.product(range(1, d + 1), repeat=k)
    )
    one_signed = len({l > 0 for l in _cyclic_core(w.letters)}) == 1
    assert (moved or one_signed) == (dec == Decision(False, 1, 1))


def test_node_1_composes_the_core_and_not_the_conjugator(monkeypatch):
    import arbora.wordproblem as wordproblem

    core = commutator(w3("a"), w3("b"))
    u = long_conjugator(random.Random(5), T3, core, 5000)
    compose, lengths = wordproblem._compose, []

    def recording(rows, letters):
        lengths.append(len(letters))
        return compose(rows, letters)

    monkeypatch.setattr(wordproblem, "_compose", recording)
    assert is_identity(T3, core.conjugated(u)) == Decision(False, 1, 1)
    assert lengths == [len(core)]


@given(words(3, 8), words(3, 6))
@settings(max_examples=60, deadline=None)
def test_identity_is_conjugation_invariant(w, u):
    plain = is_identity(T3, w).is_identity
    conj = is_identity(T3, w.conjugated(u)).is_identity
    assert plain == conj


@given(words(3, 8))
@settings(max_examples=60, deadline=None)
def test_identity_words_act_trivially_on_low_levels(w):
    if is_identity(T3, w).is_identity:
        images = level_images(T3, w, 3)
        assert images == tuple(
            (x, y, z)
            for x in range(1, 4)
            for y in range(1, 4)
            for z in range(1, 4)
        )


@given(words(3, 6))
@settings(max_examples=40, deadline=None)
def test_known_identities_survive_conjugation(u):
    # xi**3 is trivial, so its conjugates must be too; the conjugated
    # word does not freely reduce away, making this a real search
    xi = catalog_word(3, "xi_1")
    w = (xi**3).conjugated(u)
    assert is_identity(T3, w).is_identity


def test_commutator_of_equal_elements_is_trivial():
    xi1, xi2 = catalog_word(3, "xi_1"), catalog_word(3, "xi_2")
    w = commutator(xi1, xi2)
    assert w.letters  # the word itself does not reduce away
    assert is_identity(T3, w).is_identity


def test_positive_words_are_never_identities_exhaustively():
    # every nonempty positive word up to length 8
    count = 0
    for length in range(1, 9):
        for letters in itertools.product((1, 2, 3), repeat=length):
            count += 1
            assert not is_identity(T3, Word(T3.alphabet, letters)).is_identity
    assert count == sum(3**l for l in range(1, 9))



def test_recursion_limit_is_restored(monkeypatch):
    import random

    rng = random.Random(3)
    pool = (1, 2, 3, -1, -2, -3)
    u = Word(T3.alphabet, tuple(rng.choice(pool) for _ in range(40_000)))
    # [a^12, b^12] fixes level 3 and is not one-signed, so the search goes
    # past the first node
    w = commutator(w3("a^12"), w3("b^12")).conjugated(u)
    assert len(w) > 40_000
    before = sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError(f"the search set the recursion limit to {limit}")

    # the search runs on an explicit stack and never touches the limit
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert is_identity(T3, w).nodes_explored > 1
    assert sys.getrecursionlimit() == before
    with pytest.raises(NodeBudgetExceeded):
        is_identity(T3, w, max_nodes=1)
    assert sys.getrecursionlimit() == before
