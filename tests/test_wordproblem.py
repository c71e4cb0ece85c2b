import sys

import pytest
from hypothesis import given, settings, strategies as st

from arbora.errors import NodeBudgetExceeded, StrategyMismatch
from arbora.family import build_table, catalog_word
from arbora.tree import level_permutation
from arbora.wordproblem import (
    Decision,
    Finite,
    UnknownBeyond,
    are_equal,
    in_level_stabilizer,
    is_identity,
    order_probe,
)
from arbora.words import Word, commutator, parse_word

T3 = build_table(3)
T4 = build_table(4)
T5 = build_table(5)


def w3(text):
    return parse_word(text, T3.alphabet)


def test_empty_word_is_identity():
    dec = is_identity(T3, w3("e"))
    assert dec == Decision(True, 1, 1, 0)
    dec = is_identity(T3, w3("a a'"))
    assert dec.is_identity and dec.nodes_explored == 1


def test_single_generator_is_not():
    dec = is_identity(T3, w3("a"))
    assert not dec.is_identity
    assert dec.nodes_explored == 1 and dec.max_depth == 1


def test_commutator_rejected_at_the_root():
    dec = is_identity(T3, commutator(w3("a"), w3("b")))
    assert not dec.is_identity and dec.nodes_explored == 1


def test_shortcut_counts_hits():
    dec = is_identity(T3, w3("a a"), strategy="odd_shortcut")
    assert not dec.is_identity and dec.shortcut_hits == 1
    dec = is_identity(T3, w3("a a"), strategy="generic")
    assert not dec.is_identity and dec.shortcut_hits == 0
    # auto at odd arity switches the shortcut on
    dec = is_identity(T3, w3("a a"))
    assert dec.shortcut_hits == 1


def test_even_arity_relator():
    w4 = catalog_word(4, "w4")
    assert is_identity(T4, w4, strategy="generic").is_identity
    assert is_identity(T4, w4).is_identity  # auto = generic at even arity


def test_sign_pure_conjugates_are_rejected():
    w = w3("b' c a c' b")  # conjugate of a positive word
    dec = is_identity(T3, w, strategy="generic")
    assert not dec.is_identity


def test_xi_cubed_is_trivial():
    xi = catalog_word(3, "xi_1")
    assert not is_identity(T3, xi).is_identity
    assert is_identity(T3, xi**3).is_identity
    assert is_identity(T3, xi**3, strategy="generic").is_identity


def test_are_equal():
    assert not are_equal(T3, w3("a b"), w3("b a"))
    assert are_equal(T3, catalog_word(3, "xi_1"), catalog_word(3, "xi_2"))
    assert are_equal(T3, w3("a b c"), w3("a b c"))


def test_in_level_stabilizer():
    assert in_level_stabilizer(T3, w3("a b c b"), 1)
    assert not in_level_stabilizer(T3, w3("a b c b"), 2)
    assert not in_level_stabilizer(T3, w3("a"), 1)
    assert in_level_stabilizer(T3, w3("e"), 3)


def test_order_probe():
    xi = catalog_word(3, "xi_1")
    assert order_probe(T3, xi, 10) == Finite(3)
    assert order_probe(T3, w3("a"), 4) == UnknownBeyond(4)
    assert order_probe(T3, w3("e"), 5) == Finite(1)
    assert order_probe(T5, catalog_word(5, "xi_1"), 10) == Finite(2)
    with pytest.raises(ValueError):
        order_probe(T3, w3("a"), 0)


def test_strategy_gating():
    with pytest.raises(StrategyMismatch):
        is_identity(T4, catalog_word(4, "w4"), strategy="odd_shortcut")
    with pytest.raises(ValueError):
        is_identity(T3, w3("a"), strategy="bogus")
    with pytest.raises(ValueError):
        is_identity(T3, w3("a"), max_nodes=0)


def test_node_budget():
    deep = commutator(w3("a a"), w3("b"))
    free = is_identity(T3, deep)
    assert not free.is_identity and free.nodes_explored > 1
    with pytest.raises(NodeBudgetExceeded):
        is_identity(T3, deep, max_nodes=free.nodes_explored - 1)
    # the budget is an upper bound on explored nodes, not a target
    again = is_identity(T3, deep, max_nodes=free.nodes_explored)
    assert again == free


@st.composite
def words3(draw, max_len=10):
    pool = [1, 2, 3, -1, -2, -3]
    raw = draw(st.lists(st.sampled_from(pool), max_size=max_len))
    return Word(T3.alphabet, tuple(raw))


@given(words3())
@settings(max_examples=100, deadline=None)
def test_strategies_agree(w):
    generic = is_identity(T3, w, strategy="generic").is_identity
    shortcut = is_identity(T3, w, strategy="odd_shortcut").is_identity
    assert generic == shortcut


@given(words3(max_len=8), words3(max_len=6))
@settings(max_examples=60, deadline=None)
def test_identity_is_conjugation_invariant(w, u):
    plain = is_identity(T3, w).is_identity
    conj = is_identity(T3, w.conjugated(u)).is_identity
    assert plain == conj


@given(words3(max_len=8))
@settings(max_examples=60, deadline=None)
def test_identity_words_act_trivially_on_low_levels(w):
    if is_identity(T3, w).is_identity:
        images = level_permutation(T3, w, 3)
        assert images == tuple(
            (x, y, z)
            for x in range(1, 4)
            for y in range(1, 4)
            for z in range(1, 4)
        )


@given(words3(max_len=6))
@settings(max_examples=40, deadline=None)
def test_known_identities_survive_conjugation(u):
    # xi**3 is trivial, so its conjugates must be too; the conjugated
    # word does not freely reduce away, making this a real search
    xi = catalog_word(3, "xi_1")
    w = (xi**3).conjugated(u)
    assert is_identity(T3, w).is_identity
    assert is_identity(T3, w, strategy="generic").is_identity


def test_commutator_of_equal_elements_is_trivial():
    xi1, xi2 = catalog_word(3, "xi_1"), catalog_word(3, "xi_2")
    w = commutator(xi1, xi2)
    assert w.letters  # the word itself does not reduce away
    assert is_identity(T3, w).is_identity


def test_positive_words_are_never_identities_exhaustively():
    # every nonempty positive word up to length 8, generic strategy
    import itertools

    count = 0
    for length in range(1, 9):
        for letters in itertools.product((1, 2, 3), repeat=length):
            count += 1
            assert not is_identity(
                T3, Word(T3.alphabet, letters), strategy="generic"
            ).is_identity
    assert count == sum(3**l for l in range(1, 9))



def test_recursion_limit_is_restored():
    import random

    rng = random.Random(3)
    pool = (1, 2, 3, -1, -2, -3)
    u = Word(T3.alphabet, tuple(rng.choice(pool) for _ in range(40_000)))
    # a^2 b a'^2 b' fixes level one and has zero letter counts, so the
    # search recurses past the root
    w = w3("a a b a' a' b'").conjugated(u)
    assert len(w) > 40_000
    before = sys.getrecursionlimit()
    assert is_identity(T3, w).nodes_explored > 1
    assert sys.getrecursionlimit() == before
    with pytest.raises(NodeBudgetExceeded):
        is_identity(T3, w, max_nodes=1)
    assert sys.getrecursionlimit() == before
