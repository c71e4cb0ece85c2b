import pytest

from arbora import family
from arbora.errors import ArityTooSmall, NameUnavailable
from arbora.family import build_table, catalog, catalog_word, wrap
from arbora.tree import Permutation, word_permutation, wreath
from arbora.words import Word, exponent_vector


def test_wrap():
    assert wrap(3, 4) == 1
    assert wrap(3, 0) == 3
    assert wrap(5, 7) == 2
    assert wrap(5, 5) == 5


def test_build_table_rejects_small_arity():
    with pytest.raises(ArityTooSmall):
        build_table(2)


def test_build_table_rows_d4():
    t = build_table(4)
    assert t.names == ("a1", "a2", "a3", "a4")
    A = t.alphabet
    assert t.sections[1] == (Word(A), Word(A, (2,)), Word(A, (3,)), Word(A))
    assert t.perms[1] == Permutation.transposition(4, 2, 3)
    assert t.sections[3] == (Word(A, (1,)), Word(A), Word(A), Word(A, (4,)))
    assert t.perms[3] == Permutation.transposition(4, 4, 1)


def test_build_table_rows_d5():
    t = build_table(5)
    A = t.alphabet
    assert t.sections[4] == (
        Word(A, (1,)), Word(A), Word(A), Word(A), Word(A, (5,))
    )
    assert t.perms[4] == Permutation.transposition(5, 5, 1)


def test_catalog_insertion_order_d3():
    assert list(catalog(3)) == [
        "g", "h", "h_1", "h_2", "h_3", "g_1", "g_2",
        "h_frac", "s_1", "s_2",
        "beta_1", "beta_2", "beta_3",
        "xi_1", "xi_2", "xi_3",
        "gbr_1", "gbr_2", "gbr_3",
        "rist_lift_ca", "rist_lift_absq",
    ]


def test_catalog_frozen_words_d3():
    cat = catalog(3)
    assert cat["g"].letters == (1, 2, 3)
    assert cat["h"].letters == (2, 1, 3)
    assert cat["h_1"].letters == (1,)
    assert cat["h_2"].letters == (1, 2)
    assert cat["h_3"].letters == (1, 2, 3, 2)
    assert cat["g_1"].letters == (1,)
    assert cat["g_2"].letters == (1, 2)
    assert cat["h_frac"].letters == (2, 3, 1)
    assert cat["s_2"].letters == (-1, 2, 2, 1)
    assert cat["s_1"].letters == (-1, 2, 2, -3, -2, -1, -3, -2, 1, 1)
    assert cat["beta_1"].letters == (-1, -2, 1, 2)
    assert cat["xi_1"].letters == (-2, -2, -3, 2, 3, -1, 2, 1)
    assert cat["gbr_1"] == cat["xi_1"]
    assert cat["rist_lift_ca"].letters == (
        -3, -2, 1, 3, -2, -2, -3, 2, 3, -1, 2, 1
    )


def test_catalog_arity_scoping():
    assert "w4" in catalog(4)
    assert "w4" not in catalog(3)
    assert "w4" not in catalog(5)
    for name in ("h_frac", "s_1", "beta_1", "xi_1", "gbr_1"):
        assert name in catalog(5)
        assert name not in catalog(4)
    for name in ("rist_lift_ca", "rist_lift_absq"):
        assert name in catalog(3)
        assert name not in catalog(5)


def test_catalog_is_shared_but_each_call_gets_its_own_dict():
    cat = catalog(3)
    cat["g"] = cat["h"]
    del cat["h"]
    cat["extra"] = cat["g"]
    assert catalog(3)["g"].letters == (1, 2, 3)
    assert "h" in catalog(3) and "extra" not in catalog(3)
    assert catalog(3) is not catalog(3)
    with pytest.raises(TypeError):
        catalog(3.0)
    # the shared words equal, in order, those of a build that skips the cache
    for d in range(3, 10):
        assert list(catalog(d).items()) == list(family._catalog.__wrapped__(d).items())


def test_a_verifier_run_builds_each_catalog_once():
    from arbora.verifier import run_all

    # the cache's misses are the builder's calls, one per distinct arity
    family._catalog.cache_clear()
    for d in range(3, 10):
        assert all(rep.ok for rep in run_all(d))
    for d in range(3, 10):
        run_all(d)
    info = family._catalog.cache_info()
    assert info.misses == info.currsize == 7


def test_catalog_word_lookup():
    assert catalog_word(4, "w4").letters == (2, 1, -3, 2, -1, 4, -2, -1)
    with pytest.raises(NameUnavailable):
        catalog_word(4, "xi_1")
    with pytest.raises(NameUnavailable):
        catalog_word(3, "nonsense")


def test_catalog_d5_entries():
    cat = catalog(5)
    assert cat["h"].letters == (2, 1, 5, 4, 3)
    assert cat["gbr_1"] == cat["xi_2"] * cat["xi_1"] * cat["xi_3"]
    assert cat["gbr_2"] == cat["xi_3"] * cat["xi_2"] * cat["xi_4"]
    assert cat["h_4"].letters == (1, 2, 3, 4, 3, 2)


def test_catalog_d7_gbr_composition():
    cat = catalog(7)
    expected = (
        cat["xi_2"] * cat["xi_1"] * cat["xi_4"] * cat["xi_3"] * cat["xi_5"]
    )
    assert cat["gbr_1"] == expected


def test_catalog_entries_are_nonempty_reduced_words():
    for d in (3, 4, 5, 6, 7):
        for name, w in catalog(d).items():
            assert w.letters, f"{name} at arity {d} is empty"
            assert w.alphabet.d == d


def test_lift_words_have_the_advertised_first_slot():
    t = build_table(3)
    A = t.alphabet
    wr = wreath(t, catalog_word(3, "rist_lift_ca"))
    assert wr.perm.is_identity
    assert wr.sections[0] == Word(A, (-3, 1))
    assert not wr.sections[1] and not wr.sections[2]
    wr = wreath(t, catalog_word(3, "rist_lift_absq"))
    assert wr.perm.is_identity
    assert wr.sections[0] == Word(A, (1, 2, 1, 2))
    assert not wr.sections[1] and not wr.sections[2]


def test_w4_has_nonzero_counts():
    assert exponent_vector(catalog_word(4, "w4")) == (-1, 1, -1, 1)


def test_xi_permutations_d5():
    t = build_table(5)
    cat = catalog(5)
    for i in range(1, 6):
        lam = word_permutation(t, cat[f"xi_{i}"])
        expected = Permutation.from_cycles(
            5, [(i, wrap(5, i + 2)), (wrap(5, i + 1), wrap(5, i + 3))]
        )
        assert lam == expected  # an involution, so no orientation question
