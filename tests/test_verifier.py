import random

import pytest

from arbora.errors import BudgetExceeded
from arbora.family import _aligner_factors, build_table
from arbora.tree import load_table
from arbora.verifier import (
    CHECK_IDS,
    Report,
    check_branch_witnesses,
    check_exponent_laws,
    check_free_semigroup,
    check_fractal_witnesses,
    check_hk_and_branch,
    check_lemma_chains,
    check_noncontracting_witness,
    check_parity_and_even_d,
    check_section_tables,
    check_transitivity,
    run_all,
    sample_words,
)
from arbora.words import Alphabet, parse_word


def test_run_all_passes_at_arity_3():
    reports = run_all(3)
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    assert all(r.status == "pass" for r in reports)


def test_run_all_skips_at_even_arity():
    reports = run_all(4)
    status = {r.check_id: r.status for r in reports}
    assert status["lemma_chains"] == "skip"
    assert status["fractal_witnesses"] == "skip"
    assert status["branch_witnesses"] == "skip"
    assert status["free_semigroup"] == "skip"
    assert status["hk_and_branch"] == "skip"
    for check_id in (
        "exponent_laws",
        "section_tables",
        "noncontracting_witness",
        "transitivity",
        "parity_and_even_d",
    ):
        assert status[check_id] == "pass"
    assert all(r.ok for r in reports)


def test_run_all_is_deterministic():
    first = [(r.check_id, r.status, r.detail) for r in run_all(3, seed=7)]
    second = [(r.check_id, r.status, r.detail) for r in run_all(3, seed=7)]
    assert first == second


def test_individual_checks_at_larger_odd_arities():
    assert check_lemma_chains(7).ok
    assert check_fractal_witnesses(7).ok
    assert check_branch_witnesses(5).ok
    assert check_section_tables(6).ok
    assert check_noncontracting_witness(6).ok


def test_lemma_chain_preconditions():
    with pytest.raises(ValueError):
        check_lemma_chains(4)
    with pytest.raises(ValueError):
        check_lemma_chains(11)
    with pytest.raises(ValueError):
        check_fractal_witnesses(6)
    with pytest.raises(ValueError):
        check_branch_witnesses(4)


def test_transitivity_check():
    t = build_table(3)
    rep = check_transitivity(t, 3)
    assert rep.ok and rep.data["sizes"] == {1: 3, 2: 9, 3: 27}


def test_exponent_laws_fail_on_a_broken_table():
    # same permutations as the built-in arity-3 table, but one section
    # word replaced, which breaks the per-slot count shift
    broken = load_table(
        "a = (a, b, e) (1 2)\n"
        "b = (e, b, c) (2 3)\n"
        "c = (a, e, a) (3 1)\n"
    )
    w = parse_word("c c", broken.alphabet, {"a": 1, "b": 2, "c": 3})
    rep = check_exponent_laws(broken, [w])
    assert rep.status == "fail"
    assert "shift law" in rep.detail


def test_expectation_rows_catch_a_changed_section(monkeypatch):
    # the arity-3 family table with the section of b at slot 3 changed
    # from c to a: every kind of expectation row must notice
    broken = load_table(
        "a = (a, b, e) (1 2)\n"
        "b = (e, b, a) (2 3)\n"
        "c = (a, e, c) (1 3)\n"
    )
    monkeypatch.setattr("arbora.verifier.build_table", lambda d: broken)
    for rep, label in [
        (check_section_tables(3), "square table a b: section at 3"),
        (check_branch_witnesses(3), "commutator pair 1: section at 1"),
        (check_lemma_chains(3), "g**(d-1): section at 2"),
        (check_fractal_witnesses(3), "rotated product: section at 3"),
        (check_hk_and_branch(), "first-slot lift of c'a: section at 3"),
    ]:
        assert rep.status == "fail" and label in rep.detail


def test_parity_check_catches_an_even_generator(monkeypatch):
    # the arity-3 family table with the root permutation of a made the
    # 3-cycle (1 2 3), an even permutation: a has odd length but does not
    # change the parity, so the parity law breaks
    broken = load_table(
        "a = (a, b, e) (1 2 3)\n"
        "b = (e, b, c) (2 3)\n"
        "c = (a, e, c) (1 3)\n"
    )
    monkeypatch.setattr(
        "arbora.verifier.build_table", lambda d: broken if d == 3 else build_table(d)
    )
    rep = check_parity_and_even_d()
    assert rep.status == "fail" and "parity disagrees with length" in rep.detail


def test_aligner_rows_follow_the_catalog_factor_order(monkeypatch):
    # an aligner's expected permutation multiplies the balancers' expected
    # permutations in the order the catalog multiplies the balancers;
    # in the reversed order the closed form no longer holds
    monkeypatch.setattr(
        "arbora.verifier._aligner_factors", lambda d, i: _aligner_factors(d, i)[::-1]
    )
    rep = check_branch_witnesses(5)
    assert rep.status == "fail" and "aligner 1: permutation" in rep.detail


def test_closed_forms_never_decide_the_word_problem(monkeypatch):
    # a closed form states a section word, so its check compares letters;
    # it must not be decided by the search whose soundness it supports
    def forbidden(*args, **kwargs):
        raise AssertionError("closed-form check called the decision")

    monkeypatch.setattr("arbora.verifier.are_equal", forbidden)
    monkeypatch.setattr("arbora.verifier.is_identity", forbidden)
    for d in (3, 5):
        for check in (check_section_tables, check_lemma_chains, check_fractal_witnesses):
            assert check(d).status == "pass"
    assert check_hk_and_branch().status == "pass"


def test_report_ok_property():
    assert Report("x", "pass", "fine").ok
    assert Report("x", "skip", "elsewhere").ok
    assert not Report("x", "fail", "broken").ok


def test_hk_and_branch_check():
    rep = check_hk_and_branch()
    assert rep.status == "pass"
    assert rep.detail == "2 first-slot lifts fold to their stated sections"


def test_free_semigroup_budget():
    # the 120 positive words up to length 4 fall into level-2 buckets
    # holding 21 candidate pairs
    with pytest.raises(BudgetExceeded):
        check_free_semigroup(3, 4, pair_budget=20)
    rep = check_free_semigroup(3, 4, pair_budget=21)
    assert rep.ok and rep.data["pairs_checked"] == 21


def test_free_semigroup_counts():
    rep = check_free_semigroup(3, 4)
    assert rep.ok
    assert rep.data["words"] == 3 + 9 + 27 + 81


def test_free_semigroup_flags_even_arity_coincidences():
    # at arity 4 the generators a1 and a3 have disjoint supports and
    # commute, so the distinctness property genuinely fails there; the
    # check must find the coincidence rather than report a pass
    rep = check_free_semigroup(4, 2)
    assert rep.status == "fail"
    assert "a1 a3" in rep.detail and "coincide" in rep.detail
    assert rep.data["words"] == 4 + 16


def test_parity_check():
    rep = check_parity_and_even_d(seed=11)
    assert rep.ok and rep.data["words"] == 1000


def test_sample_words_is_seed_stable():
    A = Alphabet(3)
    first = sample_words(A, 20, 10, random.Random(42))
    second = sample_words(A, 20, 10, random.Random(42))
    assert first == second
    assert all(len(w) <= 10 for w in first)
    assert all(w.alphabet is A for w in first)
