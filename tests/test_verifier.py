import itertools

import pytest

from arbora.errors import BudgetExceeded, LevelTooLarge
from arbora.family import _aligner_factors, build_table, catalog
from arbora.tree import (
    Permutation,
    RecursionTable,
    load_table,
    wreath,
)
from arbora.verifier import (
    CHECK_IDS,
    Report,
    _expect_hand_backs,
    _expect_wreath_rows,
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
)
from arbora.wordproblem import are_equal, is_identity
from arbora.words import Word, exponent_vector
from pointwise import level_images


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


def test_run_all_reports_at_odd_arity_above_9():
    reports = run_all(11)
    status = {r.check_id: r.status for r in reports}
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    assert status.pop("free_semigroup") == status.pop("hk_and_branch") == "skip"
    assert set(status.values()) == {"pass"}


@pytest.mark.parametrize("d", range(3, 10))
def test_run_all_builds_one_table(monkeypatch, d):
    # every check is handed the one table of arity d
    built = []

    def counting(k):
        built.append(k)
        return build_table(k)

    monkeypatch.setattr("arbora.verifier.build_table", counting)
    assert [r.check_id for r in run_all(d)] == list(CHECK_IDS)
    assert built == [d]


def test_individual_checks_at_larger_odd_arities():
    assert check_lemma_chains(build_table(7)).ok
    assert check_fractal_witnesses(build_table(7)).ok
    assert check_branch_witnesses(build_table(5)).ok
    assert check_section_tables(build_table(6)).ok
    assert check_noncontracting_witness(build_table(6)).ok


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_fractal_rows_hand_back_every_generator(monkeypatch, d):
    # the fractal check's hand-back rows with a one-letter target recover
    # each generator at vertex 1: the leftover after the even run gives 1,
    # the odd run through 1 and the closing witness give 2, and the
    # "recover a_k" rows give 3..d
    passed = []

    def recording(table, rows, problems):
        passed.extend(rows)
        _expect_hand_backs(table, rows, problems)

    monkeypatch.setattr("arbora.verifier._expect_hand_backs", recording)
    assert check_fractal_witnesses(build_table(d)).status == "pass"
    targets = [tuple(letters) for _, _, letters, _ in passed]
    assert {t[0] for t in targets if len(t) == 1} == set(range(1, d + 1))


def test_lemma_chain_preconditions():
    # a check answers for the table it is given: at an arity where its
    # identities are not stated it reports "skip" with the reason
    for check, table, reason in (
        (check_lemma_chains, build_table(4), "needs odd arity"),
        (check_fractal_witnesses, build_table(6), "needs odd arity"),
        (check_branch_witnesses, build_table(4), "needs odd arity"),
        (check_hk_and_branch, build_table(5), "first-slot lifts are stated at arity 3"),
    ):
        rep = check(table)
        assert (rep.status, rep.detail, rep.data) == ("skip", reason, {})
        assert rep.ok
    assert check_lemma_chains(build_table(11)).status == "pass"


def test_transitivity_check():
    rep = check_transitivity(build_table(3))
    assert rep.status == "pass"
    assert rep.detail == "levels 1..4 are single orbits at arity 3"


def test_transitivity_check_fails_below_a_transitive_level():
    # a rooted cycle moves level one transitively but never changes the
    # later letters of a vertex, so the orbit of 1111 at arity 3 has 3
    # vertices; at arity 4 the check asks only level one, which passes
    rooted = load_table("a = (e, e, e) (1 2 3)\nb = (e, e, e) ()\nc = (e, e, e) ()\n")
    rep = check_transitivity(rooted)
    assert rep.status == "fail"
    assert rep.detail == "level 4 orbit has size 3 != 81"
    rooted4 = load_table(
        "a1 = (e, e, e, e) (1 2 3 4)\na2 = (e, e, e, e) ()\n"
        "a3 = (e, e, e, e) ()\na4 = (e, e, e, e) ()\n"
    )
    rep = check_transitivity(rooted4)
    assert (rep.status, rep.detail) == ("pass", "levels 1..1 are single orbits at arity 4")


def test_exponent_laws_fail_on_a_broken_table():
    # same permutations as the built-in arity-3 table, but one section
    # word replaced, which breaks the per-slot count shift
    broken = load_table(
        "a = (a, b, e) (1 2)\n"
        "b = (e, b, c) (2 3)\n"
        "c = (a, e, a) (3 1)\n"
    )
    rep = check_exponent_laws(broken)
    assert rep.status == "fail"
    assert "shift law" in rep.detail


def test_exponent_laws_catch_a_section_that_only_grows():
    # the slot-1 section of a made b a b': the counts are those of a, so
    # the shift law holds, but a's sections now hold four letters
    grown = load_table(
        "a = (b a b', b, e) (1 2)\n"
        "b = (e, b, c) (2 3)\n"
        "c = (a, e, c) (1 3)\n"
    )
    rep = check_exponent_laws(grown)
    assert rep.status == "fail"
    assert rep.detail == "sections of a hold 4 letters, not 2"


def single_cell_mutations(table):
    """The table with one section word replaced by e, a signed letter or a
    reduced two-letter word with a positive first letter, or with one root
    permutation replaced by another."""
    A = table.alphabet
    pool = [*A.indices(), *(-i for i in A.indices())]
    options = [()] + [(l,) for l in pool]
    options += [(x, y) for x in A.indices() for y in pool if y != -x]
    for g, row in enumerate(table.sections):
        for x in range(A.d):
            for letters in options:
                if letters != row[x].letters:
                    new_row = (*row[:x], Word(A, letters), *row[x + 1:])
                    sections = (*table.sections[:g], new_row, *table.sections[g + 1:])
                    yield RecursionTable(A, table.names, sections, table.perms)
    for g, perm in enumerate(table.perms):
        for images in itertools.permutations(A.indices()):
            if images != perm.images:
                perms = (*table.perms[:g], Permutation(images), *table.perms[g + 1:])
                yield RecursionTable(A, table.names, table.sections, perms)


def breaks_count_laws(table, w):
    """Whether w breaks the per-slot shift law or, when positive, doubling."""
    d = table.alphabet.d
    sections = wreath(table, w).sections
    joined = [sum(col) for col in zip(*map(exponent_vector, sections))]
    base = exponent_vector(w)
    if any(joined[i] != base[i] + base[i - 1] for i in range(d)):
        return True
    positive = all(l > 0 for l in w.letters)
    return positive and sum(map(len, sections)) != 2 * len(w)


def test_exponent_laws_match_the_word_level_laws():
    # on every single-cell mutation of the arity-3 table the generator-level
    # check fails exactly when a one-letter word breaks a law; when it
    # passes, no reduced word of up to 4 letters breaks one
    base = build_table(3)
    A = base.alphabet
    letters = [(l,) for l in (1, 2, 3, -1, -2, -3)]
    words = [Word(A, w) for w in letters]
    for _ in range(3):
        letters = [w + (l,) for w in letters for l in (1, 2, 3, -1, -2, -3)
                   if l != -w[-1]]
        words += [Word(A, w) for w in letters]
    assert len(words) == 6 + 30 + 150 + 750
    passed = 0
    for table in single_cell_mutations(base):
        broken = any(breaks_count_laws(table, w) for w in words[:6])
        assert check_exponent_laws(table).ok != broken
        if not broken:
            passed += 1
            assert not any(breaks_count_laws(table, w) for w in words)
    assert passed > 0


def test_expectation_rows_catch_a_changed_section():
    # the arity-3 family table with the section of b at slot 3 changed
    # from c to a: every kind of expectation row must notice
    broken = load_table(
        "a = (a, b, e) (1 2)\n"
        "b = (e, b, a) (2 3)\n"
        "c = (a, e, c) (1 3)\n"
    )
    for rep, label in [
        (check_section_tables(broken), "pair a1 a2: section at 3"),
        (check_branch_witnesses(broken), "commutator pair 1: section at 1"),
        (check_lemma_chains(broken), "g**(d-1): section at 2"),
        (check_fractal_witnesses(broken), "rotated product: section at 3"),
        (check_hk_and_branch(broken), "first-slot lift of c'a: section at 3"),
    ]:
        assert rep.status == "fail" and label in rep.detail


def test_noncontracting_witness_catches_a_moved_vertex():
    # a's root permutation made trivial: the full product a b c then
    # sends vertex 1 to 3
    rootless = load_table(
        "a = (a, b, e) ()\n"
        "b = (e, b, c) (2 3)\n"
        "c = (a, e, c) (1 3)\n"
    )
    rep = check_noncontracting_witness(rootless)
    assert rep.status == "fail"
    assert rep.detail == "full product moves vertex 1"


def test_noncontracting_witness_catches_a_changed_self_section():
    # a's section at slot 1 made trivial: a b c still fixes vertex 1, but
    # its section there is b c
    shrunk = load_table(
        "a = (e, b, e) (1 2)\n"
        "b = (e, b, c) (2 3)\n"
        "c = (a, e, c) (1 3)\n"
    )
    rep = check_noncontracting_witness(shrunk)
    assert rep.status == "fail"
    assert rep.detail == "full product is not its own section at vertex 1"


def test_parity_check_catches_an_even_generator():
    # each arity-3 generator's root permutation replaced by each of the 5
    # others: a generator has odd length, so the 9 even replacements break
    # the parity law and the 6 odd ones keep it
    base = build_table(3)
    statuses = []
    for table in single_cell_mutations(base):
        if table.sections != base.sections:
            continue
        rep = check_parity_and_even_d(table)
        (changed,) = [p for p, q in zip(table.perms, base.perms) if p != q]
        even = changed.images in {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
        assert rep.ok != even
        if not rep.ok:
            assert "parity disagrees with length" in rep.detail
        statuses.append(rep.status)
    assert (statuses.count("fail"), statuses.count("pass")) == (9, 6)


def test_every_check_on_the_single_cell_mutations():
    # every check judges the table it is given; on the 204 single-cell
    # mutations of the arity-3 table the closed-form checks fail on all of
    # them, and the other checks on those the pinned counts record
    checks = {
        "exponent_laws": check_exponent_laws,
        "section_tables": check_section_tables,
        "lemma_chains": check_lemma_chains,
        "noncontracting_witness": check_noncontracting_witness,
        "transitivity": check_transitivity,
        "fractal_witnesses": check_fractal_witnesses,
        "branch_witnesses": check_branch_witnesses,
        "free_semigroup": lambda t: check_free_semigroup(t, 3),
        "hk_and_branch": check_hk_and_branch,
        "parity_and_even_d": check_parity_and_even_d,
    }
    assert list(checks) == list(CHECK_IDS)
    mutants = list(single_cell_mutations(build_table(3)))
    assert len(mutants) == 204
    fails = {
        check_id: sum(check(t).status == "fail" for t in mutants)
        for check_id, check in checks.items()
    }
    assert fails == {
        "exponent_laws": 189,
        "section_tables": 204,
        "lemma_chains": 204,
        "noncontracting_witness": 75,
        "transitivity": 0,
        "fractal_witnesses": 204,
        "branch_witnesses": 204,
        "free_semigroup": 12,
        "hk_and_branch": 203,
        "parity_and_even_d": 9,
    }


def test_aligner_rows_follow_the_catalog_factor_order(monkeypatch):
    # an aligner's expected permutation multiplies the balancers' expected
    # permutations in the order the catalog multiplies the balancers;
    # in the reversed order the closed form no longer holds
    monkeypatch.setattr(
        "arbora.verifier._aligner_factors", lambda d, i: _aligner_factors(d, i)[::-1]
    )
    rep = check_branch_witnesses(build_table(5))
    assert rep.status == "fail" and "aligner 1: permutation" in rep.detail


def test_rows_read_expected_letters_as_a_word():
    # a row compares letter tuples first and builds the expected word only
    # on a mismatch, so an unreduced or range slot still passes and a
    # wrong slot is reported with the reduced section and expected word
    table = build_table(3)
    A = table.alphabet
    s1 = catalog(3)["s_1"]  # fixes level one, section b at vertex 1
    square = Word(A, (1, 1))  # sections a b, b a, e
    ident = Permutation.identity(3)
    problems = []
    _expect_hand_backs(
        table, [(s1, 1, (1, -1, 2), "unreduced"), (s1, 1, range(2, 3), "range")],
        problems,
    )
    _expect_wreath_rows(
        table, [(square, ident, {1: (1, 3, -3, 2), 2: (2, 1)}, "square")], problems
    )
    assert problems == []
    _expect_hand_backs(table, [(s1, 1, (3, -1, 1), "wrong")], problems)
    _expect_wreath_rows(
        table,
        [(square, ident, {1: (1, 2), 2: (2, -3, 3, 1, 1)}, "long slot"),
         (square, ident, {1: (1, 2)}, "missing slot")],
        problems,
    )
    assert problems == [
        "wrong: section at 1 is b",
        "long slot: section at 2 is b a != b a a",
        "missing slot: section at 2 is b a != e",
    ]


def test_row_failures_name_what_broke():
    # one row per kind of failure, plus unreduced expectations that
    # match: the exact problem text is part of the report
    table = build_table(3)
    A = table.alphabet
    a, ab, square = Word(A, (1,)), Word(A, (1, 2)), Word(A, (1, 1))
    s1 = catalog(3)["s_1"]  # fixes level one, section b at vertex 1
    ident, t12 = Permutation.identity(3), Permutation.transposition(3, 1, 2)
    problems = []
    _expect_wreath_rows(
        table,
        [
            (ab, t12, {1: (1,), 2: (2,), 3: (3,)}, "root"),
            (a, ident, {1: (1,), 2: (2,)}, "generator root"),
            (square, ident, {1: (1, 3), 2: (2, 1)}, "listed"),
            (square, ident, {1: (1, 2)}, "unlisted"),
            (square, ident, {1: (1, 3, -3, 2), 2: (-2, 2, 2, 1)}, "unreduced"),
        ],
        problems,
    )
    _expect_hand_backs(
        table,
        [
            (a, 1, (1,), "moves"),
            (s1, 1, (3,), "hand-back"),
            (s1, 1, (2, 3, -3), "unreduced hand-back"),
        ],
        problems,
    )
    assert problems == [
        "root: permutation (1 3 2) != expected (1 2)",
        "generator root: permutation (1 2) != expected ()",
        "listed: section at 1 is a b != a c",
        "unlisted: section at 2 is b a != e",
        "moves: does not stabilize level one",
        "hand-back: section at 1 is b",
    ]


def test_closed_forms_never_decide_the_word_problem(monkeypatch):
    # a closed form states a section word, so its check compares letters;
    # it must not be decided by the search whose soundness it supports.
    # Only the free-semigroup sweep asks the search.
    def forbidden(*args, **kwargs):
        raise AssertionError("closed-form check called the decision")

    monkeypatch.setattr("arbora.verifier.are_equal", forbidden)
    monkeypatch.setattr("arbora.verifier.is_identity", forbidden)
    for d in (3, 5, 7):
        table = build_table(d)
        for check in (
            check_exponent_laws,
            check_section_tables,
            check_lemma_chains,
            check_noncontracting_witness,
            check_fractal_witnesses,
            check_branch_witnesses,
            check_transitivity,
            check_parity_and_even_d,
        ):
            assert check(table).status == "pass"
    assert check_hk_and_branch(build_table(3)).status == "pass"
    assert check_parity_and_even_d(build_table(4)).status == "pass"


def test_branch_witnesses_catch_distant_generators_that_do_not_commute():
    # a1 gains the section a3 at slot 3, where a3 acts, so a1 a3 and a3 a1
    # differ there; a1 still commutes with a4
    table = build_table(5)
    A = table.alphabet
    row = (*table.sections[0][:2], Word(A, (3,)), *table.sections[0][3:])
    sections = (row, *table.sections[1:])
    broken = RecursionTable(A, table.names, sections, table.perms)
    report = check_branch_witnesses(broken)
    assert report.status == "fail"
    assert report.detail.startswith("distant generators 1,3 do not commute; ")
    assert "distant generators 1,4" not in report.detail
    assert check_branch_witnesses(table).status == "pass"


def test_report_ok_property():
    assert Report("x", "pass", "fine").ok
    assert Report("x", "skip", "elsewhere").ok
    assert not Report("x", "fail", "broken").ok


def test_hk_and_branch_check():
    rep = check_hk_and_branch(build_table(3))
    assert rep.status == "pass"
    assert rep.detail == "2 first-slot lifts fold to their stated sections"


def test_free_semigroup_budget(monkeypatch):
    # the 120 positive words up to length 4 fall into level-2 buckets
    # holding 21 candidate pairs
    monkeypatch.setattr("arbora.verifier._PAIR_BUDGET", 20)
    with pytest.raises(BudgetExceeded):
        check_free_semigroup(build_table(3), 4)
    monkeypatch.setattr("arbora.verifier._PAIR_BUDGET", 21)
    rep = check_free_semigroup(build_table(3), 4)
    assert rep.ok and rep.data["pairs_checked"] == 21


def test_free_semigroup_counts():
    rep = check_free_semigroup(build_table(3), 4)
    assert rep.ok
    assert rep.data["words"] == 3 + 9 + 27 + 81


def brute_force_free_semigroup(table, max_len):
    """The sweep without composition: every word walked to level 2 for its
    bucket, the search asked on every word and on every bucket pair."""
    A = table.alphabet
    problems, buckets, total = [], {}, 0
    for length in range(1, max_len + 1):
        for letters in itertools.product(A.indices(), repeat=length):
            w = Word(A, letters)
            total += 1
            if is_identity(table, w).is_identity:
                problems.append(f"positive word {w} is trivial")
            buckets.setdefault(level_images(table, w, 2), []).append(w)
    pairs = [p for b in buckets.values() for p in itertools.combinations(b, 2)]
    problems += [f"positive words {u} and {v} coincide"
                 for u, v in pairs if are_equal(table, u, v)]
    data = {"words": total, "pairs_checked": len(pairs)}
    if not problems:
        return "pass", (f"{total} positive words up to length {max_len} pairwise "
                        f"distinct ({len(pairs)} equality checks)"), data
    more = f"; and {len(problems) - 3} more" if len(problems) > 3 else ""
    return "fail", "; ".join(problems[:3]) + more, data


def test_free_semigroup_matches_the_brute_force_sweep():
    # composed level actions decide only questions whose answer is
    # "nontrivial" or "distinct"; the report is the brute force's, on the
    # family (arity 7 composes arrays rather than bytes) and on every
    # single-cell mutation of the arity-3 table
    family = ((3, 5), (4, 4), (4, 5), (5, 3), (7, 2))
    cases = [(build_table(d), max_len) for d, max_len in family]
    cases += [(t, 4) for t in single_cell_mutations(build_table(3))]
    assert len(cases) == 5 + 204
    for table, max_len in cases:
        rep = check_free_semigroup(table, max_len)
        assert (rep.status, rep.detail, rep.data) == brute_force_free_semigroup(
            table, max_len
        )


def test_free_semigroup_past_a_byte_of_level_2_vertices():
    # with 17 generators level 2 has 289 vertices, so a word's level-2
    # action, the bucket key, is an array rather than bytes
    table = build_table(17)
    rep = check_free_semigroup(table, 2)
    assert (rep.status, rep.detail, rep.data) == brute_force_free_semigroup(table, 2)
    assert rep.data == {"words": 17 + 17**2, "pairs_checked": 119}


def test_free_semigroup_refuses_a_level_3_past_the_vertex_cap():
    # 101**3 vertices exceed DEFAULT_VERTEX_CAP
    with pytest.raises(LevelTooLarge, match="^101\\*\\*3 vertices exceed the cap"):
        check_free_semigroup(build_table(101), 1)


def test_free_semigroup_asks_the_search_only_where_levels_agree(monkeypatch):
    # a word that moves a level-2 vertex is nontrivial and two words with
    # different level-3 actions are different, so only the rest are asked
    calls = {"is_identity": 0, "are_equal": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name, real in (("is_identity", is_identity), ("are_equal", are_equal)):
        monkeypatch.setattr(f"arbora.verifier.{name}", counted(name, real))
    for d, max_len, expected in ((3, 5, (0, 0)), (3, 6, (21, 3)), (4, 5, (0, 116))):
        calls.update(is_identity=0, are_equal=0)
        check_free_semigroup(build_table(d), max_len)
        assert (calls["is_identity"], calls["are_equal"]) == expected


def test_free_semigroup_flags_even_arity_coincidences():
    # at arity 4 the generators a1 and a3 have disjoint supports and
    # commute, so the distinctness property genuinely fails there; the
    # check must find the coincidence rather than report a pass
    rep = check_free_semigroup(build_table(4), 2)
    assert rep.status == "fail"
    assert "a1 a3" in rep.detail and "coincide" in rep.detail
    assert rep.data["words"] == 4 + 16


def test_parity_check():
    rep = check_parity_and_even_d(build_table(3))
    assert rep.status == "pass"
    assert rep.detail == (
        "root permutations of all 3 generators odd, so stabilizer words have "
        "even length"
    )
    rep = check_parity_and_even_d(build_table(4))
    assert rep.status == "pass"
    assert rep.detail == (
        "root permutations of all 4 generators odd, so stabilizer words have "
        "even length; arity-4 trivial word has counts (-1, 1, -1, 1)"
    )


def test_parity_check_reads_the_w4_row_from_the_table_it_is_given():
    # a1's root permutation (1 2) replaced by (3 4): every generator stays
    # odd, so only the w4 row of the arity-4 table itself can catch it
    table = build_table(4)
    perms = (Permutation.transposition(4, 3, 4), *table.perms[1:])
    broken = RecursionTable(table.alphabet, table.names, table.sections, perms)
    rep = check_parity_and_even_d(broken)
    assert rep.status == "fail"
    assert rep.detail == "arity-4 trivial word: permutation (1 3)(2 4) != expected ()"
