"""Acceptance suite: thirteen desk-scale criteria, one test each.

Every test prints one `[criterion NN] PASS` line with its runtime and
asserts both the mathematical content and the time budget.
"""

import itertools
import random
import time

from arbora.family import build_table, catalog, catalog_word, wrap
from arbora.tree import Permutation, vertex_orbit, wreath
from arbora.verifier import (
    check_branch_witnesses,
    check_free_semigroup,
    check_fractal_witnesses,
    check_hk_and_branch,
    check_lemma_chains,
    check_parity_and_even_d,
    check_section_tables,
    sample_words,
)
from arbora.wordproblem import Finite, UnknownBeyond, is_identity, order_probe
from arbora.words import Alphabet, Word, exponent_vector, parse_word

T3 = build_table(3)
T5 = build_table(5)


class budget:
    """Context manager asserting a wall-clock budget and printing the line."""

    def __init__(self, number, seconds, summary):
        self.number = number
        self.seconds = seconds
        self.summary = summary

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} took {elapsed:.1f}s, "
                f"budget {self.seconds}s"
            )
            print(
                f"[criterion {self.number:02d}] PASS ({elapsed:.2f}s) {self.summary}"
            )
        else:
            print(f"[criterion {self.number:02d}] FAIL {self.summary}")
        return False


def reduced_tuples(d, max_len):
    pool = [i for i in range(1, d + 1)] + [-i for i in range(1, d + 1)]

    def extend(prefix, remaining):
        if prefix:
            yield prefix
        if remaining == 0:
            return
        for l in pool:
            if prefix and prefix[-1] == -l:
                continue
            yield from extend(prefix + (l,), remaining - 1)

    yield from extend((), max_len)


def test_01_recursion_fidelity():
    with budget(1, 1.0, "generator recursions exact for d in {3,4,5,7}"):
        for d in (3, 4, 5, 7):
            table = build_table(d)
            A = Alphabet(d)
            for i in range(1, d + 1):
                succ = wrap(d, i + 1)
                expected = [Word(A)] * d
                expected[i - 1] = Word(A, (i,))
                expected[succ - 1] = Word(A, (succ,))
                assert table.sections[i - 1] == tuple(expected)
                assert table.perms[i - 1] == Permutation.transposition(d, i, succ)
        # the arity-3 rows, a second time from fully hand-written data
        A = Alphabet(3)
        hand = {
            "a": (("a", "b", "e"), (2, 1, 3)),
            "b": (("e", "b", "c"), (1, 3, 2)),
            "c": (("a", "e", "c"), (3, 2, 1)),
        }
        t3 = build_table(3)
        for row, name in enumerate(("a", "b", "c")):
            texts, images = hand[name]
            assert t3.sections[row] == tuple(parse_word(t, A) for t in texts)
            assert t3.perms[row] == Permutation(images)


def test_02_two_letter_tables():
    with budget(2, 1.0, "all two-letter section tables for d in {3,5}"):
        for d in (3, 5):
            report = check_section_tables(d)
            assert report.status == "pass", report.detail
            # the inverse-then-plain sections stay short
            table = build_table(d)
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    if i == j:
                        continue
                    for s in wreath(table, Word(table.alphabet, (-i, j))).sections:
                        assert len(s) <= 1


def test_03_even_arity_relator():
    with budget(3, 1.0, "nonzero-count identity word at arity 4"):
        t4 = build_table(4)
        w4 = catalog_word(4, "w4")
        assert is_identity(t4, w4).is_identity
        assert exponent_vector(w4) == (-1, 1, -1, 1)


def test_04_odd_arity_count_law():
    with budget(4, 300.0, "identity implies zero counts, exhaustive and sampled"):
        zero3 = (0, 0, 0)
        total = 0
        identities = 0
        for letters in reduced_tuples(3, 6):
            total += 1
            w = Word(T3.alphabet, letters)
            if is_identity(T3, w).is_identity:
                identities += 1
                assert exponent_vector(w) == zero3
        assert total == 23436
        rng = random.Random(0)
        zero5 = (0,) * 5
        for w in sample_words(T5.alphabet, 10**4, 10, rng):
            if is_identity(T5, w).is_identity:
                assert exponent_vector(w) == zero5


def test_05_lemma_chains():
    with budget(5, 60.0, "stabilizer hand-off chains for d in {3,5,7}"):
        for d in (3, 5, 7):
            report = check_lemma_chains(d)
            assert report.status == "pass", report.detail


def test_06_fractal_witnesses():
    with budget(6, 60.0, "all generators recovered at vertex 1 for d in {3,5,7}"):
        for d in (3, 5, 7):
            report = check_fractal_witnesses(d)
            assert report.status == "pass", report.detail


def test_07_branch_witnesses():
    with budget(7, 120.0, "single-slot commutators for d in {3,5,7}"):
        for d in (3, 5, 7):
            report = check_branch_witnesses(d)
            assert report.status == "pass", report.detail


def test_08_free_semigroup():
    with budget(8, 600.0, "1092 positive words pairwise distinct at arity 3"):
        report = check_free_semigroup(3, 6)
        assert report.status == "pass", report.detail
        assert report.data["words"] == 1092
        assert 1092 == 3 + 9 + 27 + 81 + 243 + 729


def test_09_transitivity():
    with budget(9, 60.0, "orbit sizes d**k for d=3 k<=4 and d=5 k<=2"):
        for k in range(1, 5):
            assert len(vertex_orbit(T3, (1,) * k)) == 3**k
        for k in range(1, 3):
            assert len(vertex_orbit(T5, (1,) * k)) == 5**k


def test_10_hk_lifts_and_cosets():
    with budget(10, 60.0, "first-slot lifts, decompositions, coset tuples"):
        for k in (1, 2):
            report = check_hk_and_branch(k, seed=0)
            assert report.status == "pass", report.detail
        report = check_hk_and_branch(1, seed=0)
        assert report.data["index_bound"] == 4**3
        assert report.data["tuples"]
        for coords in report.data["tuples"]:
            assert all(0 <= j < 4 for j in coords)


def test_11_orders():
    with budget(11, 120.0, "balancer order 3; generator and witnesses unresolved"):
        xi = catalog_word(3, "xi_1")
        assert order_probe(T3, xi, 10) == Finite(3)
        for text in ("a", "a b c", "a b c b"):
            w = parse_word(text, T3.alphabet)
            assert order_probe(T3, w, 128) == UnknownBeyond(128)


def test_12_parity():
    with budget(12, 60.0, "1000 stabilizer-conditioned words have even length"):
        report = check_parity_and_even_d(seed=0, sample_size=1000)
        assert report.status == "pass", report.detail
        assert report.data["words"] == 1000


def test_13_count_law_on_samples():
    with budget(13, 300.0, "nonzero counts mean nonidentity on 10^4 words"):
        rng = random.Random(0)
        nonzero = 0
        for w in sample_words(T3.alphabet, 10**4, 10, rng):
            if any(exponent_vector(w)):
                nonzero += 1
                assert not is_identity(T3, w).is_identity
        assert nonzero > 0


def test_catalog_smoke_for_all_supported_arities():
    # not one of the thirteen, but guards the suite's shared fixtures
    for d in range(3, 10):
        assert catalog(d)
