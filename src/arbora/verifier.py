"""Mechanical re-derivation of the identities behind the package.

Every check here recomputes a family of constructive identities from
the recursion table alone — section tables for generator pairs, letter
count laws, chains of elements walking down the spine of the tree,
first-level recovery of all generators, commutator support alignment,
freeness of the positive words, first-slot lifts at arity 3, and the
parity facts that separate odd from even arity.

Laws that are homomorphisms from the free group, such as the count
laws and the parity law, are checked on the generators, since two
homomorphisms that agree on the generators agree on every word.

Closed-form expectations are data.  A wreath row ``(w, perm, {slot:
letters}, label)`` gives the root permutation of w and its nontrivial
first-level sections; a hand-back row ``(w, slot, letters, label)`` says
that w fixes level one and has the given section at one slot.  Each
kind of row is checked by one shared routine.

Both kinds of row are checked on the folds that wreath and
word_permutation use, imported from tree: a wreath row folds every
slot (_folds), a hand-back row reads its root permutation from the
table's level-1 row (_root_images) and folds only its slot
(_fold_once).  Each compares the freely reduced section letters with
the expected word letter for letter, as tuples; only on a mismatch is
the expected word built and reduced, so an unreduced expectation still
matches, and a Word or Permutation is made only for a failure's text.
Expected root permutations are written as cycles (from_cycles).
That is what a closed form states, and it implies equality as group
elements, so no row asks the word-problem search.  The other group
identities are folds too: two distant generators commute because their
root permutations and sections agree, a balancer row shows the balancer
rooted, which fixes its order and at arity 3 makes the three balancers
one element, and the arity-4 trivial word is a row with trivial
sections.

Only free_semigroup runs the search, and only where the words' level-2
and level-3 actions, composed from the table's level rows, cannot
answer.  Its "nontrivial" half cannot fail while is_identity answers
nonidentity for every one-signed word; it is there for a search without
that rule, which finds trivial squares such as a a on a table with
a = (a, a, e) (1 2).

Checks return Report records instead of raising on mathematical
failure, so a batch run can show exactly which identity broke.  Each
check judges only the table it is given: one that makes sense only at
some arities returns a "skip" report, with its reason, at the others,
so run_all hands every check the one table of arity d.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded
from .family import _aligner_factors, build_table, catalog, wrap
from .tree import (
    Permutation,
    RecursionTable,
    _fold_once,
    _folds,
    _level,
    _orbit_numbers,
    _root_images,
)
from .wordproblem import are_equal, is_identity
from .words import Word, _reduced, _Value, commutator, exponent_vector, invert

CHECK_IDS = (
    "exponent_laws",
    "section_tables",
    "lemma_chains",
    "noncontracting_witness",
    "transitivity",
    "fractal_witnesses",
    "branch_witnesses",
    "free_semigroup",
    "hk_and_branch",
    "parity_and_even_d",
)


class Report(_Value):
    """Outcome of one verifier check: the one mutable, unhashable value type."""

    __slots__ = ("check_id", "status", "detail", "data")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, check_id: str, status: str, detail: str,
                 data: dict | None = None) -> None:
        self.check_id = check_id
        self.status = status  # "pass" | "fail" | "skip"
        self.detail = detail
        self.data = {} if data is None else data

    @property
    def ok(self) -> bool:
        return self.status != "fail"


_SHOWN = 3  # problems a failing report lists before "and N more"


def _finish(
    check_id: str, problems: list[str], detail: str, unshown: int = 0, **data
) -> Report:
    """A failing report lists the first _SHOWN problems; unshown counts
    further problems that the caller left unformatted."""
    if problems:
        shown = "; ".join(problems[:_SHOWN])
        more = len(problems) - _SHOWN + unshown
        if more > 0:
            shown += f"; and {more} more"
        return Report(check_id, "fail", shown, data)
    return Report(check_id, "pass", detail, data)


def _skip(check_id: str, reason: str) -> Report:
    return Report(check_id, "skip", reason)


def _expect_wreath_rows(table: RecursionTable, rows, problems: list[str]) -> None:
    """Each row ``(w, perm, {slot: letters}, label)`` states that w has root
    permutation perm and, at each listed slot, a section equal to the
    word with those letters; every unlisted slot must be trivial."""
    A = table.alphabet
    for w, perm, slots, label in rows:
        sections, images = _folds(table, w.letters)
        if images != perm.images:
            got = Permutation(images)
            problems.append(f"{label}: permutation {got} != expected {perm}")
            continue
        for x, sec in enumerate(sections, start=1):
            letters = slots.get(x, ())
            if sec != letters and sec != Word(A, letters).letters:
                got, expected = _reduced(A, sec), Word(A, letters)
                problems.append(f"{label}: section at {x} is {got} != {expected}")
                break


def _expect_hand_backs(table: RecursionTable, rows, problems: list[str]) -> None:
    """Each row ``(w, slot, letters, label)`` states that w fixes level one
    and hands back the word with those letters as its section at slot."""
    A = table.alphabet
    fixed = tuple(A.indices())
    for w, x, letters, label in rows:
        if _root_images(table, w.letters) != fixed:
            problems.append(f"{label}: does not stabilize level one")
            continue
        sec, _ = _fold_once(table._steps, w.letters, x)
        letters = tuple(letters)
        if sec != letters and sec != Word(A, letters).letters:
            problems.append(f"{label}: section at {x} is {_reduced(A, sec)}")


# ---------------------------------------------------------------------------
# 1. letter-count laws


def check_exponent_laws(table: RecursionTable) -> Report:
    """Per-slot counts shift (the sections of w count a_i as often as w
    counts a_i and a_{i-1}) and positive words double in length.

    Summing the count vectors of w's sections and w -> e(w) + shifted e(w)
    are both homomorphisms to Z^d, so they agree on every word once they
    agree on the generators.  Two section letters in all then make every
    generator's sections positive, so a positive word's sections never
    cancel and its length doubles."""
    d = table.alphabet.d
    problems: list[str] = []
    for j, (name, row) in enumerate(zip(table.names, table.sections), start=1):
        joined = [0] * d
        for s in row:
            for i, count in enumerate(exponent_vector(s)):
                joined[i] += count
        for i in range(1, d + 1):
            if joined[i - 1] != (i == j) + (i == wrap(d, j + 1)):
                problems.append(f"shift law broken at slot {i} for {name}")
        letters = sum(len(s) for s in row)
        if letters != 2:
            problems.append(f"sections of {name} hold {letters} letters, not 2")
    return _finish(
        "exponent_laws",
        problems,
        f"count laws hold on the {d} generators, hence on every word",
    )


# ---------------------------------------------------------------------------
# 2. pairwise section tables


def check_section_tables(table: RecursionTable) -> Report:
    """Two-letter products: recomputed sections match the closed forms."""
    A = table.alphabet
    d = A.d
    ident = Permutation.identity(d)
    rows = []
    for i in A.indices():
        i0, i1, i2 = wrap(d, i - 1), wrap(d, i + 1), wrap(d, i + 2)
        rows.append((Word(A, (i, i)), ident, {i: (i, i1), i1: (i1, i)}, f"square a{i}"))
        for j in A.indices():
            if j == i:
                continue
            j1 = wrap(d, j + 1)
            if j == i1:
                plain = {i: (i, j), i1: (i1,), i2: (i2,)}
                mixed = {i1: (-i,), i2: (i2,)}
            elif j == i0:
                plain = {i: (i,), j: (j,), i1: (i1, i)}
                mixed = {j: (j,), i: (-i1,)}
            else:
                plain = {i: (i,), j: (j,), i1: (i1,), j1: (j1,)}
                mixed = {i: (-i1,), i1: (-i,), j: (j,), j1: (j1,)}
            perm = Permutation.from_cycles(d, [(i, i1), (j, j1)])
            rows.append((Word(A, (i, j)), perm, plain, f"pair a{i} a{j}"))
            rows.append((Word(A, (-i, j)), perm, mixed, f"pair a{i}' a{j}"))
    problems: list[str] = []
    _expect_wreath_rows(table, rows, problems)
    return _finish(
        "section_tables",
        problems,
        f"{len(rows)} two-letter products match their closed forms at arity {d}",
    )


# ---------------------------------------------------------------------------
# 3. chains walking down the spine


def check_lemma_chains(table: RecursionTable) -> Report:
    """Powers of the chain elements stabilize level one and hand the next
    chain element back at vertex 1 (or 2 for the full product)."""
    d = table.alphabet.d
    if d % 2 == 0:
        return _skip("lemma_chains", "needs odd arity")
    cat = catalog(d)
    g, h = cat["g"], cat["h"]
    perms = [
        (g, [range(d, 1, -1)], "full product"),
        (h, [(1, 2, *range(4, d + 1))], "chain seed"),
    ]
    hand_backs = [
        (g ** (d - 1), 2, h.letters, "g**(d-1)"),
        (h ** (d - 1), 1, g.letters, "h**(d-1)"),
        (cat[f"h_{d}"], 1, g.letters, "top climb element"),
    ]
    for i in range(1, d + 1):
        points = (1, 2) if i == 1 else (i + 1, 2, 1) if i < d else ()
        perms.append((cat[f"h_{i}"], [points], f"climb element {i}"))
    for i in range(1, d):
        perms.append((cat[f"g_{i}"], [range(i + 1, 0, -1)], f"prefix {i}"))
        target = cat[f"h_{i + 1}"].letters
        hand_backs += [
            (cat[f"h_{i}"] ** (2 if i == 1 else 3), 1, target, f"climb {i} power"),
            (cat[f"g_{i}"] ** (i + 1), 1, target, f"prefix {i} power"),
        ]
    problems = [
        f"{label} has the wrong first-level permutation"
        for w, cycles, label in perms
        if _root_images(table, w.letters) != Permutation.from_cycles(d, cycles).images
    ]
    _expect_hand_backs(table, hand_backs, problems)
    return _finish(
        "lemma_chains",
        problems,
        f"chain of {2 * d} stabilizer hand-offs verified at arity {d}",
    )


# ---------------------------------------------------------------------------
# 4. the non-contracting witness


def check_noncontracting_witness(table: RecursionTable) -> Report:
    """The full product fixes vertex 1 and reappears as its own section
    there, so its sections do not shrink along that ray.  Together with
    infinite order this makes the group non-contracting; the order itself
    is not checked here."""
    g = catalog(table.alphabet.d)["g"]
    problems: list[str] = []
    sec, image = _fold_once(table._steps, g.letters, 1)
    if image != 1:
        problems.append("full product moves vertex 1")
    elif sec != g.letters:
        problems.append("full product is not its own section at vertex 1")
    return _finish(
        "noncontracting_witness",
        problems,
        "the full product fixes vertex 1 and is its own section there",
    )


# ---------------------------------------------------------------------------
# 5. transitivity on levels


def check_transitivity(table: RecursionTable) -> Report:
    """The generator orbit of the leftmost vertex at one level is the whole
    level: level 4 at arity 3, 2 at other odd arities and 1 at even ones.
    A transitive level maps onto every level above it, so one orbit
    decides all levels up to it."""
    d = table.alphabet.d
    level = 4 if d == 3 else 2 if d % 2 else 1
    size = len(_orbit_numbers(table, (1,) * level))
    problems = []
    if size != d**level:
        problems.append(f"level {level} orbit has size {size} != {d ** level}")
    return _finish(
        "transitivity",
        problems,
        f"levels 1..{level} are single orbits at arity {d}",
    )


# ---------------------------------------------------------------------------
# 6. first-level self-reproduction (odd arity)


def check_fractal_witnesses(table: RecursionTable) -> Report:
    """Inside the vertex-1 stabilizer, explicit witnesses reproduce every
    generator as a section at vertex 1."""
    A = table.alphabet
    d = A.d
    if d % 2 == 0:
        return _skip("fractal_witnesses", "needs odd arity")
    cat = catalog(d)
    problems: list[str] = []

    # the rotated product is its own section at vertex 2
    h = cat["h_frac"]
    slots = {1: (1,), 2: h.letters, 3: (3, 2)} | {j: (j,) for j in range(4, d + 1)}
    lam_h = Permutation.from_cycles(d, [(*range(d, 2, -1), 1)])
    _expect_wreath_rows(table, [(h, lam_h, slots, "rotated product")], problems)

    s = {i: cat[f"s_{i}"] for i in range(1, d)}
    hp = h ** (d - 1)
    rows = [(s[2], 1, (3, 2), "first even witness")]
    for i in range(3, d):
        letters = (*range(-2, -i, -1), *range(i + 1, 1, -1))
        rows.append((s[i], 1, letters, f"witness {i}"))
    rows.append((hp, 1, (1, *range(d, 1, -1)), "rotated product power"))
    even_run = Word(A)
    for i in range(1, (d - 1) // 2 + 1):
        even_run = even_run * s[2 * i]
        rows.append((even_run, 1, range(2 * i + 1, 1, -1), f"even run through {2 * i}"))
    rows.append((hp * invert(even_run), 1, (1,), "leftover after the even run"))
    rows.append((s[1], 1, (2,), "closing witness"))
    odd_run = prev_even = Word(A)
    for i in range(1, (d - 1) // 2 + 1):
        odd_run = odd_run * s[2 * i - 1]
        rows.append((odd_run, 1, range(2 * i, 1, -1), f"odd run through {2 * i - 1}"))
        if i >= 2:
            recover = odd_run * invert(prev_even)
            rows.append((recover, 1, (2 * i,), f"recover a_{2 * i}"))
        prev_even = prev_even * s[2 * i]
        recover = prev_even * invert(odd_run)
        rows.append((recover, 1, (2 * i + 1,), f"recover a_{2 * i + 1}"))
    _expect_hand_backs(table, rows, problems)
    return _finish(
        "fractal_witnesses",
        problems,
        f"all {d} generators recovered at vertex 1 from stabilizer witnesses",
    )


# ---------------------------------------------------------------------------
# 7. commutator support alignment (odd arity)


def check_branch_witnesses(table: RecursionTable) -> Report:
    """Commutators concentrate on two slots; conjugating by the rooted
    balancing elements aligns the supports until a commutator sits alone
    in a single slot."""
    A = table.alphabet
    d = A.d
    if d % 2 == 0:
        return _skip("branch_witnesses", "needs odd arity")
    cat = catalog(d)
    problems: list[str] = []

    if d >= 5:
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                if j - i in (1, d - 1):
                    continue
                if _folds(table, (i, j)) != _folds(table, (j, i)):
                    problems.append(f"distant generators {i},{j} do not commute")

    def pair(j: int) -> list[tuple[int, int]]:
        """The cycles of (j j+2)(j+1 j+3), the inverse of the balancer
        xi_j's permutation; reversed, they compose to that permutation."""
        return [(j, wrap(d, j + 2)), (wrap(d, j + 1), wrap(d, j + 3))]

    ident = Permutation.identity(d)
    rows = []
    for i in range(1, d + 1):
        i1, i2 = wrap(d, i + 1), wrap(d, i + 2)
        beta, xi, gbr = cat[f"beta_{i}"], cat[f"xi_{i}"], cat[f"gbr_{i}"]
        factors = [c for j in _aligner_factors(d, i) for c in pair(j)[::-1]]
        lam = Permutation.from_cycles(d, factors)
        K = commutator(Word(A, (i, i)), Word(A, (i1,)))
        Ka = K.conjugated(Word(A, (i,)))
        rows += [
            (beta, Permutation.from_cycles(d, [(i, i1, i2)]), {i: (-i1,), i1: (i1,)},
             f"commutator {i}"),
            (beta * cat[f"beta_{i1}"], Permutation.from_cycles(d, pair(i)),
             {i: (-i1, -i2), i1: (i1, i2)}, f"commutator pair {i}"),
            (xi, Permutation.from_cycles(d, pair(i)[::-1]), {}, f"balancer {i}"),
            (K, ident, {i1: (-i, -i1), i2: (i, i1)}, f"square commutator {i}"),
            (Ka, ident, {i: (-i1, -i), i2: (i, i1)},
             f"conjugated square commutator {i}"),
            (gbr, lam, {}, f"aligner {i}"),
        ]
        if d >= 5:
            balanced = Ka.conjugated(invert(xi))
            aligned = K.conjugated(cat[f"gbr_{i1}"])
            rows += [
                (balanced, ident, {i: (i, i1), i2: (-i1, -i)},
                 f"balanced conjugate {i}"),
                (aligned, ident, {i: (-i, -i1), i2: (i, i1)},
                 f"aligned square commutator {i}"),
            ]
            final = aligned * balanced
        else:
            final = K.conjugated(invert(cat[f"gbr_{i1}"])) * Ka.conjugated(xi)
        rows.append(
            (final, ident, {i: (-i, -i1, i, i1)}, f"single-slot commutator {i}")
        )
    _expect_wreath_rows(table, rows, problems)
    return _finish(
        "branch_witnesses",
        problems,
        f"single-slot commutators produced for all {d} starting positions",
    )


# ---------------------------------------------------------------------------
# 8. freeness of the positive words


_PAIR_BUDGET = 10**6  # candidate pairs ("equality checks") a sweep may count


def check_free_semigroup(table: RecursionTable, max_len: int) -> Report:
    """All positive words up to max_len define pairwise distinct,
    nontrivial elements.

    Each word's level-2 and level-3 actions are its prefix's composed
    with its last letter's rows.  Words are bucketed by level-2 action,
    and every pair within a bucket counts as one equality check.  A word
    that moves a level-2 vertex is nontrivial and words that act
    differently on level 3 differ, on any table, so the search is asked
    only about words with trivial level-2 action and about pairs with
    equal level-3 actions.  Raises BudgetExceeded once the pairs pass
    _PAIR_BUDGET (a word joining a bucket of s words adds s), and
    LevelTooLarge past DEFAULT_VERTEX_CAP level-3 vertices."""
    A = table.alphabet
    # level 3 first, so that a table past the vertex cap makes no level
    three, two = _level(table, 3), _level(table, 2)
    # an action past 256 vertices is an array; bytes() makes a key of it
    fixed = bytes(two[0])
    trivial, coincide = [], []
    buckets: dict = {}  # level-2 action -> [(letters, level-3 class)]
    classes: dict = {}  # level-3 action as bytes -> class number
    total = pairs_checked = 0
    prefixes = [((), two[0], three[0])]
    for length in range(1, max_len + 1):
        layer = []  # kept only as the prefixes of the next length
        for prefix, before2, before3 in prefixes:
            for l in A.indices():
                letters = prefix + (l,)
                act2, act3 = before2.translate(two[l]), before3.translate(three[l])
                total += 1
                key = bytes(act2)
                if key == fixed and is_identity(table, Word(A, letters)).is_identity:
                    trivial.append(letters)
                bucket = buckets.setdefault(key, [])
                pairs_checked += len(bucket)
                if pairs_checked > _PAIR_BUDGET:
                    raise BudgetExceeded(
                        f"more than {_PAIR_BUDGET} equality checks needed"
                    )
                bucket.append((letters, classes.setdefault(bytes(act3), len(classes))))
                if length < max_len:
                    layer.append((letters, act2, act3))
        prefixes = layer
    # u = p x s, v = p y s (s the longest common suffix, p the longest
    # common prefix of the rest): the search on u v' = p x y' p' starts
    # from its cyclic core x y', so each distinct (x, y) is asked once
    verdicts: dict = {}
    for bucket in buckets.values():
        for (u, cu), (v, cv) in itertools.combinations(bucket, 2):
            if cu != cv:
                continue
            k = min(len(u), len(v))
            s = 0
            while s < k and u[-1 - s] == v[-1 - s]:
                s += 1
            p = 0
            while p < k - s and u[p] == v[p]:
                p += 1
            key = (u[p:len(u) - s], v[p:len(v) - s])
            if key not in verdicts:
                verdicts[key] = are_equal(table, Word(A, key[0]), Word(A, key[1]))
            if verdicts[key]:
                coincide.append((u, v))
    problems = [f"positive word {Word(A, w)} is trivial" for w in trivial[:_SHOWN]]
    problems += [f"positive words {Word(A, u)} and {Word(A, v)} coincide"
                 for u, v in coincide[:_SHOWN - len(problems)]]
    return _finish(
        "free_semigroup",
        problems,
        f"{total} positive words up to length {max_len} pairwise distinct "
        f"({pairs_checked} equality checks)",
        len(trivial) + len(coincide) - len(problems),
        words=total,
        pairs_checked=pairs_checked,
    )


# ---------------------------------------------------------------------------
# 9. first-slot lifts at arity 3


def check_hk_and_branch(table: RecursionTable) -> Report:
    """Two arity-3 words fix level one and carry a chosen element at
    vertex 1 with trivial siblings: c' a and (a b)**2."""
    if table.alphabet.d != 3:
        return _skip("hk_and_branch", "first-slot lifts are stated at arity 3")
    cat = catalog(3)
    ident = Permutation.identity(3)
    lifts = [
        (cat["rist_lift_ca"], ident, {1: (-3, 1)}, "first-slot lift of c'a"),
        (cat["rist_lift_absq"], ident, {1: (1, 2, 1, 2)}, "first-slot lift of (ab)^2"),
    ]
    problems: list[str] = []
    _expect_wreath_rows(table, lifts, problems)
    return _finish(
        "hk_and_branch",
        problems,
        f"{len(lifts)} first-slot lifts fold to their stated sections",
    )


# ---------------------------------------------------------------------------
# 10. parity of root permutations and the arity-4 counterexample


def check_parity_and_even_d(table: RecursionTable) -> Report:
    """A word's root permutation has the parity of its length, so level-one
    stabilizer words have even length; at arity 4 the catalog word w4,
    whose counts are nonzero, also folds to the identity.

    The sign of the root permutation and the length mod 2 are both
    homomorphisms to Z/2, so the parity law holds on every word once each
    generator's root permutation is odd."""
    d = table.alphabet.d
    problems = [
        f"permutation parity disagrees with length for {name}"
        for name, perm in zip(table.names, table.perms)
        if sum(len(c) - 1 for c in perm.cycles()) % 2 != 1
    ]
    detail = (f"root permutations of all {d} generators odd, so stabilizer "
              "words have even length")
    if d == 4:
        w4 = catalog(4)["w4"]
        row = (w4, Permutation.identity(4), {}, "arity-4 trivial word")
        _expect_wreath_rows(table, [row], problems)
        detail += f"; arity-4 trivial word has counts {exponent_vector(w4)}"
    return _finish("parity_and_even_d", problems, detail)


# ---------------------------------------------------------------------------
# the batch runner


def run_all(d: int) -> list[Report]:
    """Run every check on the one table of arity d, in CHECK_IDS order; a
    check that needs another arity reports "skip" rather than being
    dropped, and the free-semigroup sweep runs at desk scale at arity 3
    only."""
    table = build_table(d)
    return [
        check_exponent_laws(table),
        check_section_tables(table),
        check_lemma_chains(table),
        check_noncontracting_witness(table),
        check_transitivity(table),
        check_fractal_witnesses(table),
        check_branch_witnesses(table),
        check_free_semigroup(table, 5)
        if d == 3
        else _skip("free_semigroup", "run separately; desk scale targets arity 3"),
        check_hk_and_branch(table),
        check_parity_and_even_d(table),
    ]
