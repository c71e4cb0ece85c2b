"""Mechanical re-derivation of the identities behind the package.

Every check here recomputes a family of constructive identities from
the recursion table alone — section tables for generator pairs, letter
count laws, chains of elements walking down the spine of the tree,
first-level recovery of all generators, commutator support alignment,
freeness of the positive words, congruence-style subgroup membership at
arity 3, and the parity facts that separate odd from even arity.

Checks return Report records instead of raising on mathematical
failure, so a batch run can show exactly which identity broke.  Checks
that only make sense at some arities return a "skip" report elsewhere.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .errors import ArityMismatch, BudgetExceeded
from .family import _gen, build_table, catalog, wrap
from .tree import (
    Permutation,
    RecursionTable,
    act_vertex,
    level_permutation,
    section,
    vertex_orbit,
    word_permutation,
    wreath,
)
from .wordproblem import (
    Finite,
    UnknownBeyond,
    are_equal,
    in_level_stabilizer,
    is_identity,
    order_probe,
)
from .words import (
    Alphabet,
    Word,
    commutator,
    empty_word,
    exponent_total,
    exponent_vector,
    invert,
)

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


@dataclass
class Report:
    """Outcome of one verifier check."""

    check_id: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _finish(check_id: str, problems: list[str], detail: str, **data) -> Report:
    if problems:
        shown = "; ".join(problems[:3])
        if len(problems) > 3:
            shown += f"; and {len(problems) - 3} more"
        return Report(check_id, "fail", shown, data)
    return Report(check_id, "pass", detail, data)


def _skip(check_id: str, reason: str) -> Report:
    return Report(check_id, "skip", reason)


@dataclass(frozen=True)
class HkClass:
    """Arity-3 words whose signed letter count is divisible by 2**(k+1).

    These sets are subgroups containing every iterated commutator
    relevant here, and membership is a pure count computation."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")

    @property
    def modulus(self) -> int:
        return 2 ** (self.k + 1)

    def contains(self, w: Word) -> bool:
        if w.alphabet.d != 3:
            raise ArityMismatch(
                f"this class is defined at arity 3, got a word at arity {w.alphabet.d}"
            )
        return exponent_total(w) % self.modulus == 0


def sample_words(
    alphabet: Alphabet, count: int, max_len: int, rng: random.Random
) -> list[Word]:
    """Random freely-reduced words; raw length uniform on 1..max_len."""
    pool = [i for i in alphabet.indices()] + [-i for i in alphabet.indices()]
    out = []
    for _ in range(count):
        raw = tuple(rng.choice(pool) for _ in range(rng.randint(1, max_len)))
        out.append(Word(alphabet, raw))
    return out


def _word(alphabet: Alphabet, letters) -> Word:
    return Word(alphabet, tuple(letters))


def _perm_parity(p: Permutation) -> int:
    """0 for even, 1 for odd."""
    moved = sum(len(c) - 1 for c in p.cycles())
    return moved % 2


def _expect_wreath(
    table: RecursionTable,
    w: Word,
    slots: dict[int, Word],
    perm: Permutation,
    label: str,
    problems: list[str],
) -> None:
    """Assert the wreath recursion of w equals the given sparse data."""
    wr = wreath(table, w)
    if wr.perm != perm:
        problems.append(f"{label}: permutation {wr.perm} != expected {perm}")
        return
    blank = empty_word(table.alphabet)
    for x in table.alphabet.indices():
        expected = slots.get(x, blank)
        if not are_equal(table, wr.sections[x - 1], expected):
            problems.append(
                f"{label}: section at {x} is {wr.sections[x - 1]} != {expected}"
            )
            return


# ---------------------------------------------------------------------------
# 1. letter-count laws


def check_exponent_laws(table: RecursionTable, words: list[Word]) -> Report:
    """Concatenated sections double counts; per-slot counts shift."""
    d = table.alphabet.d
    problems: list[str] = []
    for w in words:
        secs = wreath(table, w).sections
        base = exponent_vector(w)
        joined = [0] * d
        for s in secs:
            vec = exponent_vector(s)
            for i in range(d):
                joined[i] += vec[i]
        if sum(joined) != 2 * sum(base):
            problems.append(f"total count not doubled for {w}")
        for i in range(1, d + 1):
            if joined[i - 1] != base[i - 1] + base[wrap(d, i - 1) - 1]:
                problems.append(f"shift law broken at slot {i} for {w}")
        if d % 2 == 1:
            half = sum(joined) // 2
            for i in range(1, d + 1):
                recovered = half - sum(
                    joined[wrap(d, i + 2 * j) - 1] for j in range(1, (d - 1) // 2 + 1)
                )
                if recovered != base[i - 1]:
                    problems.append(f"count inversion broken at {i} for {w}")
            if not any(joined) and any(base):
                problems.append(f"zero section counts but nonzero base for {w}")
        if d == 3:
            t1, t2, t3 = joined
            closed = ((t1 + t2 - t3) // 2, (t2 + t3 - t1) // 2, (t3 + t1 - t2) // 2)
            if closed != base:
                problems.append(f"closed-form recovery broken for {w}")
    # positive words: lengths double exactly (sections cannot cancel)
    positives = [
        _word(table.alphabet, (abs(l) for l in w.letters)) for w in words if w.letters
    ]
    for w in positives:
        secs = wreath(table, w).sections
        if sum(len(s) for s in secs) != 2 * len(w):
            problems.append(f"length not doubled for positive word {w}")
    return _finish(
        "exponent_laws",
        problems,
        f"count laws hold on {len(words)} words ({len(positives)} positive variants)",
        words=len(words),
    )


# ---------------------------------------------------------------------------
# 2. pairwise section tables


def _expected_positive_pair(table: RecursionTable, i: int, j: int):
    d = table.alphabet.d
    A = table.alphabet
    succ_i, succ_j = wrap(d, i + 1), wrap(d, j + 1)
    perm = Permutation.transposition(d, i, succ_i) * Permutation.transposition(
        d, j, succ_j
    )
    if j == succ_i:
        slots = {
            i: _word(A, (i, j)),
            succ_i: _gen(A, succ_i),
            wrap(d, i + 2): _gen(A, wrap(d, i + 2)),
        }
    elif j == wrap(d, i - 1):
        slots = {
            i: _gen(A, i),
            j: _gen(A, j),
            succ_i: _word(A, (succ_i, i)),
        }
    else:
        slots = {
            i: _gen(A, i),
            j: _gen(A, j),
            succ_i: _gen(A, succ_i),
            succ_j: _gen(A, succ_j),
        }
    return slots, perm


def _expected_negative_pair(table: RecursionTable, i: int, j: int):
    d = table.alphabet.d
    A = table.alphabet
    succ_i, succ_j = wrap(d, i + 1), wrap(d, j + 1)
    perm = Permutation.transposition(d, i, succ_i) * Permutation.transposition(
        d, j, succ_j
    )
    if j == succ_i:
        slots = {
            succ_i: _word(A, (-i,)),
            wrap(d, i + 2): _gen(A, wrap(d, i + 2)),
        }
    elif j == wrap(d, i - 1):
        slots = {
            j: _gen(A, j),
            i: _word(A, (-succ_i,)),
        }
    else:
        slots = {
            i: _word(A, (-succ_i,)),
            succ_i: _word(A, (-i,)),
            j: _gen(A, j),
            succ_j: _gen(A, succ_j),
        }
    return slots, perm


def check_section_tables(d: int) -> Report:
    """Two-letter products: recomputed sections match the closed forms."""
    table = build_table(d)
    A = table.alphabet
    problems: list[str] = []
    pairs = 0

    if d == 3:
        lam1 = Permutation((3, 1, 2))
        lam2 = Permutation((2, 3, 1))
        ident = Permutation.identity(3)
        nine = [
            ((1, 2), {1: (1, 2), 2: (2,), 3: (3,)}, lam1),
            ((2, 1), {1: (1,), 2: (2,), 3: (3, 2)}, lam2),
            ((1, 1), {1: (1, 2), 2: (2, 1)}, ident),
            ((2, 3), {1: (1,), 2: (2, 3), 3: (3,)}, lam1),
            ((3, 2), {1: (1, 3), 2: (2,), 3: (3,)}, lam2),
            ((2, 2), {2: (2, 3), 3: (3, 2)}, ident),
            ((3, 1), {1: (1,), 2: (2,), 3: (3, 1)}, lam1),
            ((1, 3), {1: (1,), 2: (2, 1), 3: (3,)}, lam2),
            ((3, 3), {1: (1, 3), 3: (3, 1)}, ident),
        ]
        for letters, slots, perm in nine:
            _expect_wreath(
                table,
                _word(A, letters),
                {x: _word(A, ls) for x, ls in slots.items()},
                perm,
                f"square table {_word(A, letters)}",
                problems,
            )
            pairs += 1

    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i == j:
                continue
            slots, perm = _expected_positive_pair(table, i, j)
            _expect_wreath(
                table, _word(A, (i, j)), slots, perm, f"pair a{i} a{j}", problems
            )
            slots, perm = _expected_negative_pair(table, i, j)
            w = _word(A, (-i, j))
            _expect_wreath(table, w, slots, perm, f"pair a{i}' a{j}", problems)
            for s in wreath(table, w).sections:
                if len(s) > 1:
                    problems.append(f"mixed pair a{i}' a{j} has a long section {s}")
            pairs += 2
    return _finish(
        "section_tables",
        problems,
        f"{pairs} two-letter products match their closed forms at arity {d}",
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# 3. chains walking down the spine


def check_lemma_chains(d: int) -> Report:
    """Powers of the chain elements stabilize level one and hand the next
    chain element back at vertex 1 (or 2 for the full product)."""
    if d % 2 == 0 or d > 9:
        raise ValueError(f"chain check needs odd arity <= 9, got {d}")
    table = build_table(d)
    cat = catalog(d)
    problems: list[str] = []
    g, h = cat["g"], cat["h"]

    lam_g = Permutation.from_cycles(d, [tuple(range(d, 1, -1))])
    if word_permutation(table, g) != lam_g:
        problems.append("full product has the wrong first-level permutation")
    lam_h = Permutation.from_cycles(d, [(1, 2) + tuple(range(4, d + 1))])
    if word_permutation(table, h) != lam_h:
        problems.append("chain seed has the wrong first-level permutation")

    gp = g ** (d - 1)
    if not in_level_stabilizer(table, gp, 1):
        problems.append("g**(d-1) does not stabilize level one")
    elif not are_equal(table, section(table, gp, (2,)), h):
        problems.append("g**(d-1) section at 2 is not the chain seed")

    hp = h ** (d - 1)
    if not in_level_stabilizer(table, hp, 1):
        problems.append("h**(d-1) does not stabilize level one")
    elif not are_equal(table, section(table, hp, (1,)), g):
        problems.append("h**(d-1) section at 1 is not the full product")

    for i in range(1, d + 1):
        climb = cat[f"h_{i}"]
        expected = (
            Permutation.transposition(d, 1, 2)
            if i == 1
            else Permutation.from_cycles(d, [(i + 1, 2, 1)])
            if i < d
            else Permutation.identity(d)
        )
        if word_permutation(table, climb) != expected:
            problems.append(f"climb element {i} has the wrong permutation")
    for i in range(1, d):
        exponent = 2 if i == 1 else 3
        power = cat[f"h_{i}"] ** exponent
        if not in_level_stabilizer(table, power, 1):
            problems.append(f"climb {i} power does not stabilize level one")
        elif not are_equal(table, section(table, power, (1,)), cat[f"h_{i + 1}"]):
            problems.append(f"climb {i} power does not hand back climb {i + 1}")

    for i in range(1, d):
        prefix = cat[f"g_{i}"]
        lam = Permutation.from_cycles(d, [tuple(range(i + 1, 0, -1))])
        if word_permutation(table, prefix) != lam:
            problems.append(f"prefix {i} has the wrong permutation")
        power = prefix ** (i + 1)
        if not in_level_stabilizer(table, power, 1):
            problems.append(f"prefix {i} power does not stabilize level one")
        elif not are_equal(table, section(table, power, (1,)), cat[f"h_{i + 1}"]):
            problems.append(f"prefix {i} power does not hand back climb {i + 1}")

    if not in_level_stabilizer(table, cat[f"h_{d}"], 1):
        problems.append("top climb element does not stabilize level one")
    elif not are_equal(table, section(table, cat[f"h_{d}"], (1,)), g):
        problems.append("top climb element does not hand back the full product")
    return _finish(
        "lemma_chains",
        problems,
        f"chain of {2 * d} stabilizer hand-offs verified at arity {d}",
        arity=d,
    )


# ---------------------------------------------------------------------------
# 4. the non-contracting witness


def check_noncontracting_witness(d: int, probe_bound: int = 128) -> Report:
    """The full product fixes vertex 1 and reappears as its own section
    there, so sections do not shrink along that ray; its order resists a
    direct probe."""
    table = build_table(d)
    g = catalog(d)["g"]
    problems: list[str] = []
    if act_vertex(table, g, (1,)) != (1,):
        problems.append("full product moves vertex 1")
    elif not are_equal(table, section(table, g, (1,)), g):
        problems.append("full product is not its own section at vertex 1")
    probe = order_probe(table, g, probe_bound)
    if not isinstance(probe, UnknownBeyond):
        problems.append(f"order probe unexpectedly finished: {probe}")
    return _finish(
        "noncontracting_witness",
        problems,
        f"self-section at vertex 1 confirmed; order probe open beyond {probe_bound}",
        probe_bound=probe_bound,
    )


# ---------------------------------------------------------------------------
# 5. transitivity on levels


def check_transitivity(table: RecursionTable, max_level: int) -> Report:
    """The generator orbit of the leftmost vertex is the whole level."""
    d = table.alphabet.d
    problems: list[str] = []
    sizes = {}
    for k in range(1, max_level + 1):
        orbit = vertex_orbit(table, (1,) * k)
        sizes[k] = len(orbit)
        if len(orbit) != d**k:
            problems.append(f"level {k} orbit has size {len(orbit)} != {d ** k}")
    return _finish(
        "transitivity",
        problems,
        f"levels 1..{max_level} are single orbits at arity {d}",
        sizes=sizes,
    )


# ---------------------------------------------------------------------------
# 6. first-level self-reproduction (odd arity)


def check_fractal_witnesses(d: int) -> Report:
    """Inside the vertex-1 stabilizer, explicit witnesses reproduce every
    generator as a section at vertex 1."""
    if d % 2 == 0:
        raise ValueError(f"first-level recovery needs odd arity, got {d}")
    table = build_table(d)
    A = table.alphabet
    cat = catalog(d)
    problems: list[str] = []
    recovered: set[int] = set()

    def sec1(w: Word) -> Word:
        return section(table, w, (1,))

    def expect_sec1(w: Word, letters, label: str) -> None:
        if not in_level_stabilizer(table, w, 1):
            problems.append(f"{label}: witness does not stabilize level one")
        elif not are_equal(table, sec1(w), _word(A, letters)):
            problems.append(f"{label}: section at 1 is {sec1(w)}")

    stair = empty_word(A)
    for i in range(1, d):
        stair = stair * _gen(A, i)
    full_cycle = Permutation.from_cycles(d, [tuple(range(d, 0, -1))])
    if word_permutation(table, stair) != full_cycle:
        problems.append("ascending product of d-1 generators is not a d-cycle")

    h = cat["h_frac"]
    lam_h = Permutation.from_cycles(d, [tuple(range(d, 2, -1)) + (1,)])
    if word_permutation(table, h) != lam_h:
        problems.append("rotated product has the wrong first-level permutation")
    for slot, letters in [(1, (1,)), (3, (3, 2))] + [(j, (j,)) for j in range(4, d + 1)]:
        if not are_equal(table, section(table, h, (slot,)), _word(A, letters)):
            problems.append(f"rotated product section at {slot} is off")

    s = {i: cat[f"s_{i}"] for i in range(1, d)}
    expect_sec1(s[2], (3, 2), "first even witness")
    for i in range(3, d):
        letters = [-j for j in range(2, i)] + [j for j in range(i + 1, 1, -1)]
        expect_sec1(s[i], letters, f"witness {i}")

    hp = h ** (d - 1)
    expect_sec1(hp, [1] + list(range(d, 1, -1)), "rotated product power")

    even_run = empty_word(A)
    for i in range(1, (d - 1) // 2 + 1):
        even_run = even_run * s[2 * i]
        expect_sec1(
            even_run, list(range(2 * i + 1, 1, -1)), f"even run through {2 * i}"
        )
    expect_sec1(hp * invert(even_run), (1,), "leftover after the even run")
    recovered.add(1)

    expect_sec1(s[1], (2,), "closing witness")
    recovered.add(2)

    odd_run = empty_word(A)
    prev_even = empty_word(A)
    for i in range(1, (d - 1) // 2 + 1):
        odd_run = odd_run * s[2 * i - 1]
        expect_sec1(odd_run, list(range(2 * i, 1, -1)), f"odd run through {2 * i - 1}")
        if i >= 2:
            expect_sec1(odd_run * invert(prev_even), (2 * i,), f"recover a_{2 * i}")
            recovered.add(2 * i)
        prev_even = prev_even * s[2 * i]
        expect_sec1(prev_even * invert(odd_run), (2 * i + 1,), f"recover a_{2 * i + 1}")
        recovered.add(2 * i + 1)

    if recovered != set(range(1, d + 1)):
        problems.append(f"only recovered generators {sorted(recovered)}")
    return _finish(
        "fractal_witnesses",
        problems,
        f"all {d} generators recovered at vertex 1 from stabilizer witnesses",
        recovered=sorted(recovered),
    )


# ---------------------------------------------------------------------------
# 7. commutator support alignment (odd arity)


def check_branch_witnesses(d: int) -> Report:
    """Commutators concentrate on two slots; conjugating by the rooted
    balancing elements aligns the supports until a commutator sits alone
    in a single slot."""
    if d % 2 == 0:
        raise ValueError(f"support alignment needs odd arity, got {d}")
    table = build_table(d)
    A = table.alphabet
    cat = catalog(d)
    problems: list[str] = []
    blank = empty_word(A)

    if d >= 5:
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                gap = min((i - j) % d, (j - i) % d)
                if gap not in (1, d - 1) and not are_equal(
                    table, _word(A, (i, j)), _word(A, (j, i))
                ):
                    problems.append(f"distant generators {i},{j} do not commute")

    for i in range(1, d + 1):
        i1, i2, i3 = wrap(d, i + 1), wrap(d, i + 2), wrap(d, i + 3)
        beta = cat[f"beta_{i}"]
        _expect_wreath(
            table,
            beta,
            {i: _word(A, (-i1,)), i1: _gen(A, i1)},
            Permutation.from_cycles(d, [(i, i1, i2)]),
            f"commutator {i}",
            problems,
        )
        pair = beta * cat[f"beta_{i1}"]
        pair_perm = Permutation.transposition(d, i, i2) * Permutation.transposition(
            d, i1, i3
        )
        _expect_wreath(
            table,
            pair,
            {i: _word(A, (-i1, -i2)), i1: _word(A, (i1, i2))},
            pair_perm,
            f"commutator pair {i}",
            problems,
        )
        xi = cat[f"xi_{i}"]
        _expect_wreath(
            table, xi, {}, pair_perm.inverse(), f"balancer {i}", problems
        )

        K = commutator(_gen(A, i) ** 2, _gen(A, i1))
        _expect_wreath(
            table,
            K,
            {i1: _word(A, (-i, -i1)), i2: _word(A, (i, i1))},
            Permutation.identity(d),
            f"square commutator {i}",
            problems,
        )
        Ka = K.conjugated(_gen(A, i))
        _expect_wreath(
            table,
            Ka,
            {i: _word(A, (-i1, -i)), i2: _word(A, (i, i1))},
            Permutation.identity(d),
            f"conjugated square commutator {i}",
            problems,
        )

        gbr = cat[f"gbr_{i}"]
        _expect_wreath(
            table, gbr, {}, word_permutation(table, gbr), f"aligner {i}", problems
        )
        if d >= 5:
            lam = word_permutation(table, gbr)
            if lam(i) != wrap(d, i - 1) or lam(i1) != i1:
                problems.append(f"aligner {i} moves the wrong slots")
            _expect_wreath(
                table,
                Ka.conjugated(invert(xi)),
                {i: _word(A, (i, i1)), i2: _word(A, (-i1, -i))},
                Permutation.identity(d),
                f"balanced conjugate {i}",
                problems,
            )
            _expect_wreath(
                table,
                K.conjugated(cat[f"gbr_{i1}"]),
                {i: _word(A, (-i, -i1)), i2: _word(A, (i, i1))},
                Permutation.identity(d),
                f"aligned square commutator {i}",
                problems,
            )
            final = K.conjugated(cat[f"gbr_{i1}"]) * Ka.conjugated(invert(xi))
        else:
            final = K.conjugated(invert(cat[f"gbr_{i1}"])) * Ka.conjugated(xi)
        _expect_wreath(
            table,
            final,
            {i: commutator(_gen(A, i), _gen(A, i1))},
            Permutation.identity(d),
            f"single-slot commutator {i}",
            problems,
        )

    if d == 3:
        if not (
            are_equal(table, cat["xi_1"], cat["xi_2"])
            and are_equal(table, cat["xi_1"], cat["xi_3"])
        ):
            problems.append("the three balancers do not coincide at arity 3")
    expected_order = 3 if d == 3 else 2
    probe = order_probe(table, cat["xi_1"], 10)
    if probe != Finite(expected_order):
        problems.append(f"balancer order probe gave {probe}")
    if not isinstance(order_probe(table, _gen(A, 1), 128), UnknownBeyond):
        problems.append("generator order probe unexpectedly finished")
    return _finish(
        "branch_witnesses",
        problems,
        f"single-slot commutators produced for all {d} starting positions",
        arity=d,
    )


# ---------------------------------------------------------------------------
# 8. freeness of the positive words


def check_free_semigroup(
    d: int, max_len: int, pair_budget: int = 10**6
) -> Report:
    """All positive words up to max_len define pairwise distinct,
    nontrivial elements.

    Candidate pairs are pre-filtered by an element invariant before the
    pairwise equality checks: per-generator counts at odd arity, the
    level-2 vertex action elsewhere.  Raises BudgetExceeded if the
    number of equality checks would pass pair_budget."""
    table = build_table(d)
    A = table.alphabet
    problems: list[str] = []
    buckets: dict = {}
    total = 0
    for length in range(1, max_len + 1):
        for letters in itertools.product(range(1, d + 1), repeat=length):
            w = _word(A, letters)
            total += 1
            if is_identity(table, w).is_identity:
                problems.append(f"positive word {w} is trivial")
            if d % 2 == 1:
                key = exponent_vector(w)
            else:
                key = level_permutation(table, w, 2)
            buckets.setdefault(key, []).append(w)
    pairs_checked = 0
    for bucket in buckets.values():
        for u, v in itertools.combinations(bucket, 2):
            pairs_checked += 1
            if pairs_checked > pair_budget:
                raise BudgetExceeded(
                    f"more than {pair_budget} equality checks needed"
                )
            if are_equal(table, u, v):
                problems.append(f"positive words {u} and {v} coincide")
    expected = sum(d**l for l in range(1, max_len + 1))
    if total != expected:
        problems.append(f"enumerated {total} words, expected {expected}")
    return _finish(
        "free_semigroup",
        problems,
        f"{total} positive words up to length {max_len} pairwise distinct "
        f"({pairs_checked} equality checks)",
        words=total,
        pairs_checked=pairs_checked,
    )


# ---------------------------------------------------------------------------
# 9. count-congruence subgroups at arity 3


def check_hk_and_branch(k: int, seed: int = 0, sample_size: int = 100) -> Report:
    """Membership bookkeeping for the count-congruence subgroups, plus
    the two explicit first-slot lifts."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2 for the desk-scale check, got {k}")
    table = build_table(3)
    A = table.alphabet
    cat = catalog(3)
    problems: list[str] = []
    H = HkClass(k)
    a = _gen(A, 1)
    rng = random.Random(seed)

    _expect_wreath(
        table,
        cat["rist_lift_ca"],
        {1: _word(A, (-3, 1))},
        Permutation.identity(3),
        "first-slot lift of c'a",
        problems,
    )
    _expect_wreath(
        table,
        cat["rist_lift_absq"],
        {1: _word(A, (1, 2, 1, 2))},
        Permutation.identity(3),
        "first-slot lift of (ab)^2",
        problems,
    )

    words = sample_words(A, sample_size, 10, rng)
    for w in words:
        i = exponent_total(w) % H.modulus
        h = a**-i * w
        if not H.contains(h):
            problems.append(f"decomposition remainder of {w} is outside the class")
        if not are_equal(table, a**i * h, w):
            problems.append(f"decomposition does not rebuild {w}")

    conditioned: list[Word] = []
    attempts = 0
    while len(conditioned) < (12 if k == 1 else 6) and attempts < 5000:
        attempts += 1
        w = sample_words(A, 1, 8, rng)[0]
        if k == 1:
            if w.letters and word_permutation(table, w).is_identity:
                conditioned.append(w)
        else:
            images = level_permutation(table, w, 2)
            m = _mapping_order(images)
            u = w**m
            if u.letters:
                conditioned.append(u)
    tuples = []
    for u in conditioned:
        if not in_level_stabilizer(table, u, k):
            problems.append(f"conditioned word {u} is not in the level-{k} stabilizer")
            continue
        coords = []
        for v in itertools.product(range(1, 4), repeat=k):
            w_v = section(table, u, v)
            j_v = exponent_total(w_v) % H.modulus
            if not H.contains(a**-j_v * w_v):
                problems.append(f"section remainder at {v} escapes the class")
            coords.append(j_v)
        tuples.append(tuple(coords))
    index_bound = H.modulus ** (3**k)

    one = HkClass(1)
    for n in (1, 2, 3):
        if one.contains(a**n):
            problems.append(f"a**{n} should lie outside the k=1 class")
    return _finish(
        "hk_and_branch",
        problems,
        f"lifts, {len(words)} decompositions and {len(tuples)} coset tuples "
        f"checked at k={k}",
        seed=seed,
        k=k,
        tuples=tuples[:4],
        index_bound=index_bound,
    )


def _mapping_order(images: tuple) -> int:
    """Order of the permutation sending position t to images[t]."""
    n = len(images)
    index = {v: t for t, v in enumerate(sorted(images))}
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = index[images[t]]
            length += 1
        order = math.lcm(order, length)
    return order


# ---------------------------------------------------------------------------
# 10. parity at arity 3 and the even-arity counterexample


def check_parity_and_even_d(seed: int = 0, sample_size: int = 1000) -> Report:
    """Level-one stabilizer words have even reduced length at arity 3;
    at arity 4 a nonempty trivial word with nonzero counts exists."""
    table3 = build_table(3)
    A3 = table3.alphabet
    rng = random.Random(seed)
    problems: list[str] = []
    kept = 0
    attempts = 0
    while kept < sample_size and attempts < 100 * sample_size:
        attempts += 1
        w = sample_words(A3, 1, 12, rng)[0]
        perm = word_permutation(table3, w)
        if _perm_parity(perm) != len(w) % 2:
            problems.append(f"permutation parity disagrees with length for {w}")
        if not perm.is_identity:
            continue
        kept += 1
        if len(w) % 2 != 0:
            problems.append(f"stabilizer word {w} has odd length")
        if exponent_total(w) % 2 != 0:
            problems.append(f"stabilizer word {w} has odd signed count")
    if kept < sample_size:
        problems.append(f"only conditioned {kept} of {sample_size} words")

    table4 = build_table(4)
    w4 = catalog(4)["w4"]
    if not is_identity(table4, w4).is_identity:
        problems.append("the arity-4 counterexample word is not trivial")
    if not any(exponent_vector(w4)):
        problems.append("the arity-4 counterexample has zero counts")
    return _finish(
        "parity_and_even_d",
        problems,
        f"{kept} stabilizer words all even; arity-4 trivial word has "
        f"counts {exponent_vector(w4)}",
        seed=seed,
        words=kept,
    )


# ---------------------------------------------------------------------------
# the batch runner


def run_all(d: int, seed: int = 0, max_len: int = 10) -> list[Report]:
    """Run every check at arity d in a fixed order; checks that need a
    different arity report "skip" rather than being dropped."""
    table = build_table(d)
    rng = random.Random(seed)
    words = sample_words(table.alphabet, 300, max_len, rng)
    odd = d % 2 == 1
    reports = []

    rep = check_exponent_laws(table, words)
    rep.data["seed"] = seed
    reports.append(rep)
    reports.append(check_section_tables(d))
    reports.append(
        check_lemma_chains(d) if odd else _skip("lemma_chains", "needs odd arity")
    )
    reports.append(check_noncontracting_witness(d))
    reports.append(check_transitivity(table, 4 if d == 3 else 2 if odd else 1))
    reports.append(
        check_fractal_witnesses(d)
        if odd
        else _skip("fractal_witnesses", "needs odd arity")
    )
    reports.append(
        check_branch_witnesses(d)
        if odd
        else _skip("branch_witnesses", "needs odd arity")
    )
    reports.append(
        check_free_semigroup(d, min(max_len, 5))
        if d == 3
        else _skip("free_semigroup", "run separately; desk scale targets arity 3")
    )
    reports.append(
        check_hk_and_branch(1, seed=seed)
        if d == 3
        else _skip("hk_and_branch", "count-congruence classes live at arity 3")
    )
    reports.append(check_parity_and_even_d(seed=seed))
    return reports
