"""Seeded inputs for the three workloads, with labels that never come from
``is_identity``.

Every word carries a label and the label's source:

* ``construction``: the word was built to be an identity (a product of
  conjugated relators, or a commutator of conjugated lifts with disjoint
  supports) or a nonidentity (a conjugate of a certified nonidentity);
* ``certificate``: the reference evaluator found a moved vertex at level
  <= 3 (nonidentity) or a closed set of sections (identity);
* ``none``: neither applies; the word is timed but cannot be misjudged.

The relators themselves are checked with the reference evaluator when a
corpus is built, so a wrong relator stops the benchmark instead of
mislabelling words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

from reference import Reference, inverse, reduce_letters
from tables import WORKLOAD_TABLES

MAX_SHORT = 120
MEAN_SHORT = 20

# decide-batch: words per arity in each category, and the README slice
N_RANDOM = 9000
N_STABILIZER = 900
N_COMMUTATOR = 900
N_IDENTITY = 900
N_README = 600

# long-words: conjugator lengths and power exponents, the same for every
# seed so that the tail of the latency distribution keeps its shape; each
# exponent gives power words with a moved vertex at level <= 3.  Words
# stay at or below 10^4 letters, so that no operation takes more than a
# few tens of milliseconds: longer ones cannot meet a quiet moment of a
# shared host (README.md, "How it drives arbora")
CONJUGATOR_LENGTHS = (500, 750, 1000, 1250, 1500, 1750, 2000, 2250, 2500)
POWER_EXPONENTS = (250, 400, 550, 700, 1000, 1300, 1600, 2000, 2500)


@dataclass(frozen=True)
class Item:
    """One word to decide: its text, the table it is over, and its label."""

    text: str
    table: str
    raw: tuple[int, ...]
    identity: bool | None
    source: str
    kind: str


def names(key: str) -> tuple[str, ...]:
    if key == "readme":
        return ("x", "y", "z")
    d = int(key[1:])
    return ("a", "b", "c") if d == 3 else tuple(f"a{i}" for i in range(1, d + 1))


def text_of(letters, key: str) -> str:
    """Text form, one token per letter (``e`` for the empty word)."""
    ns = names(key)
    return " ".join(ns[l - 1] if l > 0 else ns[-l - 1] + "'" for l in letters) or "e"


def random_word(rng: random.Random, d: int, n: int) -> tuple[int, ...]:
    """A uniformly random freely reduced word of length n."""
    out: list[int] = []
    pool = [i for i in range(1, d + 1)] + [-i for i in range(1, d + 1)]
    while len(out) < n:
        l = rng.choice(pool)
        if not out or out[-1] != -l:
            out.append(l)
    return tuple(out)


def short_length(rng: random.Random) -> int:
    """Mostly short, as typed input is, with a tail up to MAX_SHORT."""
    return min(MAX_SHORT, 1 + int(rng.expovariate(1 / MEAN_SHORT)))


def commutator(u, v) -> tuple[int, ...]:
    return reduce_letters(inverse(u) + inverse(v) + tuple(u) + tuple(v))


def conjugate(r, u) -> tuple[int, ...]:
    """u^-1 r u."""
    return reduce_letters(inverse(u) + tuple(r) + tuple(u))


def xi(d: int, i: int) -> tuple[int, ...]:
    """The balancing element
    [a_{i+1}^2, a_{i+2}] ([a_i, a_{i+1}] [a_{i+1}, a_{i+2}])^-1,
    rooted (all sections trivial) at odd arity."""
    w = lambda j: (j - 1) % d + 1
    balance = commutator((w(i + 1), w(i + 1)), (w(i + 2),))
    pair = commutator((i,), (w(i + 1),)) + commutator((w(i + 1),), (w(i + 2),))
    return reduce_letters(balance + inverse(pair))


def power(w, n: int) -> tuple[int, ...]:
    return reduce_letters(tuple(w) * n if n >= 0 else inverse(w) * -n)


def perm_word_table(ref: Reference) -> dict[tuple[int, ...], tuple[int, ...]]:
    """A shortest word for every reachable root permutation (BFS)."""
    start = tuple(range(ref.d))
    best = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for l in ref.img:
                q = tuple(ref.img[l][x] for x in p)
                if q not in best:
                    best[q] = best[p] + (l,)
                    nxt.append(q)
        frontier = nxt
    return best


def certify(ref: Reference, blocks, closure: bool = True):
    """(label, source) from the reference evaluator alone."""
    if ref.moved_vertex(blocks) is not None:
        return False, "certificate"
    if closure:
        letters = reduce_letters(tuple(l for w, n in blocks for l in power(w, n)))
        if ref.closure_proves_identity(letters):
            return True, "certificate"
    return None, "none"


def rooted_relators(ref: Reference, d: int) -> list[tuple[int, ...]]:
    """Words in the rooted xi_i whose root permutations multiply to one."""
    xis = [xi(d, i) for i in range(1, d + 1)]
    for w in xis:
        if any(ref.sections(w)):
            raise AssertionError(f"xi {w} is not rooted at arity {d}")
    perm = lambda w: tuple(ref.word_perm(w, 1))

    def order(w) -> int:
        p = q = perm(w)
        n = 1
        while q != tuple(range(d)):
            q, n = tuple(p[x] for x in q), n + 1
        return n

    out = [power(w, order(w)) for w in xis]
    for u, v in permutations(xis, 2):
        if perm(u) == perm(v):
            out.append(reduce_letters(u + inverse(v)))
        elif len(u + v) * order(u + v) <= MAX_SHORT:
            out.append(power(u + v, order(u + v)))
    return out


def lifts(ref: Reference) -> list[tuple[int, ...]]:
    """Arity-3 words acting only inside the subtree below vertex 1."""
    x1 = xi(3, 1)
    out = [reduce_letters((-3, -2, 1, 3) + x1),
           power(conjugate((1,), (2,)) + power(x1, -2), 2)]
    for w in out:
        secs = ref.sections(w)
        if ref.word_perm(w, 1) != [0, 1, 2] or secs[1] or secs[2]:
            raise AssertionError(f"{w} is not a first-slot lift")
    return out


def relators(ref: Reference, key: str) -> list[tuple[int, ...]]:
    if key == "d4":
        out = [(2, 1, -3, 2, -1, 4, -2, -1)]
    elif key == "readme":
        out = [(2,), (3, 3)]
    else:
        out = rooted_relators(ref, int(key[1:]))
    for r in out:
        if ref.moved_vertex([(r, 1)]) is not None:
            raise AssertionError(f"relator {r} over {key} moves a vertex")
    if key == "readme":
        for r in out:
            if not ref.closure_proves_identity(r):
                raise AssertionError(f"no closure certificate for {r}")
    return out


def lift_commutator(rng: random.Random, ref: Reference, lift_words) -> tuple[int, ...]:
    """[L1^g1, L2^g2] with g1(1) != g2(1): disjoint supports, so trivial."""
    while True:
        g1 = random_word(rng, 3, rng.randint(0, 2))
        g2 = random_word(rng, 3, rng.randint(0, 2))
        if ref.word_perm(g1, 1)[0] == ref.word_perm(g2, 1)[0]:
            continue
        l1 = power(rng.choice(lift_words), rng.choice((1, -1)))
        l2 = power(rng.choice(lift_words), rng.choice((1, -1)))
        w = commutator(conjugate(l1, g1), conjugate(l2, g2))
        if 0 < len(w) <= MAX_SHORT:
            return w


def relator_product(rng: random.Random, d: int, rels, max_len: int) -> tuple[int, ...]:
    """A product of one to three conjugated relators, freely reduced."""
    while True:
        raw: tuple[int, ...] = ()
        for _ in range(rng.randint(1, 3)):
            r = power(rng.choice(rels), rng.choice((1, -1)))
            raw += conjugate(r, random_word(rng, d, rng.randint(0, 6)))
        w = reduce_letters(raw)
        if 0 < len(w) <= max_len:
            return w


def decide_batch(seed: int, refs: dict[str, Reference]) -> list[Item]:
    """About 35,600 short words at arities 3, 4, 5 plus the README slice."""
    rng = random.Random(seed)
    items: list[Item] = []

    def add(key, letters, kind, label=None):
        if label is None:
            label = certify(refs[key], [(letters, 1)])
        items.append(Item(text_of(letters, key), key, tuple(letters), *label, kind))

    for key in WORKLOAD_TABLES["decide-batch"]:
        if key == "readme":
            continue
        d = int(key[1:])
        ref = refs[key]
        fixers = perm_word_table(ref)
        for _ in range(N_RANDOM):
            add(key, random_word(rng, d, short_length(rng)), "random")
        for _ in range(N_STABILIZER):
            w = random_word(rng, d, short_length(rng))
            p = tuple(ref.word_perm(w, 1))
            back = tuple(sorted(range(d), key=lambda x: p[x]))
            w = reduce_letters(w + fixers[back])
            if w:
                add(key, w, "stabilizer")
        for _ in range(N_COMMUTATOR):
            u, v, s = (random_word(rng, d, rng.randint(1, 4)) for _ in range(3))
            w = commutator(commutator(u, v), s)
            if w:
                add(key, w, "commutator")
        rels = relators(ref, key)
        lift_words = lifts(ref) if d == 3 else []
        for n in range(N_IDENTITY):
            if lift_words and n % 3 == 0:
                w = lift_commutator(rng, ref, lift_words)
            else:
                w = relator_product(rng, d, rels, MAX_SHORT)
            add(key, w, "identity", (True, "construction"))

    ref = refs["readme"]
    rels = relators(ref, "readme")
    for n in range(N_README):
        if n % 2:
            add("readme", relator_product(rng, 3, rels, 40), "readme-identity",
                (True, "construction"))
        else:
            add("readme", random_word(rng, 3, rng.randint(1, 30)), "readme-random")
    rng.shuffle(items)
    return items


def long_words(seed: int, ref: Reference) -> list[Item]:
    """Arity-3 conjugates with long conjugators and long power words."""
    rng = random.Random(seed)
    key = "d3"
    items: list[Item] = []
    identity_core = power(xi(3, 1), 3)
    for n in CONJUGATOR_LENGTHS:
        # a nonidentity core that fixes level one and has zero letter
        # counts, so the decision reaches the cyclic normalization
        while True:
            r = commutator(random_word(rng, 3, rng.randint(2, 5)),
                           random_word(rng, 3, rng.randint(2, 5)))
            if r and ref.word_perm(r, 1) == [0, 1, 2] and ref.moved_vertex([(r, 1)]):
                break
        for core, label in ((r, False), (power(identity_core, rng.randint(1, 3)), True)):
            u = random_word(rng, 3, n)
            while u[0] in (core[0], -core[-1]):
                u = random_word(rng, 3, n)
            w = inverse(u) + core + u
            items.append(Item(text_of(w, key), key, w, label, "construction", "conjugate"))
    gens = names(key)
    # the generator pair is fixed by position: the search visits slots in
    # order, so the pair changes the work and must not vary with the seed
    for k, n in enumerate(POWER_EXPONENTS):
        i = k % 3 + 1
        j = i % 3 + 1
        blocks = [((i,), n), ((j,), -n), ((i,), -n), ((j,), n)]
        text = f"{gens[i - 1]}^{n} {gens[j - 1]}^{-n} {gens[i - 1]}^{-n} {gens[j - 1]}^{n}"
        raw = (i,) * n + (-j,) * n + (-i,) * n + (j,) * n
        items.append(Item(text, key, raw, *certify(ref, blocks, closure=False), "power"))
    # a fixed order, so that the heap grows the same way for every seed
    return items


@dataclass(frozen=True)
class Call:
    """One CLI call, the letters of the words it names, and its expected answer."""

    argv: tuple[str, ...]
    letters: int
    exit_code: int
    statuses: frozenset[str]
    source: str


def verify_suite(seed: int, ref4: Reference) -> list[Call]:
    """verify-paper at every arity, then the two free-semigroup sweeps.

    Only free-semigroup names its words: every positive word up to
    max-len, sum over l of l * d**l letters.  At arity 4 the sweep must
    fail: a_1 and a_3 act on disjoint subtrees, so a_1 a_3 = a_3 a_1, and
    the reference evaluator proves it before the label is used."""
    calls = [Call(("verify-paper", "--d", key[1:], "--seed", str(seed)), 0, 0,
                  frozenset({"PASS", "SKIP"}), "construction")
             for key in WORKLOAD_TABLES["verify-suite"]]
    if not ref4.closure_proves_identity(commutator((1,), (3,))):
        raise AssertionError("a_1 and a_3 do not commute at arity 4")
    sweeps = ((3, 6, 0, "PASS", "construction"), (4, 5, 1, "FAIL", "certificate"))
    for d, max_len, code, status, source in sweeps:
        letters = sum(l * d**l for l in range(1, max_len + 1))
        calls.append(Call(("free-semigroup", "--d", str(d), "--max-len", str(max_len)),
                          letters, code, frozenset({status}), source))
    return calls
