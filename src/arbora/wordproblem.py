"""Deciding whether a word acts trivially on the whole tree.

The decision runs as a branching search over section words.  At every
node it tries cheap certificates of nontriviality before descending:

  1. the empty word is the identity;
  2. a nontrivial first-level permutation is a certificate;
  3. (odd arity, optional) a nonzero per-generator signed letter count
     is a certificate — at odd arity those counts are invariants of the
     element, at even arity they are not, so this shortcut is gated;
  4. a word whose letters all share one sign is never the identity
     (positive words generate a free semigroup, and conjugates of such
     words inherit nontriviality), so after cyclic normalization a
     one-signed core is a certificate;
  5. otherwise the word stabilizes the first level and it is the
     identity iff all d of its sections are.

Sections of a freely reduced word never exceed its length, and the
normalization in step 4 makes progress on the words the recursion can
actually loop on, so the search terminates on this family's tables.
For user-supplied tables termination is not guaranteed; the node budget
(default 10**7) turns runaway searches into NodeBudgetExceeded.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import NodeBudgetExceeded, StrategyMismatch
from .tree import RecursionTable, _fold_once, _root_images, level_permutation
from .words import SignPure, Word, _reduced, concat, cyclic_normalize, invert

DEFAULT_MAX_NODES = 10**7

STRATEGIES = ("auto", "generic", "odd_shortcut")


@dataclass(frozen=True)
class Decision:
    """Outcome of one identity check plus search statistics."""

    is_identity: bool
    nodes_explored: int
    max_depth: int
    shortcut_hits: int


class OrderResult:
    """Base class for order_probe outcomes."""


@dataclass(frozen=True)
class Finite(OrderResult):
    order: int


@dataclass(frozen=True)
class UnknownBeyond(OrderResult):
    bound: int


def _exponents_nonzero(letters: tuple[int, ...], d: int) -> bool:
    counts = [0] * d
    for l in letters:
        counts[abs(l) - 1] += 1 if l > 0 else -1
    return any(counts)


def _sign_pure(letters: tuple[int, ...]) -> bool:
    return all(l > 0 for l in letters) or all(l < 0 for l in letters)


def is_identity(
    table: RecursionTable,
    w: Word,
    strategy: str = "auto",
    max_nodes: int | None = None,
) -> Decision:
    """Decide whether w is the identity element of the table's group."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    d = table.alphabet.d
    if strategy == "odd_shortcut" and d % 2 == 0:
        raise StrategyMismatch(
            f"the signed-count shortcut is only sound at odd arity, got d={d}"
        )
    use_shortcut = strategy == "odd_shortcut" or (strategy == "auto" and d % 2 == 1)
    budget = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    if budget < 1:
        raise ValueError(f"max_nodes must be positive, got {budget}")

    stats = {"nodes": 0, "depth": 0, "hits": 0}
    memo: dict[tuple[int, ...], bool] = {}
    alphabet = table.alphabet
    fixed = tuple(alphabet.indices())

    def decide(letters: tuple[int, ...], depth: int) -> bool:
        stats["nodes"] += 1
        if stats["nodes"] > budget:
            raise NodeBudgetExceeded(
                f"identity search exceeded {budget} nodes"
            )
        if depth > stats["depth"]:
            stats["depth"] = depth
        if not letters:
            return True
        cached = memo.get(letters)
        if cached is not None:
            return cached
        if _root_images(table, letters) != fixed:
            memo[letters] = False
            return False
        if use_shortcut and _exponents_nonzero(letters, d):
            stats["hits"] += 1
            memo[letters] = False
            return False
        if _sign_pure(letters):
            memo[letters] = False
            return False
        normalized = cyclic_normalize(_reduced(alphabet, letters))
        if isinstance(normalized, SignPure):
            # conjugate of a nonempty one-signed word: never the identity
            memo[letters] = False
            return False
        result = True
        for x in range(1, d + 1):
            sec, _ = _fold_once(table, normalized.letters, x)
            if sec and not decide(sec, depth + 1):
                result = False
                break
        memo[letters] = result
        return result

    limit = sys.getrecursionlimit()
    needed = len(w) * 3 + 100
    if limit < needed:
        sys.setrecursionlimit(needed)
    try:
        verdict = decide(w.letters, 1)
    except RecursionError:
        # only reachable on user tables whose sections do not shrink
        raise NodeBudgetExceeded(
            "section recursion exhausted the stack before reaching a "
            "decision; the table may not admit a terminating search"
        ) from None
    finally:
        sys.setrecursionlimit(limit)
    return Decision(verdict, stats["nodes"], stats["depth"], stats["hits"])


def are_equal(
    table: RecursionTable,
    u: Word,
    v: Word,
    strategy: str = "auto",
    max_nodes: int | None = None,
) -> bool:
    """Whether u and v define the same tree automorphism."""
    return is_identity(table, concat(u, invert(v)), strategy, max_nodes).is_identity


def in_level_stabilizer(table: RecursionTable, w: Word, k: int) -> bool:
    """Whether w fixes every vertex of level k (hence all levels <= k)."""
    images = level_permutation(table, w, k)
    d = table.alphabet.d
    expected = _lex_vertices(d, k)
    return images == expected


def _lex_vertices(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(k):
        out = [v + (x,) for v in out for x in range(1, d + 1)]
    return tuple(out)


def order_probe(
    table: RecursionTable,
    w: Word,
    bound: int,
    strategy: str = "auto",
    max_nodes: int | None = None,
) -> OrderResult:
    """Smallest n <= bound with w**n trivial, else UnknownBeyond(bound)."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    power = Word(table.alphabet, ())
    for n in range(1, bound + 1):
        power = concat(power, w)
        if is_identity(table, power, strategy, max_nodes).is_identity:
            return Finite(n)
    return UnknownBeyond(bound)
