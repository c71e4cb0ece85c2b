"""Deciding whether a word acts trivially on the whole tree.

The decision explores the section words reachable from the input, depth
first on an explicit stack, keeping a set of the cyclically normalized
cores it has already expanded:

  1. a reachable section that moves a vertex is a certificate of
     nontriviality.  Each node is tested on the deepest level with at
     most 32 vertices (level 3 at d = 3, 2 at d = 4..5, 1 at d >= 6),
     after its matched outer letters are peeled: the core left is a
     conjugate, which moves a vertex exactly when the section does, so
     u' r u costs only r.  Its action there is composed from the table's
     rows, one bytes.translate per letter pair, so a word that first
     moves a vertex on that level stops at node 1;
  2. otherwise the section is cyclically normalized, which rotates a
     core holding letters of both signs to end in an inverse-then-plain
     pair.  A core that does not end so has letters of one sign only and
     is taken as nontrivial.  This one-sign rule rests on a claim that is
     not proved: that no nonempty positive word of the built-in family
     acts trivially (conjugates and inverses would inherit it).  It is no
     free-semigroup theorem, as at d >= 4 distant generators commute
     (a1 a3 = a3 a1), and at d = 3 freeness is checked only up to a
     length.  On other tables (the README's example, where y acts
     trivially) the rule misjudges.  ROADMAP.md item 1 deletes it;
  3. otherwise the section's normalized core is expanded once: its d
     sections are pushed, each folded only when it is popped, and empty
     sections are skipped;
  4. an exhausted stack means every reachable section fixes the first
     level, and so the word is the identity.  Testing a level deeper than
     the first changes no verdict, only how soon a nontrivial word is
     answered: a moved vertex on any level proves nontriviality, and a
     trivial word passes every test.

Cyclic normalization is a conjugation, and conjugates of level
stabilizer elements stabilize the same level, so skipping a core already
seen loses nothing and step 4 is sound on any table.  When every
generator section has at most one letter, sections never get longer than
the word and the reachable set is finite, so the search terminates; this
covers the built-in family.  On other tables the node budget (default
10**7) turns a runaway search into NodeBudgetExceeded.
"""

from __future__ import annotations

from .errors import NodeBudgetExceeded
from .tree import RecursionTable, _check_alphabet, _compose, _fold_once
from .words import Word, _Value, _cyclic_core, _reduced, _set
from .words import concat, cyclic_normalize, invert

DEFAULT_MAX_NODES = 10**7


class Decision(_Value):
    """Outcome of one identity check plus search statistics."""

    __slots__ = ("is_identity", "nodes_explored", "max_depth")

    def __init__(self, is_identity: bool, nodes_explored: int, max_depth: int) -> None:
        _set(self, "is_identity", is_identity)
        _set(self, "nodes_explored", nodes_explored)
        _set(self, "max_depth", max_depth)

    # Not a field: the benchmark's --trace output (bench/run.py) still
    # reads this counter and its tests require a number.  No shortcut is
    # left, so it is always zero; delete it once the benchmark stops
    # reading it.
    shortcut_hits = 0


class Finite(_Value):
    __slots__ = ("order",)

    def __init__(self, order: int) -> None:
        _set(self, "order", order)


class UnknownBeyond(_Value):
    __slots__ = ("bound",)

    def __init__(self, bound: int) -> None:
        _set(self, "bound", bound)


def is_identity(
    table: RecursionTable, w: Word, max_nodes: int | None = None
) -> Decision:
    """Decide whether w is the identity element of the table's group."""
    _check_alphabet(table, w)
    alphabet = table.alphabet
    budget = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    if budget < 1:
        raise ValueError(f"max_nodes must be positive, got {budget}")
    if not w.letters:
        return Decision(True, 1, 1)
    d = alphabet.d
    steps, rows = table._steps, table._rows[-1]
    fixed = rows[0]
    nodes = max_depth = 0
    seen: set[tuple[int, ...]] = set()
    # (key, slot, depth): the section of key at slot, folded when popped;
    # slot 0 stands for the word itself
    stack = [(w.letters, 0, 1)]
    while stack:
        key, x, depth = stack.pop()
        letters = _fold_once(steps, key, x)[0] if x else key
        if not letters:
            continue
        nodes += 1
        if nodes > budget:
            raise NodeBudgetExceeded(f"identity search exceeded {budget} nodes")
        if depth > max_depth:
            max_depth = depth
        # A translate per two letters of the core, far less than the fold;
        # most words stop here at node 1.
        core = _cyclic_core(letters)
        if _compose(rows, core) != fixed:
            return Decision(False, nodes, max_depth)
        key = cyclic_normalize(_reduced(alphabet, core)).letters
        if not (len(key) > 1 and key[-2] < 0 < key[-1]):
            return Decision(False, nodes, max_depth)
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


def order_probe(
    table: RecursionTable,
    w: Word,
    bound: int,
    max_nodes: int | None = None,
) -> Finite | UnknownBeyond:
    """Smallest n <= bound with w**n trivial, else UnknownBeyond(bound)."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    power = Word(table.alphabet, ())
    for n in range(1, bound + 1):
        power = concat(power, w)
        if is_identity(table, power, max_nodes).is_identity:
            return Finite(n)
    return UnknownBeyond(bound)
