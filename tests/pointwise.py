"""A word's action on a level, evaluated vertex by vertex with act_vertex.

act_vertex folds the word through the table's recursion and never reads
the level rows that is_identity, level_permutation and the free-semigroup
sweep compose, so tests judge those three against this oracle."""

import itertools

from arbora.tree import act_vertex


def level_images(table, w, k):
    """Images of every level-k vertex in lexicographic order."""
    d = table.alphabet.d
    return tuple(
        act_vertex(table, w, v) for v in itertools.product(range(1, d + 1), repeat=k)
    )
