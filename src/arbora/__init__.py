"""Self-similar groups acting on the d-regular rooted tree.

The library models group elements as freely reduced words over d
generators, each generator given by a wreath recursion (d section words
plus a permutation of the first level).  On top of that it provides the
vertex action, sections at arbitrary vertices, portraits, a section
search that decides the word problem, and a catalog of derived elements.

The verifier, which re-derives the identities the construction rests
on, is imported as ``arbora.verifier``: ``import arbora`` leaves it out.
"""

from .errors import (
    AlphabetMismatch,
    ArboraError,
    ArityTooSmall,
    BadVertex,
    BudgetExceeded,
    EmptyWord,
    LevelTooLarge,
    MalformedToken,
    NameUnavailable,
    NodeBudgetExceeded,
    UnknownGenerator,
)
from .family import build_table, catalog, catalog_word, wrap
from .tree import (
    DEFAULT_VERTEX_CAP,
    Permutation,
    Portrait,
    RecursionTable,
    Vertex,
    WreathRecursion,
    act_vertex,
    format_portrait,
    format_table,
    format_vertex,
    level_permutation,
    load_table,
    load_table_file,
    parse_vertex,
    portrait,
    section,
    vertex_orbit,
    word_permutation,
    wreath,
)
from .wordproblem import (
    DEFAULT_MAX_NODES,
    Decision,
    Finite,
    UnknownBeyond,
    are_equal,
    is_identity,
    order_probe,
)
from .words import (
    Alphabet,
    Word,
    canonical_names,
    commutator,
    concat,
    cyclic_normalize,
    exponent_vector,
    format_word,
    invert,
    parse_word,
)

__version__ = "0.1.0"
