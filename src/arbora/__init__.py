"""Self-similar groups acting on the d-regular rooted tree.

The library models group elements as freely reduced words over d
generators, each generator given by a wreath recursion (d section words
plus a permutation of the first level).  On top of that it provides the
vertex action, sections at arbitrary vertices, portraits, a section
search that decides the word problem, a catalog of derived elements,
and a verifier that re-derives the identities the whole construction
rests on.
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
from .verifier import (
    CHECK_IDS,
    Report,
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
from .wordproblem import (
    DEFAULT_MAX_NODES,
    Decision,
    Finite,
    OrderResult,
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
