"""The built-in one-parameter family of tree automorphism groups.

For arity d >= 3 the group is generated by a_1..a_d where a_i swaps the
subtrees below i and i+1 (indices wrap around mod d) and reproduces
itself below them:

    a_i = ( ..., a_i @ slot i, a_{i+1} @ slot i+1, ... ) (i i+1)

with all other sections trivial.  At d = 3 the generators are also
named a, b, c.

catalog(d) exposes a named family of derived elements used throughout
the verifier and tests: spinal products whose sections reproduce them,
chain elements whose powers walk down the tree, first-level witnesses
for recovering every generator from inside the vertex-1 stabilizer,
commutator-based branching witnesses, and (at d = 3) lifts that place a
chosen element in the first slot with trivial siblings.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NameUnavailable
from .tree import Permutation, RecursionTable
from .words import Alphabet, Word, canonical_names, commutator, invert


def wrap(d: int, j: int) -> int:
    """Index arithmetic on 1..d (so wrap(d, d + 1) == 1)."""
    return (j - 1) % d + 1


def _aligner_factors(d: int, i: int) -> list[int]:
    """Indices j, in product order, of the balancers xi_j making gbr_i:
    xi_{i+1} xi_i xi_{i+3} xi_{i+2} ... xi_{i+d-3} (just xi_i at d = 3)."""
    order = []
    for m in range(0, d - 3, 2):
        order += [wrap(d, i + m + 1), wrap(d, i + m)]
    return order + [wrap(d, i + d - 3)]


def build_table(d: int) -> RecursionTable:
    """Recursion table of the arity-d member of the family."""
    alphabet = Alphabet(d)
    names = canonical_names(alphabet)
    sections = []
    perms = []
    for i in range(1, d + 1):
        succ = wrap(d, i + 1)
        row = [Word(alphabet)] * d
        row[i - 1] = Word(alphabet, (i,))
        row[succ - 1] = Word(alphabet, (succ,))
        sections.append(tuple(row))
        perms.append(Permutation.transposition(d, i, succ))
    return RecursionTable(alphabet, names, tuple(sections), tuple(perms))


def catalog(d: int) -> dict[str, Word]:
    """Named derived elements at arity d, as freely reduced words.

    Built once per arity per process; each call returns a fresh dict of
    the shared (immutable) words, so a caller may change its dict.

    Always present:
      g          product of all generators in ascending order
      h          the vertex-2 section of g**(d-1): a_2 a_1 a_d a_{d-1} .. a_3
      h_1..h_d   palindromic climbs a_1..a_i..a_2; suitable powers of each
                 stabilize level one and hand back the next one at vertex 1
      g_1..g_{d-1}  ascending prefixes a_1..a_i with the same property

    Odd arity only:
      h_frac     a_2 a_3 .. a_d a_1, a seed whose vertex-1 sections
                 regenerate the whole generating set
      s_1..s_{d-1}  vertex-1 stabilizer witnesses driving that recovery
      beta_1..beta_d  commutators [a_i, a_{i+1}]
      xi_1..xi_d      rooted (all sections trivial) balancing elements
      gbr_1..gbr_d    products of xi's used to align commutator supports

    Special cases:
      w4 (d = 4)            a nonempty identity word with nonzero
                            letter-count vector: the even-arity
                            counterexample to the count criterion
      rist_lift_ca (d = 3)  first-slot lift of c' a
      rist_lift_absq (d = 3)  first-slot lift of (a b)**2
    """
    return dict(_catalog(d))


@lru_cache(maxsize=None, typed=True)  # typed: catalog(3.0) stays an error
def _catalog(d: int) -> dict[str, Word]:
    alphabet = Alphabet(d)
    a = {i: Word(alphabet, (i,)) for i in range(1, d + 1)}
    entries: dict[str, Word] = {
        "g": Word(alphabet, tuple(range(1, d + 1))),
        "h": Word(alphabet, (2, 1, *range(d, 2, -1))),
    }
    for i in range(1, d + 1):
        entries[f"h_{i}"] = Word(alphabet, (*range(1, i + 1), *range(i - 1, 1, -1)))
    for i in range(1, d):
        entries[f"g_{i}"] = Word(alphabet, tuple(range(1, i + 1)))

    if d % 2 == 1:
        h_frac = Word(alphabet, (*range(2, d + 1), 1))
        entries["h_frac"] = h_frac

        s: dict[int, Word] = {}
        for i in range(2, d):
            conj = Word(alphabet, tuple(range(i - 1, 0, -1)))
            s[i] = (a[i] ** 2).conjugated(conj)
        even_run = Word(alphabet)
        for i in range(2, d, 2):
            even_run = even_run * s[i]
        s[1] = even_run * h_frac ** (-(d - 1)) * a[1] ** 2
        for i in range(1, d):
            entries[f"s_{i}"] = s[i]

        xi: dict[int, Word] = {}
        for i in range(1, d + 1):
            entries[f"beta_{i}"] = commutator(a[i], a[wrap(d, i + 1)])
        for i in range(1, d + 1):
            balance = commutator(a[wrap(d, i + 1)] ** 2, a[wrap(d, i + 2)])
            pair = commutator(a[i], a[wrap(d, i + 1)]) * commutator(
                a[wrap(d, i + 1)], a[wrap(d, i + 2)]
            )
            xi[i] = balance * invert(pair)
            entries[f"xi_{i}"] = xi[i]
        for i in range(1, d + 1):
            aligned = Word(alphabet)
            for j in _aligner_factors(d, i):
                aligned = aligned * xi[j]
            entries[f"gbr_{i}"] = aligned

    if d == 4:
        entries["w4"] = Word(alphabet, (2, 1, -3, 2, -1, 4, -2, -1))

    if d == 3:
        lift_seed = invert(a[3]) * invert(a[2]) * a[1] * a[3]
        entries["rist_lift_ca"] = lift_seed * entries["xi_1"]
        entries["rist_lift_absq"] = (
            a[1].conjugated(a[2]) * entries["xi_1"] ** -2
        ) ** 2
    return entries


def catalog_word(d: int, name: str) -> Word:
    """Look up one catalog entry; unknown names raise NameUnavailable."""
    entries = catalog(d)
    if name not in entries:
        raise NameUnavailable(
            f"no element named {name!r} at arity {d}; "
            f"available: {', '.join(entries)}"
        )
    return entries[name]
