"""Actions of words on the d-regular rooted tree.

A recursion table assigns every generator a d-tuple of section words and
a permutation of {1..d}.  Vertex images, sections and portraits are
computed by folding letters through that data; a word's action on a whole
level (level_permutation, vertex_orbit) composes the table's level rows.

Composition convention: words act letter by letter, FIRST letter FIRST.
Consequently ``(uv)(x) = v(u(x))`` and permutation products compose left
to right: ``(p * q)(x) == q(p(x))``.  This is the single most
error-prone convention in the package; the regression tests pin it.

Section rules used by the fold, for a single letter l and slot x:
``l|_x`` is read from the table when l is positive, and for an inverse
letter ``l = g^-1`` the section is ``(g|_{g^-1(x)})^-1``.  For a product,
``(uv)|_x = u|_x * v|_{u(x)}``, which is exactly the fold “accumulate the
section, then advance the slot”.
"""

from __future__ import annotations

import re
from functools import cache, reduce
from itertools import product
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import AlphabetMismatch, BadVertex, LevelTooLarge, MalformedToken
from .words import Alphabet, Word, _Value, _reduced, _set, parse_word, format_word

Vertex = tuple[int, ...]

DEFAULT_VERTEX_CAP = 10**6

# level 1, which every table keeps, numbers its vertices by bytes, so that
# a word's action there is composed by bytes.translate
_MAX_DEGREE = 256
# The identity search tests each node on the deepest level with at most
# this many vertices: a translate costs about 100 ns up to 27 bytes and
# 460 ns at 243.
_CHECK_VERTICES = 32


class Permutation(_Value):
    """A bijection of {1..d}, stored as the tuple of images of 1..d."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        _set(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Compose the given cycles left to right (first cycle acts first)."""
        result = cls.identity(n)
        for cycle in cycles:
            images = list(range(1, n + 1))
            for pos, x in enumerate(cycle):
                images[x - 1] = cycle[(pos + 1) % len(cycle)]
            result = result * cls(tuple(images))
        return result

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (left-to-right, like words)."""
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return Permutation(tuple(images))

    @property
    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of length >= 2, each starting at its least element."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cycle.append(x)
                seen[x - 1] = True
                x = self(x)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)

    @classmethod
    def from_cycle_string(cls, n: int, text: str) -> "Permutation":
        """Parse e.g. ``(1 2)(3 4)`` or ``()``; entries are space separated."""
        if not re.fullmatch(r"(\([0-9 ]*\)\s*)+", text.strip()):
            raise MalformedToken(f"cannot read cycle notation {text!r}")
        cycles = []
        for group in re.findall(r"\(([^()]*)\)", text):
            entries = [int(tok) for tok in group.split()]
            if any(x < 1 or x > n for x in entries):
                raise MalformedToken(f"cycle entry outside 1..{n} in {text!r}")
            if len(set(entries)) != len(entries):
                raise MalformedToken(f"repeated entry within a cycle in {text!r}")
            if len(entries) > 1:
                cycles.append(entries)
        return cls.from_cycles(n, cycles)


class WreathRecursion(_Value):
    """First-level decomposition of a word: d section words and the root
    permutation.  All sections empty with identity permutation means the
    word is the identity element (and the converse holds element-wise)."""

    __slots__ = ("sections", "perm")

    def __init__(self, sections: tuple[Word, ...], perm: Permutation) -> None:
        _set(self, "sections", sections)
        _set(self, "perm", perm)


class Portrait(_Value):
    """Finite-depth rendering: every node carries the permutation of its
    word; leaves also carry the residual section word (sections need not
    die out at any depth, so portraits stop at the requested depth)."""

    __slots__ = ("perm", "children", "residual")

    def __init__(self, perm: Permutation, children: tuple[Portrait, ...] = (),
                 residual: Word | None = None) -> None:
        _set(self, "perm", perm)
        _set(self, "children", children)
        _set(self, "residual", residual)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RecursionTable(_Value):
    """Per-generator wreath recursions defining a self-similar action."""

    # _steps and _rows are filled in __init__.  _steps[l][x] is (section
    # letters of l at x, image of x), indexed by slot (entry 0 unused).
    # _rows[j - 1] is level j's _LevelRows, made by _rows_of: the level's
    # vertices are numbered 0.. in lexicographic order, [l] is letter l's
    # row, [-i] the inverse letter's and [0] the identity.  The table keeps
    # the levels with at most _CHECK_VERTICES vertices, and level 1;
    # _level builds any deeper one.
    __slots__ = ("alphabet", "names", "sections", "perms", "_steps", "_rows")

    def __init__(self, alphabet: Alphabet, names: tuple[str, ...],
                 sections: tuple[tuple[Word, ...], ...],
                 perms: tuple[Permutation, ...]) -> None:
        d = alphabet.d
        if d > _MAX_DEGREE:
            raise MalformedToken(
                f"degree {d} exceeds {_MAX_DEGREE}: a level's vertex is a byte"
            )
        if not (len(names) == len(sections) == len(perms) == d):
            raise MalformedToken(f"table must have exactly {d} generator rows")
        if len(set(names)) != d or "e" in names:
            raise MalformedToken("generator names must be unique and not 'e'")
        for row in sections:
            if len(row) != d:
                raise MalformedToken(f"each generator needs {d} section words")
            for w in row:
                if w.alphabet is not alphabet and w.alphabet != alphabet:
                    raise MalformedToken("section word over a different alphabet")
        for p in perms:
            if p.degree != d:
                raise MalformedToken(f"permutation degree {p.degree} != {d}")
        steps: dict[int, tuple] = {}
        for i in range(1, d + 1):
            row = sections[i - 1]
            images = (0,) + perms[i - 1].images
            pre = (0,) + perms[i - 1].inverse().images
            steps[i] = ((), *((row[x - 1].letters, images[x]) for x in range(1, d + 1)))
            steps[-i] = ((), *(
                (tuple(-l for l in reversed(row[pre[x] - 1].letters)), pre[x])
                for x in range(1, d + 1)
            ))
        # kept: level 1 and each next one with at most _CHECK_VERTICES vertices
        rows = [_rows_of([[y - 1 for _, y in steps[i][1:]] for i in range(1, d + 1)])]
        while d ** (len(rows) + 1) <= _CHECK_VERTICES:
            rows.append(_next_level(steps, rows[-1], d))
        values = (alphabet, names, sections, perms, steps, tuple(rows))
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)


def _next_level(steps: dict, above: "_LevelRows", d: int) -> "_LevelRows":
    """Every letter's action on the level under the one of `above`.

    A generator maps the vertex x v to l(x) l|_x(v), so its row is, slot
    by slot, the action of its section on the level above shifted into
    the block of its image; an inverse row is the inverse permutation."""
    m = len(above[0])  # vertices below each first-level slot
    # section letters -> their action on the level above
    sections = {sec: above[0] for i in range(1, d + 1) for sec, _ in steps[i][1:]}
    for sec in sections:
        for l in sec:
            sections[sec] = sections[sec].translate(above[l])
    return _rows_of([[(y - 1) * m + v for sec, y in steps[i][1:] for v in sections[sec]]
                     for i in range(1, d + 1)])


def _rows_of(actions: list) -> "_LevelRows":
    """A level's rows from its generators' actions (vertex images): up to
    256 vertices, as many as a byte numbers, 256-byte bytes.translate
    tables whose larger bytes map to themselves, past that _array_row()s.
    Entry 0 is the identity action, which composes by .translate too."""
    n = len(actions[0])
    if n <= 256:
        ident = bytes(range(n))
        rows = _LevelRows({0: ident})
        for i, action in enumerate(map(bytes, actions), start=1):
            rows[i] = bytes.maketrans(ident, action)
            rows[-i] = bytes.maketrans(action, ident)
        return rows
    row = _array_row()
    rows = _LevelRows({0: row("I", range(n))})
    for i, action in enumerate(actions, start=1):
        rows[i] = row("I", action)
        rows[-i] = inverse = row("I", action)
        for v, y in enumerate(action):
            inverse[y] = v
    return rows


@cache
def _array_row() -> type:
    """The row type of levels with more than 256 vertices, made on first
    use: importing array adds about 1 ms to a process that needs none."""
    from array import array

    class _ArrayRow(array):
        """Every vertex's image on a level past 256 vertices."""

        __slots__ = ()

        def translate(self, row: "_ArrayRow") -> "_ArrayRow":
            """This action, then row's, as bytes.translate composes."""
            return _ArrayRow("I", itemgetter(*self)(row))

    return _ArrayRow


def _level(table: "RecursionTable", k: int) -> "_LevelRows":
    """Every letter's action on level k >= 1: the table's own rows on the
    levels it keeps, and below those, rows built for this call alone."""
    _check_level_size(table.alphabet.d, k)
    rows = table._rows[min(k, len(table._rows)) - 1]
    for _ in range(len(table._rows), k):
        rows = _next_level(table._steps, rows, table.alphabet.d)
    return rows


class _LevelRows(dict):
    """One level's rows: letter l (0 for the identity) -> its action, and
    a letter pair (a, b) -> the action of a then b, composed on first use
    and kept, so a level holds at most (2d)**2 pair rows."""

    def __missing__(self, pair: tuple[int, int]) -> bytes:
        row = self[pair] = self[pair[0]].translate(self[pair[1]])
        return row


def _compose(rows: _LevelRows, letters: Sequence[int]) -> bytes:
    """The letters' action on a level of byte rows, a translate per pair."""
    it = iter(letters)
    action = reduce(bytes.translate, map(rows.__getitem__, zip(it, it)), rows[0])
    return action.translate(rows[letters[-1]]) if len(letters) & 1 else action


# ---------------------------------------------------------------------------
# vertices


def check_vertex(v: Sequence[int], d: int) -> None:
    for x in v:
        if not 1 <= x <= d:
            raise BadVertex(f"vertex entry {x} outside 1..{d}")


def parse_vertex(text: str, d: int) -> Vertex:
    """Digit string over 1..d (entries separated by "." at d >= 10); the
    empty string is the root."""
    text, sep = text.strip(), "." if d >= 10 else ""
    out = []
    for entry in text.split(sep) if sep and text else text:
        if not entry.isdecimal() or not 1 <= int(entry) <= d:
            kind = "entry" if sep else "digit"
            raise BadVertex(f"vertex {kind} {entry!r} outside 1..{d}")
        out.append(int(entry))
    return tuple(out)


def format_vertex(v: Vertex, d: int) -> str:
    return ("." if d >= 10 else "").join(map(str, v))


# ---------------------------------------------------------------------------
# the letter fold


def _check_alphabet(table: RecursionTable, w: Word) -> None:
    """Raise AlphabetMismatch unless w is a word over the table's alphabet."""
    if w.alphabet is not table.alphabet and w.alphabet != table.alphabet:
        raise AlphabetMismatch(
            f"word over arity {w.alphabet.d} given to an arity-{table.alphabet.d} table"
        )


def _fold_once(table: RecursionTable, letters: tuple[int, ...], x: int):
    """One level of the fold: return (section letters at x, image of x)."""
    steps = table._steps
    # the sentinel 0 never cancels a letter, so the stack needs no
    # emptiness test
    out = [0]
    pop, push = out.pop, out.append
    cur = x
    for l in letters:
        sec, cur = steps[l][cur]
        for s in sec:
            if out[-1] == -s:
                pop()
            else:
                push(s)
    return tuple(out[1:]), cur


def section(table: RecursionTable, w: Word, v: Sequence[int]) -> Word:
    """The section of w at vertex v (freely reduced)."""
    _check_alphabet(table, w)
    check_vertex(v, table.alphabet.d)
    letters = w.letters
    for x in v:
        letters, _ = _fold_once(table, letters, x)
    return _reduced(table.alphabet, letters)


def act_vertex(table: RecursionTable, w: Word, v: Sequence[int]) -> Vertex:
    """The image w(v); length preserving."""
    _check_alphabet(table, w)
    check_vertex(v, table.alphabet.d)
    letters = w.letters
    out = []
    for x in v:
        if not letters:
            # the empty section fixes the rest of the vertex
            break
        letters, image = _fold_once(table, letters, x)
        out.append(image)
    return (*out, *v[len(out):])


def word_permutation(table: RecursionTable, w: Word) -> Permutation:
    """The permutation induced on the first level."""
    _check_alphabet(table, w)
    return Permutation(tuple(y + 1 for y in _compose(table._rows[0], w.letters)))


def wreath(table: RecursionTable, w: Word) -> WreathRecursion:
    """All first-level sections together with the root permutation."""
    _check_alphabet(table, w)
    folds = [_fold_once(table, w.letters, x) for x in table.alphabet.indices()]
    return WreathRecursion(
        tuple(_reduced(table.alphabet, sec) for sec, _ in folds),
        Permutation(tuple(image for _, image in folds)),
    )


def _check_level_size(d: int, k: int) -> None:
    """Refuse a negative level, or one whose d**k vertices exceed
    DEFAULT_VERTEX_CAP.  The product stops once it passes the cap, so a
    huge k costs a few steps."""
    if k < 0:
        raise BadVertex(f"level must be nonnegative, got {k}")
    size = 1
    for _ in range(k):
        size *= d
        if size > DEFAULT_VERTEX_CAP:
            raise LevelTooLarge(
                f"{d}**{k} vertices exceed the cap of {DEFAULT_VERTEX_CAP}"
            )


def level_permutation(table: RecursionTable, w: Word, k: int) -> tuple[Vertex, ...]:
    """Images of every level-k vertex in lexicographic order.

    With j the deepest level the table keeps, or k if that is less, the
    word is folded k - j levels down, and each section's action on level
    j is composed from the table's rows."""
    _check_alphabet(table, w)
    d = table.alphabet.d
    _check_level_size(d, k)
    j = min(k, len(table._rows))
    if not j:
        return ((),)
    nodes = [((), w.letters)]  # (image of a vertex, section there), in order
    for _ in range(k - j):
        folds = [(image, _fold_once(table, letters, x))
                 for image, letters in nodes for x in range(1, d + 1)]
        nodes = [(image + (y,), sec) for image, (sec, y) in folds]
    rows, tail = table._rows[j - 1], list(product(range(1, d + 1), repeat=j))
    return tuple(image + tail[y] for image, sec in nodes for y in _compose(rows, sec))


def portrait(table: RecursionTable, w: Word, depth: int) -> Portrait:
    """Permutations down to the given depth; leaves keep their residual."""
    _check_alphabet(table, w)
    d = table.alphabet.d
    _check_level_size(d, depth)

    def build(u: Word, remaining: int) -> Portrait:
        if remaining == 0:
            return Portrait(word_permutation(table, u), residual=u)
        wr = wreath(table, u)
        return Portrait(wr.perm, tuple(build(s, remaining - 1) for s in wr.sections))

    return build(w, depth)


def format_portrait(p: Portrait, names: tuple[str, ...] | None = None) -> str:
    """Indented text rendering, one node per line."""
    lines: list[str] = []

    def emit(node: Portrait, label: str, indent: int) -> None:
        prefix = "  " * indent + (f"{label}: " if label else "")
        if node.is_leaf:
            lines.append(f"{prefix}{node.perm} {format_word(node.residual, names)}")
        else:
            lines.append(f"{prefix}{node.perm}")
            for slot, child in enumerate(node.children, start=1):
                emit(child, str(slot), indent + 1)

    emit(p, "", 0)
    return "\n".join(lines)


def vertex_orbit(table: RecursionTable, v: Vertex) -> set[Vertex]:
    """Closure of {v} under the generators, searched over vertex numbers
    with one row lookup per generator.  A level is finite, so a set
    closed under a permutation is closed under its inverse too."""
    d = table.alphabet.d
    _check_level_size(d, len(v))
    check_vertex(v, d)
    if not v:
        return {v}
    rows = _level(table, len(v))
    moves = [rows[i] for i in range(1, d + 1)]
    level = list(product(range(1, d + 1), repeat=len(v)))
    frontier = {level.index(tuple(v))}
    seen = set(frontier)
    while frontier:
        frontier = {row[u] for row in moves for u in frontier} - seen
        seen |= frontier
    return {level[u] for u in seen}


# ---------------------------------------------------------------------------
# table file format


def format_table(table: RecursionTable) -> str:
    """One line per generator: ``name = (w1, ..., wd) (cycles)``."""
    lines = []
    for i, name in enumerate(table.names):
        row = ", ".join(format_word(w, table.names) for w in table.sections[i])
        lines.append(f"{name} = ({row}) {table.perms[i]}")
    return "\n".join(lines) + "\n"


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def load_table(text: str) -> RecursionTable:
    """Parse the line format produced by format_table.

    Blank lines and ``#`` comments, whole-line or trailing, are ignored.
    The arity is the number of generator rows; every section word may only
    use the names declared by the table itself (self-similarity is
    enforced by construction).
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, rhs = line.partition("=")
        if not eq:
            raise MalformedToken(f"missing '=' in table line {raw!r}")
        name = name.strip()
        if not _NAME_RE.fullmatch(name) or name == "e":
            raise MalformedToken(f"bad generator name {name!r}")
        rhs = rhs.strip()
        if not rhs.startswith("(") or ")" not in rhs:
            raise MalformedToken(f"missing section list in table line {raw!r}")
        close = rhs.index(")")
        section_texts = [part.strip() for part in rhs[1:close].split(",")]
        cycle_text = rhs[close + 1 :].strip()
        rows.append((name, section_texts, cycle_text))
    d = len(rows)
    names = tuple(r[0] for r in rows)
    if len(set(names)) != d:
        raise MalformedToken("duplicate generator names in table")
    alphabet = Alphabet(d)
    name_map = {name: i for i, name in enumerate(names, start=1)}
    sections = []
    perms = []
    for name, section_texts, cycle_text in rows:
        if len(section_texts) != d:
            raise MalformedToken(
                f"generator {name!r} has {len(section_texts)} sections, needs {d}"
            )
        sections.append(
            tuple(parse_word(t, alphabet, name_map) for t in section_texts)
        )
        perms.append(Permutation.from_cycle_string(d, cycle_text))
    return RecursionTable(alphabet, names, tuple(sections), tuple(perms))


def load_table_file(path: str) -> RecursionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return load_table(fh.read())
