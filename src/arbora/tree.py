"""Actions of words on the d-regular rooted tree.

A recursion table assigns every generator a d-tuple of section words and
a permutation of {1..d}.  Vertex images, sections and portraits are
computed by folding letters through that data.  A word's action on a
whole level (level_permutation, a level row, vertex_orbit) follows by one
rule, _images: fold the word down to a shallower level whose rows are
kept, and compose each section there.  Rows are made on first use.

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
        return cls.from_cycles(n, [(i, j)])

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Compose the given cycles left to right (first cycle acts first).
        Raises ValueError on an entry that is not an int in 1..n or a point
        repeated within one cycle; a cycle of fewer than two points is the
        identity."""
        images = list(range(1, n + 1))
        for cycle in cycles:
            step: dict[int, int] = {}
            for x, y in zip(cycle, (*cycle[1:], *cycle[:1])):
                if type(x) is not int or not 1 <= x <= n:
                    raise ValueError(f"cycle entry outside 1..{n}")
                if x in step:
                    raise ValueError("repeated entry within a cycle")
                step[x] = y
            images = [step.get(y, y) for y in images]
        return _permutation(tuple(images))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (left-to-right, like words)."""
        if len(other.images) != len(self.images):
            raise ValueError(f"degrees {self.degree} and {other.degree} differ")
        return _permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return _permutation(tuple(images))

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
        groups = re.findall(r"\(([^()]*)\)", text)
        try:
            return cls.from_cycles(n, [[int(x) for x in g.split()] for g in groups])
        except ValueError as err:
            raise MalformedToken(f"{err} in {text!r}") from None


def _permutation(images: tuple[int, ...]) -> Permutation:
    """A Permutation from images already known to be a bijection, such as
    a product or inverse of bijections: skips the public check."""
    p = object.__new__(Permutation)
    _set(p, "images", images)
    return p


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
    # _rows[j - 1] is level j's _LevelRows, which holds only the identity
    # row [0] until a letter's row [l] (or [-i]) is asked for: the level's
    # vertices are numbered 0.. in lexicographic order.  The table keeps
    # the levels with at most _CHECK_VERTICES vertices, and level 1;
    # _level makes any deeper one.
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
        for name, row in zip(names, sections):
            if len(row) != d:
                raise MalformedToken(
                    f"generator {name!r} has {len(row)} sections, needs {d}"
                )
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
        rows = [_LevelRows(steps, (), 1)]
        while d ** (len(rows) + 1) <= _CHECK_VERTICES:
            rows.append(_LevelRows(steps, tuple(rows), len(rows) + 1))
        values = (alphabet, names, sections, perms, steps, tuple(rows))
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)


class _LevelRows(dict):
    """One level's rows, each made on first use and kept: letter l (0 for
    the identity) -> its action, and a letter pair (a, b) -> the action of
    a then b, so a level holds at most (2d)**2 pair rows.  A letter row
    is _images of the letter on the levels `above`, all shallower than
    this one.  Up to 256 vertices, as many as a byte numbers, a letter
    row is a 256-byte bytes.translate table whose larger bytes map to
    themselves; past that, an _array_row().  The identity row is the
    level's own vertices, which compose by .translate too."""

    __slots__ = ("steps", "above", "k")

    def __init__(self, steps: dict, above: tuple, k: int) -> None:
        n = (len(steps[1]) - 1) ** k
        super().__init__({0: bytes(range(n)) if n <= 256 else _array_row()("I", range(n))})
        self.steps, self.above, self.k = steps, above, k

    def __missing__(self, key: int | tuple[int, int]) -> bytes:
        if type(key) is tuple:
            row = self[key[0]].translate(self[key[1]])
        else:
            action = _images(self.steps, self.above, (key,), self.k)
            row = (bytes.maketrans(self[0], bytes(action)) if len(action) <= 256
                   else _array_row()("I", action))
        self[key] = row
        return row


def _images(steps: dict, kept: tuple, letters: tuple[int, ...], k: int) -> list[int]:
    """The letters' action on level k >= 0, as the image of each vertex
    number.  With j the deepest level in `kept` (levels 1, 2, ...), or k
    if that is less, the letters are folded k - j levels down and each
    section's action on level j is composed from kept[j - 1]'s rows."""
    d, j = len(steps[1]) - 1, min(k, len(kept))
    nodes = [(0, letters)]  # (number of a vertex's image, section there)
    for _ in range(k - j):
        folds = [(image, _fold_once(steps, sec, x)) for image, sec in nodes
                 for x in range(1, d + 1)]
        nodes = [(image * d + y - 1, sec) for image, (sec, y) in folds]
    if not j:
        return [image for image, _ in nodes]
    rows = kept[j - 1]
    m = len(rows[0])
    return [image * m + y for image, sec in nodes for y in _compose(rows, sec)]


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


def _level(table: "RecursionTable", k: int) -> _LevelRows:
    """Every letter's action on level k: the table's own rows on the
    levels it keeps, and past those, rows made for this call alone."""
    _check_level_size(table.alphabet.d, k)
    rows = table._rows
    return rows[k - 1] if 0 < k <= len(rows) else _LevelRows(table._steps, rows, k)


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


def _fold_once(steps: dict, letters: tuple[int, ...], x: int):
    """One level of the fold through a table's _steps: return (section
    letters at x, image of x)."""
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


def _folds(table: RecursionTable, letters: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The letters folded at every first-level slot: the tuple of section
    letters and the tuple of images of 1..d."""
    folds = [_fold_once(table._steps, letters, x) for x in table.alphabet.indices()]
    return tuple(zip(*folds))


def _root_images(table: RecursionTable, letters: Sequence[int]) -> tuple[int, ...]:
    """The images of 1..d under the letters, composed on the level-1 row."""
    return tuple(map((1).__add__, _compose(table._rows[0], letters)))


def _walk(table: RecursionTable, w: Word, v: Sequence[int]) -> tuple[tuple, list]:
    """Fold w down the path to v: the section letters at the end and the
    images of v's entries, which stop where the section is empty (it
    fixes the rest of the vertex)."""
    _check_alphabet(table, w)
    check_vertex(v, table.alphabet.d)
    letters, images = w.letters, []
    for x in v:
        if not letters:
            break
        letters, image = _fold_once(table._steps, letters, x)
        images.append(image)
    return letters, images


def section(table: RecursionTable, w: Word, v: Sequence[int]) -> Word:
    """The section of w at vertex v (freely reduced)."""
    return _reduced(table.alphabet, _walk(table, w, v)[0])


def act_vertex(table: RecursionTable, w: Word, v: Sequence[int]) -> Vertex:
    """The image w(v); length preserving."""
    images = _walk(table, w, v)[1]
    return (*images, *v[len(images):])


def word_permutation(table: RecursionTable, w: Word) -> Permutation:
    """The permutation induced on the first level."""
    _check_alphabet(table, w)
    return _permutation(_root_images(table, w.letters))


def wreath(table: RecursionTable, w: Word) -> WreathRecursion:
    """All first-level sections together with the root permutation."""
    _check_alphabet(table, w)
    sections, images = _folds(table, w.letters)
    words = tuple(_reduced(table.alphabet, s) for s in sections)
    return WreathRecursion(words, _permutation(images))


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
    """Images of every level-k vertex in lexicographic order: the word is
    folded down to the deepest level the table keeps, or to level k if
    that is less, and each section composed there (_images)."""
    _check_alphabet(table, w)
    d = table.alphabet.d
    _check_level_size(d, k)
    level = list(product(range(1, d + 1), repeat=k))
    return tuple(map(level.__getitem__, _images(table._steps, table._rows, w.letters, k)))


def portrait(table: RecursionTable, w: Word, depth: int) -> Portrait:
    """Permutations down to the given depth; leaves keep their residual."""
    _check_alphabet(table, w)
    d = table.alphabet.d
    _check_level_size(d, depth)

    def build(letters: tuple[int, ...], remaining: int) -> Portrait:
        if remaining == 0:
            perm = _permutation(_root_images(table, letters))
            return Portrait(perm, residual=_reduced(table.alphabet, letters))
        sections, images = _folds(table, letters)
        children = tuple(build(s, remaining - 1) for s in sections)
        return Portrait(_permutation(images), children)

    return build(w.letters, depth)


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
    """Closure of {v} under the generators (see _orbit_numbers)."""
    numbers = _orbit_numbers(table, v)
    level = list(product(table.alphabet.indices(), repeat=len(v)))
    return {level[u] for u in numbers}


def _orbit_numbers(table: RecursionTable, v: Vertex) -> set[int]:
    """The numbers of the vertices in v's generator orbit, searched with
    one row lookup per generator.  A level is finite, so a set closed
    under a permutation is closed under its inverse too."""
    d = table.alphabet.d
    rows = _level(table, len(v))  # refuses a level past the cap before v is read
    check_vertex(v, d)
    moves = [rows[i] for i in range(1, d + 1)]
    frontier = {reduce(lambda n, x: n * d + x - 1, v, 0)}
    seen = set(frontier)
    while frontier:
        frontier = {row[u] for row in moves for u in frontier} - seen
        seen |= frontier
    return seen


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
    for _, section_texts, cycle_text in rows:
        sections.append(
            tuple(parse_word(t, alphabet, name_map) for t in section_texts)
        )
        perms.append(Permutation.from_cycle_string(d, cycle_text))
    return RecursionTable(alphabet, names, tuple(sections), tuple(perms))


def load_table_file(path: str) -> RecursionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return load_table(fh.read())
