"""Actions of words on the d-regular rooted tree.

A recursion table assigns every generator a d-tuple of section words and
a permutation of {1..d}; everything else (vertex images, sections of
arbitrary words, level permutations, finite portraits) is computed by
folding letters through that data.

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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import BadVertex, LevelTooLarge, MalformedToken
from .words import Alphabet, Word, _reduced, parse_word, format_word

Vertex = tuple[int, ...]

DEFAULT_VERTEX_CAP = 10**6


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..d}, stored as the tuple of images of 1..d."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

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
        stripped = text.replace(" ", "")
        if not re.fullmatch(r"(\([0-9 ]*\)\s*)+", text.strip()) and stripped != "()":
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


@dataclass(frozen=True)
class WreathRecursion:
    """First-level decomposition of a word: d section words and the root
    permutation.  All sections empty with identity permutation means the
    word is the identity element (and the converse holds element-wise)."""

    sections: tuple[Word, ...]
    perm: Permutation


@dataclass(frozen=True)
class Portrait:
    """Finite-depth rendering: every node carries the permutation of its
    word; leaves also carry the residual section word (sections need not
    die out at any depth, so portraits stop at the requested depth)."""

    perm: Permutation
    children: tuple["Portrait", ...] = ()
    residual: Word | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class RecursionTable:
    """Per-generator wreath recursions defining a self-similar action."""

    alphabet: Alphabet
    names: tuple[str, ...]
    sections: tuple[tuple[Word, ...], ...]
    perms: tuple[Permutation, ...]
    # per-letter rows indexed by slot (entry 0 unused), filled in
    # __post_init__: _steps[l][x] is (section letters of l at x, image of x)
    # and _img[l][x] the image alone
    _steps: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _img: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        d = self.alphabet.d
        if not (len(self.names) == len(self.sections) == len(self.perms) == d):
            raise MalformedToken(f"table must have exactly {d} generator rows")
        if len(set(self.names)) != d or "e" in self.names:
            raise MalformedToken("generator names must be unique and not 'e'")
        for row in self.sections:
            if len(row) != d:
                raise MalformedToken(f"each generator needs {d} section words")
            for w in row:
                if w.alphabet != self.alphabet:
                    raise MalformedToken("section word over a different alphabet")
        for p in self.perms:
            if p.degree != d:
                raise MalformedToken(f"permutation degree {p.degree} != {d}")
        steps: dict[int, tuple] = {}
        img: dict[int, tuple[int, ...]] = {}
        for i in range(1, d + 1):
            row = self.sections[i - 1]
            images = (0,) + self.perms[i - 1].images
            pre = (0,) + self.perms[i - 1].inverse().images
            img[i], img[-i] = images, pre
            steps[i] = ((), *((row[x - 1].letters, images[x]) for x in range(1, d + 1)))
            steps[-i] = ((), *(
                (tuple(-l for l in reversed(row[pre[x] - 1].letters)), pre[x])
                for x in range(1, d + 1)
            ))
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_img", img)


# ---------------------------------------------------------------------------
# vertices


def check_vertex(v: Sequence[int], d: int) -> None:
    for x in v:
        if not 1 <= x <= d:
            raise BadVertex(f"vertex entry {x} outside 1..{d}")


def parse_vertex(text: str, d: int) -> Vertex:
    """Digit string over 1..d; the empty string is the root."""
    out = []
    for ch in text.strip():
        if not ch.isdigit() or not 1 <= int(ch) <= d:
            raise BadVertex(f"vertex digit {ch!r} outside 1..{d}")
        out.append(int(ch))
    return tuple(out)


def format_vertex(v: Vertex) -> str:
    return "".join(str(x) for x in v)


# ---------------------------------------------------------------------------
# the letter fold


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


def _root_images(table: RecursionTable, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Images of the first-level slots 1..d under the letters."""
    rows = list(map(table._img.__getitem__, letters))
    images = []
    for x in table.alphabet.indices():
        cur = x
        for row in rows:
            cur = row[cur]
        images.append(cur)
    return tuple(images)


def section(table: RecursionTable, w: Word, v: Sequence[int]) -> Word:
    """The section of w at vertex v (freely reduced)."""
    check_vertex(v, table.alphabet.d)
    if not v:
        # no fold has looked the letters up in the table: validate them
        return Word(table.alphabet, w.letters)
    letters = w.letters
    for x in v:
        letters, _ = _fold_once(table, letters, x)
    return _reduced(table.alphabet, letters)


def act_vertex(table: RecursionTable, w: Word, v: Sequence[int]) -> Vertex:
    """The image w(v); length preserving."""
    check_vertex(v, table.alphabet.d)
    letters = w.letters
    out = []
    for x in v:
        letters, image = _fold_once(table, letters, x)
        out.append(image)
    return tuple(out)


def word_permutation(table: RecursionTable, w: Word | tuple[int, ...]) -> Permutation:
    """The permutation induced on the first level."""
    letters = w.letters if isinstance(w, Word) else w
    return Permutation(_root_images(table, letters))


def wreath(table: RecursionTable, w: Word) -> WreathRecursion:
    """All first-level sections together with the root permutation."""
    folds = [_fold_once(table, w.letters, x) for x in table.alphabet.indices()]
    return WreathRecursion(
        tuple(_reduced(table.alphabet, sec) for sec, _ in folds),
        Permutation(tuple(image for _, image in folds)),
    )


def level_permutation(
    table: RecursionTable, w: Word, k: int, cap: int = DEFAULT_VERTEX_CAP
) -> tuple[Vertex, ...]:
    """Images of every level-k vertex in lexicographic order."""
    d = table.alphabet.d
    if k < 0:
        raise BadVertex(f"level must be nonnegative, got {k}")
    if d**k > cap:
        raise LevelTooLarge(f"{d}**{k} vertices exceed the cap of {cap}")
    out: list[Vertex] = []

    def walk(letters: tuple[int, ...], depth: int, image: Vertex) -> None:
        if depth == k:
            out.append(image)
            return
        for x in range(1, d + 1):
            sec, img = _fold_once(table, letters, x)
            walk(sec, depth + 1, image + (img,))

    walk(w.letters, 0, ())
    return tuple(out)


def portrait(
    table: RecursionTable, w: Word, depth: int, cap: int = DEFAULT_VERTEX_CAP
) -> Portrait:
    """Permutations down to the given depth; leaves keep their residual."""
    d = table.alphabet.d
    if depth < 0:
        raise LevelTooLarge(f"depth must be nonnegative, got {depth}")
    if d**depth > cap:
        raise LevelTooLarge(f"{d}**{depth} leaves exceed the cap of {cap}")

    def build(letters: tuple[int, ...], remaining: int) -> Portrait:
        perm = word_permutation(table, letters)
        if remaining == 0:
            return Portrait(perm, residual=_reduced(table.alphabet, letters))
        children = tuple(
            build(_fold_once(table, letters, x)[0], remaining - 1)
            for x in range(1, d + 1)
        )
        return Portrait(perm, children=children)

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


def vertex_orbit(
    table: RecursionTable, v: Vertex, cap: int = DEFAULT_VERTEX_CAP
) -> set[Vertex]:
    """Closure of {v} under all generators and their inverses (BFS)."""
    d = table.alphabet.d
    check_vertex(v, d)
    if d ** len(v) > cap:
        raise LevelTooLarge(f"{d}**{len(v)} vertices exceed the cap of {cap}")
    moves = [Word(table.alphabet, (l,)) for i in range(1, d + 1) for l in (i, -i)]
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for m in moves:
                image = act_vertex(table, m, u)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
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

    Blank lines and ``#`` comments are ignored.  The arity is the number
    of generator rows; every section word may only use the names declared
    by the table itself (self-similarity is enforced by construction).
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
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
