"""Reference evaluator of the vertex action, independent of ``arbora.tree``.

It reads only the public data of a recursion table: ``perms[i].images``
and ``sections[i][x].letters``.  Letters are signed integers, words are
tuples of letters, and words act first letter first, as in arbora.

Two certificates come out of it:

* a vertex at level <= 3 that the word moves proves a nonidentity;
* a finite set of words that contains the word, is closed under taking
  first-level sections and whose members all fix level one proves the
  identity (by induction on the level, every member fixes every level).
"""

from __future__ import annotations

MAX_LEVEL = 3
CLOSURE_CAP = 64


class Reference:
    """Level actions and sections of one table, computed from its rows."""

    def __init__(self, table) -> None:
        d = table.alphabet.d
        self.d = d
        self.img: dict[int, tuple[int, ...]] = {}
        self.sect: dict[tuple[int, int], tuple[int, ...]] = {}
        for i in range(1, d + 1):
            images = tuple(y - 1 for y in table.perms[i - 1].images)
            inverse = [0] * d
            for x, y in enumerate(images):
                inverse[y] = x
            rows = [tuple(table.sections[i - 1][x].letters) for x in range(d)]
            self.img[i] = images
            self.img[-i] = tuple(inverse)
            for x in range(d):
                self.sect[i, x] = rows[x]
                self.sect[-i, x] = tuple(-l for l in reversed(rows[inverse[x]]))
        self._levels: dict[int, dict[int, tuple[int, ...]]] = {}

    def letter_perm(self, letter: int, k: int) -> tuple[int, ...]:
        """Images of the level-k vertices under one letter.

        A vertex (x_1, ..., x_k) with 0-based entries is numbered
        x_1 d^(k-1) + ... + x_k."""
        cache = self._levels.setdefault(k, {})
        perm = cache.get(letter)
        if perm is None:
            n = self.d ** (k - 1)
            out = [0] * (self.d * n)
            for x in range(self.d):
                below = self.word_perm(self.sect[letter, x], k - 1)
                src, dst = x * n, self.img[letter][x] * n
                for r in range(n):
                    out[src + r] = dst + below[r]
            perm = cache[letter] = tuple(out)
        return perm

    def word_perm(self, letters, k: int) -> list[int]:
        """Images of the level-k vertices under a word."""
        cur = list(range(self.d**k))
        if k == 0:
            return cur
        for letter in letters:
            p = self.letter_perm(letter, k)
            cur = [p[c] for c in cur]
        return cur

    def blocks_perm(self, blocks, k: int) -> list[int]:
        """Level-k images of a product of powers ``[(letters, n), ...]``."""
        cur = list(range(self.d**k))
        for letters, n in blocks:
            p = self.word_perm(letters, k)
            if n < 0:
                inverse = [0] * len(p)
                for v, w in enumerate(p):
                    inverse[w] = v
                p, n = inverse, -n
            while n:
                if n & 1:
                    cur = [p[c] for c in cur]
                p = [p[c] for c in p]
                n >>= 1
        return cur

    def vertex(self, index: int, k: int) -> tuple[int, ...]:
        """1-based vertex tuple of a level-k vertex number."""
        out = []
        for _ in range(k):
            index, x = divmod(index, self.d)
            out.append(x + 1)
        return tuple(reversed(out))

    def moved_vertex(self, blocks, max_level: int = MAX_LEVEL):
        """A vertex at level <= max_level that the word moves, or None."""
        for k in range(1, max_level + 1):
            for v, w in enumerate(self.blocks_perm(blocks, k)):
                if v != w:
                    return self.vertex(v, k)
        return None

    def sections(self, letters) -> list[tuple[int, ...]]:
        """The d first-level sections of a word, freely reduced."""
        out = []
        for x in range(self.d):
            acc: list[int] = []
            cur = x
            for letter in letters:
                for s in self.sect[letter, cur]:
                    if acc and acc[-1] == -s:
                        acc.pop()
                    else:
                        acc.append(s)
                cur = self.img[letter][cur]
            out.append(tuple(acc))
        return out

    def closure_proves_identity(self, letters, cap: int = CLOSURE_CAP) -> bool:
        """Whether a closed set of at most cap words proves the word trivial."""
        fixed = list(range(self.d))
        seen = {tuple(letters)}
        todo = list(seen)
        while todo:
            w = todo.pop()
            if self.word_perm(w, 1) != fixed:
                return False
            for s in self.sections(w):
                if s not in seen:
                    if len(seen) >= cap:
                        return False
                    seen.add(s)
                    todo.append(s)
        return True


def reduce_letters(raw) -> tuple[int, ...]:
    """Free reduction by stack cancellation."""
    out: list[int] = []
    for letter in raw:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))
