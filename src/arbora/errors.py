"""Exception hierarchy for arbora.

Everything raised on purpose by this package derives from ArboraError, so
callers (and the CLI) can catch one type and map it to an exit code.
"""


class ArboraError(Exception):
    """Base class for all arbora errors."""


class ArityTooSmall(ArboraError):
    """The tree arity d must be at least 3."""


class UnknownGenerator(ArboraError):
    """A token names a generator that does not exist in this alphabet."""


class MalformedToken(ArboraError):
    """A token does not fit the word grammar (or a cap was exceeded)."""


class AlphabetMismatch(ArboraError):
    """Two words from different alphabets were combined."""


class EmptyWord(ArboraError):
    """An operation that needs a nonempty word received the empty word."""


class BadVertex(ArboraError):
    """A vertex path contains an entry outside 1..d, or a negative level."""


class LevelTooLarge(ArboraError):
    """d**k exceeds the vertex-enumeration cap."""


class NameUnavailable(ArboraError):
    """The element catalog has no entry with this name for this arity."""


class NodeBudgetExceeded(ArboraError):
    """The identity decision explored more nodes than the configured cap."""


class BudgetExceeded(ArboraError):
    """An enumeration check outgrew its pair budget."""
