"""Exception types shared across the package."""


class TreeAAError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TreeAAError):
    """Malformed edge-list document (bad line syntax)."""


class EmptyInput(ParseError):
    """Edge-list document contains no vertices."""


class DuplicateEdge(ParseError):
    """The same unordered vertex pair appears twice."""


class CycleDetected(ParseError):
    """Edge set contains a cycle (including self-loops)."""


class Disconnected(ParseError):
    """Vertex set is not connected by the given edges."""


class UnknownVertex(TreeAAError):
    """A label that is not a vertex of the tree."""


class EmptySet(TreeAAError):
    """An operation requiring a non-empty vertex set got an empty one."""


class InvalidPath(TreeAAError):
    """A vertex sequence that is not a simple path of adjacent vertices."""


class InvalidParams(TreeAAError, ValueError):
    """Numeric protocol or bound parameters outside their valid domain."""


class NonFinite(TreeAAError, ValueError):
    """A real argument was NaN or infinite."""


class InsufficientValues(TreeAAError):
    """Fewer than 2t+1 usable values reached the trimming step."""


class NoSupport(TreeAAError):
    """No path prefix reached the required support threshold."""


class StrategyViolation(TreeAAError):
    """An adversary callback broke the corruption or authentication rules."""


class NonTermination(TreeAAError):
    """A simulation exceeded its round cap."""


class CorruptTranscript(TreeAAError):
    """A transcript failed structural validation during replay."""


class ProtocolViolation(TreeAAError):
    """An internal protocol invariant failed; indicates a bug, not an input error."""
