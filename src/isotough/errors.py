"""Exception types shared across the package."""


class CapacityError(Exception):
    """An input past a work limit: the exact engine's node budget, a
    class build above order 9, refused unbuilt, or Graph's maximum order."""


class InputError(ValueError):
    """Input the caller can correct: a flag, a graph or a parameter value
    that a check rejects before any work is done."""


class ScopeError(InputError):
    """A requested minimum-degree interval is empty or out of range."""


class EmptyArchiveError(Exception):
    """A solver run finished without archiving any verified graph."""


class ConsistencyError(Exception):
    """Two routes that must agree produced contradictory results."""


class GraphParseError(InputError):
    """Malformed graph input; carries a best-effort position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at {position})")
        self.position = position
