"""Exception taxonomy shared by the whole toolkit.

CLI exit codes: parse errors map to 4, shape/precondition and mode errors
to 2, certification failures to 3.
"""


class BottcherError(Exception):
    """Base class for all toolkit errors."""


class DepthOverflowError(BottcherError):
    """An operation would need an iterated logarithm beyond the configured depth."""


class ShapeError(BottcherError):
    """A series does not have the leading-term shape required by an operation."""


class EmptySeriesError(BottcherError):
    """Leading term/block of the zero series was requested."""


class ModeError(BottcherError):
    """A value is not representable in exact mode (hint: retry in float mode)."""


class DomainError(BottcherError):
    """A numeric function was evaluated outside its domain of definition."""


class CertificationError(BottcherError):
    """A grid-based certification (invariance, bounds) could not be established."""


class ParseError(BottcherError):
    """Expression syntax error, with position information."""

    def __init__(self, message, line=1, col=0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col
