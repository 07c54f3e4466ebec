"""Exception hierarchy.

Everything a caller can mishandle raises a subclass of GemError, so the CLI
can map "your input is bad" to one exit code and "the file does not even
parse" (ParseError, deliberately outside the hierarchy) to another.
"""


class GemError(Exception):
    """Base class for validation and precondition failures."""


# -- graph construction ------------------------------------------------------

class GraphValidationError(GemError):
    pass


class DuplicateVertexInColor(GraphValidationError):
    pass


class LoopEdge(GraphValidationError):
    pass


class VertexCountMismatch(GraphValidationError):
    pass


class OddVertexCount(GraphValidationError):
    pass


class ColorOutOfRange(GraphValidationError):
    pass


class UnknownLabel(GemError, KeyError):
    """No vertex carries the label.  Also a KeyError, as for a missing key;
    its message is printed as given, not quoted as a KeyError's key is."""

    __str__ = GemError.__str__


# -- invariants --------------------------------------------------------------

class PermutationColorMismatch(GemError):
    pass


class DimensionUnsupported(GemError):
    pass


# -- moves -------------------------------------------------------------------

class MoveError(GemError):
    pass


class NotADipole(MoveError):
    pass


class PhiNotIsomorphism(MoveError):
    pass


class MissingIColoredMatching(MoveError):
    pass


class SameComponentInIHat(MoveError):
    pass


class PreconditionFailed(MoveError):
    """Combined-move precondition violated; the message names the clause."""


class ResultInvalid(MoveError):
    """A move would remove every vertex, leaving no graph."""


# -- constructions -----------------------------------------------------------

class BaseNotCrystallization(GemError):
    pass


class BudgetExceeded(GemError):
    pass


class InvalidCharacteristicFunction(GemError):
    pass


# -- isomorphism -------------------------------------------------------------

class ColorCountMismatch(GemError):
    pass


# -- shipped data ------------------------------------------------------------

class AuditFailed(GemError):
    """A catalogue construction failed one of its built-in consistency checks."""


# -- file format -------------------------------------------------------------

class UnwritableLabel(GemError):
    """A label render_gem (empty, or with whitespace or '#') or
    render_move_script (its step's line would not read back as that step)
    cannot write.  Both raise it before writing anything."""


class ParseError(Exception):
    """Gem-file or move-script syntax error. Carries 1-based line/column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
