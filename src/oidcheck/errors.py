"""Exception hierarchy shared by all oidcheck modules."""

from __future__ import annotations


class OidcheckError(Exception):
    """Base class for all errors raised by this package.

    An input error may carry the source position of what it names; its text
    then reads ``line:col: message``.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    def at(self, line: int, col: int) -> "OidcheckError":
        """Copy of this error carrying a source position."""
        return type(self)(self.message, line, col)


class ParseError(OidcheckError):
    """Syntax error in a rule or fact file."""


class RuleValidationError(OidcheckError):
    """A rule violates the structural requirements of the query class."""


class NoFunctionError(RuleValidationError):
    """Head contains no function term."""


class MultipleFunctionsError(RuleValidationError):
    """Head contains more than one function term."""


class NestedTermError(RuleValidationError):
    """A function term contains another function term."""


class UnsafeVariableError(RuleValidationError):
    """A head variable does not occur in the body."""


class HeadPredicateInBodyError(RuleValidationError):
    """The head predicate also occurs in the body."""


class ArityClashError(OidcheckError):
    """A predicate or function symbol is used with two different arities."""


class ArityMismatchError(OidcheckError):
    """A target instance does not fit the query head it is checked against."""


class HeadMismatchError(OidcheckError):
    """Two queries being compared have different head predicates or arities."""


class InvalidKeyIndexError(OidcheckError):
    """A key-based skolemization index is outside the source relation's arity."""


class ReservedNameError(OidcheckError):
    """User input uses a constant form reserved for generated instances."""


class FrozenError(AttributeError):
    """An attempt to assign or delete an attribute of an immutable object."""
