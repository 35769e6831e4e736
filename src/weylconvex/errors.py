"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InputError -> 2, BudgetExceeded -> 2,
a stdout closed before the report was written -> 2, InconsistencyError ->
3, and any other exception that escapes a command -> 3.  A computed property being false is not an exception; commands
report it and exit 1.  NotInCellError never escapes: `cross-section`
counts a roundtrip that raises it as failed, in a report that exits 1.
"""


class WeylConvexError(Exception):
    """Base class for all package errors."""


class InputError(WeylConvexError):
    """Malformed or out-of-contract input."""


class BudgetExceeded(WeylConvexError):
    """An enumeration was refused because it exceeds the configured budget."""


class InconsistencyError(WeylConvexError):
    """A verified theorem failed to hold; this always signals a bug."""


class NotInCellError(WeylConvexError):
    """A matrix could not be factored through the cross-section cell."""
