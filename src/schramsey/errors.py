"""Shared exception types."""


class SchramseyError(Exception):
    """Base class for all library errors."""


class OrdinalRangeError(SchramseyError):
    """Ordinal would leave the supported range (tower depth or coefficient cap)."""


class OrdinalParseError(SchramseyError):
    """Malformed or non-canonical ordinal text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class HorizonExceeded(SchramseyError):
    """An operation tried to read past the materialized prefix of a stream."""


class BudgetExceeded(SchramseyError):
    """A walk, listing or search grew past its budget.  Every budget stop
    is worded here, from its fields, as

        <what> <amount>[ <noun>], over its budget of <budget>[ <unit>][; frontier <frontier>]

    where `noun` and `unit` name what the amount and the budget count, and
    the frontier, where the walk stood, is cut to 80 characters."""

    def __init__(self, what: str, amount: int, budget: int, frontier: str | None = None, noun="", unit=""):
        text = f"{what} {amount} {noun}".rstrip() + f", over its budget of {budget} {unit}".rstrip()
        if frontier is not None:
            text += "; frontier " + (frontier if len(frontier) <= 80 else frontier[:80] + "...")
        super().__init__(text)


class OracleUndecided(SchramseyError):
    """A chain oracle could not give a definite answer at its horizon."""
