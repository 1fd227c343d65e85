"""Error types shared across the package.

Everything raised on purpose derives from ConfalgError so the CLI can map
failures onto its exit codes without fishing for stdlib exceptions.
"""


class ConfalgError(Exception):
    """Base class for all errors raised by this package."""


# ---- exact arithmetic ----

class DivisionByZero(ConfalgError):
    """Division by the zero polynomial, rational function or field element."""


class NotInvertible(ConfalgError):
    """Field element whose conjugate norm vanishes as a polynomial."""


# ---- noncommutative engine ----

class RewriteBudgetExceeded(ConfalgError):
    """A product of outside input whose cost exceeds the rewrite budget."""


class ConsistencyFailure(ConfalgError):
    """A self-check failed: a derivation rule contradicts the mass relation,
    or a division the gcd algorithm guarantees to be exact is not."""


# ---- identity catalogue ----

class ConstructionFailure(ConfalgError):
    """A malformed catalogue record, or an assignment its identity lacks."""


# ---- expression language ----

class DslSyntaxError(ConfalgError):
    """Tokenizer or parser error; carries a 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownSymbol(ConfalgError):
    """Symbol name not in the vocabulary."""


class ArityError(ConfalgError):
    """Symbol used with the wrong number of indices."""


class UnboundIndex(ConfalgError):
    """Index variable neither assigned as free nor bound by a sum."""


class IndexRangeError(ConfalgError):
    """Index value outside the symbol's legal range."""


class NonCoefficientDivisor(ConfalgError):
    """Attempt to divide by an expression that is not a pure coefficient."""


class UnknownIdentity(ConfalgError):
    """Identity id not present in the catalogue."""
