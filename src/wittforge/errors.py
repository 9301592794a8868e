"""Exception taxonomy shared by all wittforge modules.

Every error that a caller is expected to catch derives from WittforgeError.
Each class carries the CLI exit code it maps onto: parse/usage problems give
2, precision or perfection-depth exhaustion gives 3, verification failures
give 1.
"""


class WittforgeError(Exception):
    exit_code = 2


class SpecParseError(WittforgeError):
    """Malformed ring descriptor, element expression, or wire literal."""


class LatticeError(WittforgeError):
    """Exponent outside the ring's admissible exponent lattice."""


class DepthExhausted(WittforgeError):
    """An inverse-Frobenius application needs more perfection depth than declared."""

    exit_code = 3


class NoRoot(WittforgeError):
    """A requested root does not exist (or is invisible on the canonical representative)."""


class NotAUnit(WittforgeError):
    """Inversion was requested for an element that is not invertible."""


class NotDivisible(WittforgeError):
    """Division preconditions fail (zeroth coordinate nonzero, imperfect coefficients, ...)."""


class NotInGhostImage(WittforgeError):
    """A ghost vector is not in the image of the ghost map (triangular solve hits an inexact division)."""


class IntegralityViolation(WittforgeError):
    """A structural-polynomial recursion step failed to divide exactly; signals an implementation bug."""


class LevelTooLarge(WittforgeError):
    """Structural-polynomial generation refused: level above cap or predicted term count above budget."""

    exit_code = 3


class NotEisenstein(WittforgeError):
    """Proposed polynomial fails the Eisenstein checks."""


class DerivativeNotUnit(WittforgeError):
    """Newton lifting requires the derivative at the seed to be a unit."""


class NoConvergence(WittforgeError):
    """Newton iteration failed to reach the target precision in the allotted steps."""

    exit_code = 1


class IncompatibleSequence(WittforgeError):
    """A p-power-compatible sequence fails its defining relation a_{i+1}^p = a_i."""


class BudgetExceeded(WittforgeError):
    """A desk-scale model was requested beyond its element-size budget."""

    exit_code = 3


class MismatchError(WittforgeError):
    """Operands disagree on ring, length, or base."""
