"""Exception taxonomy shared across the package.

The command line front end maps these onto exit codes, so library code
should raise the most specific class that applies rather than bare
``Exception``.
"""


class ZlabError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ZlabError):
    """Malformed input data (CSV rows, config files); carries a location hint."""


class QuadratureError(ZlabError):
    """A fixed quadrature rule disagreed with its own coarser sub-rule.

    Raised when a tanh-sinh integral and the same rule at twice the step
    differ by more than the caller's tolerance, or the value is not finite.
    """


class SimulationError(ZlabError):
    """Monte Carlo engine produced non-finite values or hit a resource guard."""


class ContractError(ZlabError, ValueError):
    """An operation was called outside its documented domain, or inputs
    violate a structural requirement (mismatched grids, zero denominators)."""


class MemoryGuardError(ContractError):
    """Requested simulation exceeds the configured memory budget."""
