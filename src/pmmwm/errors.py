"""Exception hierarchy shared by all pmmwm modules.

Every error carries an ``exit_code`` so the CLI can map failures to
distinct, scriptable process exit codes (see README).
"""


class PmmwmError(Exception):
    """Base class for all solver errors."""

    exit_code = 1


class ParseError(PmmwmError):
    """An input file or weight table is malformed; a file's message starts with its path."""

    exit_code = 3


class InfeasibleInstance(PmmwmError):
    """No perfect matching on available edges, or too little capacity: m or
    ubar below 1, or m * ubar below n1 or below a partitioner's item count."""

    exit_code = 4


class NoPerfectMatching(InfeasibleInstance):
    """An augmentation phase exhausted reachable vertices without a free one.

    Raised by the matcher when a ban (or a defective instance) leaves some
    U-vertex unmatchable. Callers banning edges must treat this as a rejected
    ban and restore the edge.
    """


class TooLarge(PmmwmError):
    """Exhaustive oracle guard exceeded."""

    exit_code = 5


class InvalidSolution(PmmwmError):
    """A solver returned a solution that fails ``validate_solution``."""

    exit_code = 7


class SpecInvalid(PmmwmError):
    """Instance-generator specification violates its invariants."""

    exit_code = 2
