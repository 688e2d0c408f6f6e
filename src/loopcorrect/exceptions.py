"""Exception types shared across the package."""


class LoopcorrectError(Exception):
    """Base class for package-specific failures."""


class SizeError(LoopcorrectError):
    """An enumeration or oracle was asked to exceed its configured cap."""


class NotConvergedError(LoopcorrectError):
    """An operation required a converged LBP fixed point and did not get one."""


class NumericError(LoopcorrectError):
    """A message or belief summed to zero or to a non-finite value."""


class DivisibilityError(LoopcorrectError):
    """An exact polynomial division left a nonzero remainder."""


class IdentityError(LoopcorrectError):
    """A polynomial or combinatorial identity that must hold exactly failed.

    This firing is a test-failure signal, not a recoverable condition: it
    means either a bug or a genuinely falsified identity.
    """


class GenerationError(LoopcorrectError):
    """Random model generation could not satisfy its constraints."""
