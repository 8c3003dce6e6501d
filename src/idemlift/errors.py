"""Exception taxonomy shared by the library and the command line tool.

Plain ``ValueError`` is reserved for contract violations (bad moduli,
non-monic divisors, composite characteristics where a prime is required).
The classes below mark conditions the CLI maps to distinct exit codes.
"""

from __future__ import annotations


class IdemliftError(Exception):
    """Base class for conditions with a dedicated CLI exit code."""


class ParseError(IdemliftError):
    """Malformed ring expression or element literal (exit code 2)."""


class SizeLimitError(IdemliftError):
    """An enumeration or bound cap was exceeded (exit code 3)."""


class UnsupportedError(IdemliftError):
    """Structurally valid input outside the supported constructions (exit code 4).

    Raised for non-invertible scalars and for providers asked about
    carriers outside their construction (a hat family when p divides |G|).
    """


class VerificationError(IdemliftError):
    """An exact check that must hold did not (exit code 5).

    Covers failed lifts, failed combination verification, and explicit
    ``verify`` requests on non-idempotent input.
    """
