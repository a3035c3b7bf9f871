"""Exception types raised across the toolkit, and how their messages show a
bad value.  The command line maps each to its exit code (``cli.main``)."""

import reprlib


def _cut(text: str) -> str:
    """``text`` cut to at most 60 characters for a one-line error."""
    return text if len(text) <= 60 else text[:57] + "..."


def _shown(v) -> str:
    """``v``'s repr for a one-line error, bounded in depth and length, unlike
    repr, and cut to at most 60 characters."""
    return _cut(reprlib.repr(v))


class FisherinfoError(Exception):
    """Base class for every toolkit-specific error."""


class DimensionMismatch(FisherinfoError):
    """Operands have incompatible shapes or an unsupported dimension."""


class NotHermitian(FisherinfoError):
    """A matrix that must be Hermitian is not, within tolerance."""


class NotNormalized(FisherinfoError):
    """A state vector is not normalized, within tolerance."""


class NotUnitary(FisherinfoError):
    """A matrix that must be unitary is not, within tolerance."""


class InvalidState(FisherinfoError):
    """A density matrix fails Hermiticity, trace or positivity checks."""


class InvalidPovm(FisherinfoError):
    """POVM effects are not positive or do not resolve the identity."""


class InvalidChannel(FisherinfoError):
    """Kraus operators do not satisfy the completeness relation."""


class SingularOutcome(FisherinfoError):
    """A result is not finite."""


class DocumentError(FisherinfoError):
    """A JSON input document or a command-line argument is malformed or invalid."""
