"""Exception taxonomy shared across the package."""


class ChainAnchorError(Exception):
    """Base class for package errors."""


class ProtocolError(ChainAnchorError):
    """A protocol step was violated (bad proof, wrong order, bad message)."""


class RevokedKeyError(ProtocolError):
    """The member key is listed on a revocation list."""

    def __init__(self, message: str = "revoked"):
        super().__init__(message)


class CredentialError(ProtocolError):
    """Issued credential failed the user-side consistency check."""

    def __init__(self, message: str = "credential invalid"):
        super().__init__(message)


class SearchExhausted(ChainAnchorError, RuntimeError):
    """A capped search drew every candidate it may without the prime it
    needs: the profile's lengths leave too few, or the source is broken."""


class InvariantViolation(ChainAnchorError):
    """A scripted run detected a broken system invariant."""
