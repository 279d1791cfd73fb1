"""Exception types shared across the package.

Certificate-type failures (an engine could not back its own output) are kept
distinct from input/validation errors so the CLI can map them to different
exit codes.
"""


class ExpframesError(Exception):
    """Base class for all package-specific errors."""


class SpectrumFormatError(ExpframesError):
    """A spectrum descriptor is malformed (overlap, out of range, bad JSON)."""


class NoCellFits(ExpframesError):
    """Inner quantization found no grid cell contained in the interval set."""


class EmptyComplement(ExpframesError):
    """Complement of a full grid spectrum was requested."""


class NotHermitian(ExpframesError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NotParseval(ExpframesError):
    """Vector system does not resolve the identity within tolerance."""


class NoFeasibleCandidate(ExpframesError):
    """No index satisfies the two-sided barrier feasibility condition."""


class CertificateFailed(ExpframesError):
    """A built set misses its guarantee.

    Raised by the builders when a bound computed by expframes.verify falls
    below its target or the set breaks its size cap or floor, and by an
    engine whose own loop already shows the guarantee cannot hold.
    """


class InvalidD(ExpframesError):
    """Selection parameter d is outside its admissible range."""


class KTooLarge(ExpframesError):
    """Requested selection size exceeds the number of available vectors."""


class TooManySubsets(ExpframesError):
    """Brute-force enumeration would exceed the subset budget."""


class PeriodMismatch(ExpframesError):
    """Spectrum and residue set have different grid orders."""
