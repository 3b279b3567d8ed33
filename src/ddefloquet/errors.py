"""Exception and warning types shared across the package."""


class DdeFloquetError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(DdeFloquetError):
    """A linear solve met an exactly singular matrix."""


class CutoffTooSmall(DdeFloquetError):
    """Requested harmonic cutoff drops a non-negligible series tail."""


class NonpositiveFrequency(DdeFloquetError):
    """Time rescaling requires a strictly positive frequency."""


class ExponentOverflow(DdeFloquetError):
    """Re(lambda) * delay exceeds the floating point exponent range."""


class SecularSystemSingular(DdeFloquetError):
    """The two secular conditions do not determine (omega_m, A_{m-1})."""


class NonconvergentAmplitude(DdeFloquetError):
    """Newton iteration on the secular conditions failed to converge."""


class CfBreakdown(DdeFloquetError):
    """A continued fraction closure met a singular matrix: a bracket of the
    tridiagonal sweep, or T_RR of the ladder solve.

    `level` carries the block index of the offending bracket when known.
    """

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class NullSpaceAmbiguous(DdeFloquetError):
    """Two singular values of T(lambda) are too close: degenerate root."""


class ZeroPairing(DdeFloquetError):
    """Bilinear pairing of a mode pair vanishes; cannot normalize."""


class ResonantForcing(DdeFloquetError):
    """Inhomogeneous solve at a Floquet root: solvability is obstructed.

    `defect` holds the value of the solvability integral, one entry per
    null direction.
    """

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class StepTooLarge(DdeFloquetError):
    """Integration step exceeds what the history grid can support."""


class BlowUp(DdeFloquetError):
    """Trajectory norm exceeded the blow-up guard."""


class GridTooCoarse(DdeFloquetError):
    """Monodromy eigenvalues moved between Chebyshev degrees m_grid and 2*m_grid."""


class ConfigError(DdeFloquetError):
    """Malformed job configuration or system definition file."""


class DdeFloquetWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class NoRootsInBoxWarning(DdeFloquetWarning):
    """Search box contained no roots (informational)."""


class NewtonStallWarning(DdeFloquetWarning):
    """A Newton seed failed to converge and was dropped."""


class ContourCountWarning(DdeFloquetWarning):
    """A contour solve found a number of eigenvalues other than the
    winding number of its determinant: classes may be missing."""


class DegenerateSecularWarning(DdeFloquetWarning):
    """A secular condition was vacuous; the affected parameter was
    fixed by convention and flagged."""
