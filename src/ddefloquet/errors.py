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
    """A continued fraction level became singular or failed to converge.

    `level` carries the Fourier index of the offending inversion when known.
    """

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class NullSpaceAmbiguous(DdeFloquetError):
    """Two singular values of M(lambda) are too close: degenerate root."""


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
    """Monodromy eigenvalues did not stabilize under grid refinement."""


class ConfigError(DdeFloquetError):
    """Malformed job configuration or system definition file."""


class DdeFloquetWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class NoRootsInBoxWarning(DdeFloquetWarning):
    """Search box contained no roots (informational)."""


class NewtonStallWarning(DdeFloquetWarning):
    """A Newton seed failed to converge and was dropped."""


class DegenerateSecularWarning(DdeFloquetWarning):
    """A secular condition was vacuous; the affected parameter was
    fixed by convention and flagged."""
