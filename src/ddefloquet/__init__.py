"""Periodic orbits and Floquet stability of delay differential equations.

The package computes time periodic states of nonlinear delay systems by
perturbation expansion, linearizes about them, and determines Floquet
exponents and eigensolutions with matrix valued continued fractions; an
independent monodromy discretization and constant coefficient
characteristic roots serve as brute force cross checks, and the adjoint
problem supplies the bilinear pairing and biorthonormalization.
"""

from .adjoint import (
    AdjointMode,
    BilinearContext,
    adjoint_modes,
    bilinear,
    normalize,
    solve_inhomogeneous,
)
from .errors import (
    BlowUp,
    CfBreakdown,
    ConfigError,
    CutoffTooSmall,
    DdeFloquetError,
    ExponentOverflow,
    GridTooCoarse,
    NonconvergentAmplitude,
    NonpositiveFrequency,
    NullSpaceAmbiguous,
    ResonantForcing,
    SecularSystemSingular,
    SingularMatrix,
    StepTooLarge,
    ZeroPairing,
)
from .floquet import (
    FloquetMode,
    LadderSet,
    assemble_M,
    closure_determinant,
    extract_mode,
    find_exponents,
    ladder_operators,
)
from .fourier import FourierSeries, fourier_product
from .linalg import determinant, solve_linear
from .model import (
    DdeSystem,
    FourierMatrixDensity,
    LMatrixTable,
    MonomialTerm,
    build_L,
    linearize_about_orbit,
    rescale,
)
from .oracles import (
    SegmentState,
    Trajectory,
    characteristic_roots,
    integrate_mos,
    monodromy_exponents,
    oscillator_residual,
)
from .orbit import (
    DrivenOscillator,
    OrbitExpansion,
    expand_pl,
    expand_shohat,
    orbit_residual_series,
    orbit_to_state,
)
from .risken import (
    TridiagonalBlocks,
    assemble_blocks,
    closure_determinant_risken,
    find_exponents_risken,
    tridiagonal_closure,
)
from .rootfind import SearchBox, find_roots, to_strip

__version__ = "0.1.0"
