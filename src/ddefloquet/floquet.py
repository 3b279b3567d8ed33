"""Floquet exponents of a time periodic kernel by matrix valued continued
fractions.

The Fourier components phi_n of an eigensolution obey the banded recurrence

    0 = sum_k [L_{k,n-k} - delta_{k0} (lambda + i n) I] phi_{n-k},

that is T(lambda) phi = 0 with T_{p,q} = L_{p-q,q} - delta_{pq}
(lambda + i p) I, closed by ladder operators S^m_0 with phi_m = S^m_0
phi_0.  A matrix continued fraction evaluated to convergence is block
Gaussian elimination of that recurrence (H. Risken, The Fokker-Planck
Equation, 2nd ed., 1989, ch. 9), so on the truncation |n| <= B =
n_win + depth the ladder operators are one solve: T couples only the
indices of one class of `model.index_classes`, and on the class of
n = 0, with R its indices other than 0, S = -T_RR^-1 T_R0, one LAPACK
solve for a whole batch of lambda (`linalg.solve_stack`, which flags a
singular T_RR, the sign of lambda sitting at a resonance of the
truncated problem).  The n = 0 row closes the system: the closure matrix

    M(lambda) = sum_k L_{k,-k} S^{-k}_0 - lambda I

is the Schur complement of T(lambda) onto block 0, so det M det T_RR is
the determinant of T on the class of n = 0, and det M vanishes at the
Floquet exponents.  It is analytic in lambda away from its breakdown
poles, the zeros of det T_RR, so plain Newton iterations refine its
roots.  The search locates each exponent class once, as an eigenvalue of
the Hill matrix T(lambda) of the same window
(`rootfind.contour_classes`; T is the exponential pencil of
`model.hill_matrix`, factored over the index classes it never couples,
`model.HillBlocks`, each built once per search whatever its number of
classes, at the window and at the window enlarged by two), and runs one
Newton iteration on det M per class.  Where an exponent sits close to a
truncation resonance, det M pinches its zero against a pole, and the run
stops at its first step outside CLASS_TOL of its class; the Hill
eigenvalue and T's null vector there are then the answer.  Every root,
from either route, is checked against truncation once, by a Newton run
on the entire Hill determinant of the window enlarged by two.  The
paired tridiagonal route (`risken`) runs this same class loop
(`_search`), at the same window, on the determinant of its own closure.

det M is what Newton refines; the modes are read off T(lambda) itself.
At a root of det M, T is singular too: the Floquet mode is T's right
null vector (T phi = 0) and the adjoint mode its left one (psi T = 0),
both on |n| <= n_win + depth, cut to the window and scaled so that the
largest entry of block 0 is 1, one SVD each (`extract_mode`,
`adjoint.adjoint_modes`).

Exponents are defined mod i because the ansatz exp(lambda*xi) times a
2*pi periodic factor absorbs integer imaginary shifts; reported modes carry
both the raw root and its strip representative with Im in (-1/2, 1/2].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CfBreakdown, NullSpaceAmbiguous
from .linalg import determinant, solve_stack
from .model import (
    FourierMatrixDensity,
    HillBlocks,
    LMatrixTable,
    build_L,
    hill_matrix,
    index_classes,
    truncated_matrix,
)
from .rootfind import (
    CLASS_TOL,
    DEFAULT_BOX,
    DEFAULT_GRID,
    _newton,
    contour_classes,
    spectrum_key,
    strip_shift,
    to_strip,
)

__all__ = [
    "LadderSet",
    "FloquetMode",
    "ladder_operators",
    "assemble_M",
    "closure_determinant",
    "extract_mode",
    "find_exponents",
]

# both searches: the Newton budget from a Hill eigenvalue (a few steps
# wherever the closure determinant has its zero there; a pinched run stops
# at its first step outside CLASS_TOL of its class), and the largest move
# of a root at the enlarged truncation that still counts as converged
SEEDED_ITER = 8
CONV_TOL = 1e-8


@dataclass(frozen=True)
class LadderSet:
    """Ladder operators S^m_0 on the truncated window, phi_m = S^m_0 phi_0.

    `ops[m]` is S^m_0, a d x d array, for every m != 0 of the index class
    of n = 0 on |m| <= B, where B = n_win + depth; every other m has
    S^m_0 = 0 and no entry.  Built for a 1-D array of lambda, every array
    carries a leading lambda axis, and the operators of a lambda whose
    T_RR is singular, or that the exponent guard rejected, are NaN.
    """

    lam: complex | np.ndarray
    n_win: int
    depth: int
    table: LMatrixTable
    ops: dict

    @property
    def bound(self) -> int:
        return self.n_win + self.depth


def ladder_operators(
    density: FourierMatrixDensity,
    lam,
    n_win: int,
    depth: int,
) -> LadderSet:
    """The ladder operators S^m_0 on |n| <= n_win + depth, exactly.

    T(lambda) is read off the L table, and on the index class of n = 0,
    with R its indices other than 0, S = -T_RR^-1 T_R0 is one stacked
    LAPACK solve for every lambda (`linalg.solve_stack`).  A class of n = 0
    alone, as for a K = 0 kernel, has no operators and solves nothing.
    For a single `lam` a singular T_RR, the sign of lambda sitting at a
    resonance of the truncated problem, raises CfBreakdown; for a 1-D
    array of lambda it only marks that value, by NaN operators.
    """
    d = density.dim
    B = n_win + depth
    table = build_L(density, lam, B)
    members = next(c for c in index_classes(density, B) if 0 in c)
    others = members[members != 0]
    if others.size == 0:
        return LadderSet(table.lam, n_win, depth, table, {})
    rows = ((others + B)[:, None] * d + np.arange(d)).ravel()
    block0 = B * d + np.arange(d)
    T = truncated_matrix(table, B)
    S, singular = solve_stack(T[..., rows[:, None], rows], -T[..., rows[:, None], block0])
    if singular.ndim == 0 and singular:
        raise CfBreakdown("singular T_RR")
    S[singular] = np.nan
    S = S.reshape(S.shape[:-2] + (others.size, d, d))
    ops = {int(m): S[..., j, :, :] for j, m in enumerate(others)}
    return LadderSet(table.lam, n_win, depth, table, ops)


def _hill_logdet(hill, lams):
    """Sign and log magnitude of the Hill determinant det T(lambda) for a
    1-D array of lambda, T given by `hill` (`model.HillBlocks`): the
    product over T's index classes of their block determinants, NaN where
    the exponent guard rejects lambda."""
    with np.errstate(invalid="ignore"):
        return hill.slogdet(hill(lams))


def _hill_refine(hill, lam0: complex, tol: float):
    """`rootfind._newton`, at its default budget, on the entire Hill
    determinant det T, T given by `hill` (`model.HillBlocks`), scaled per
    call by exp(-max log|det T|) over its points: a common factor, which
    leaves the Newton step that of det T and keeps it finite."""

    def det_at(lams):
        signs, logabs = _hill_logdet(hill, lams)
        return signs * np.exp(logabs - np.max(logabs))

    return _newton(det_at, lam0, tol)


def assemble_M(
    density: FourierMatrixDensity,
    lam,
    n_win: int,
    depth: int,
    ladders: LadderSet | None = None,
) -> np.ndarray:
    """Closure matrix M(lambda) = sum_k L_{k,-k} S^{-k}_0 - lambda I, the
    Schur complement of T(lambda) onto block 0.

    For a 1-D array of lambda the result is a stack of matrices, NaN where
    the ladders broke down or the exponent guard rejected lambda.
    """
    if ladders is None:
        ladders = ladder_operators(density, lam, n_win, depth)
    table = ladders.table
    K = table.bandwidth
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    m = table.get(0, 0) - lam * np.eye(table.dim, dtype=complex)
    for k in range(-K, K + 1):
        if -k in ladders.ops:
            m = m + table.get(k, -k) @ ladders.ops[-k]
    return m


def closure_determinant(density: FourierMatrixDensity, lam, n_win: int, depth: int):
    """det M(lambda): a complex for one lambda (raising CfBreakdown or
    ExponentOverflow), an array with NaN at breakdowns for a 1-D array."""
    return determinant(assemble_M(density, lam, n_win, depth))


@dataclass(frozen=True)
class FloquetMode:
    """One Floquet eigenvalue with its Fourier components.

    `lam` is the strip representative (Im in (-1/2, 1/2]); `lam_raw` the
    Newton root the components are indexed against; they differ by an
    integer multiple of i.  `components[n + n_win]` is phi_n.
    """

    lam: complex
    lam_raw: complex
    components: np.ndarray
    residual: float
    n_win: int
    depth: int
    bandwidth: int
    converged: bool = True

    @property
    def multiplier(self) -> complex:
        return complex(np.exp(2.0 * np.pi * self.lam))

    @property
    def strip_offset(self) -> int:
        return strip_shift(self.lam_raw)

    def component(self, n: int) -> np.ndarray:
        return self.components[n + self.n_win]

    def segment(self, xi, theta):
        """Eigensolution profile phi_xi(theta) = sum_n phi_n e^{i n xi}
        e^{(lam_raw + i n) theta} (without the exp(lam xi) growth factor)."""
        n = np.arange(-self.n_win, self.n_win + 1)
        ph = np.exp(1j * n * xi) * np.exp((self.lam_raw + 1j * n) * theta)
        return ph @ self.components


def recurrence_residual(components, density, lam, left: bool = False) -> float:
    """Max norm of the banded recurrence over the interior window, relative
    to the largest component.

    The recurrence is T @ phi, or psi @ T for `left` (adjoint row vectors),
    with T = T(lam) on the components' window |n| <= n_win, read off the
    pencil of `model.hill_matrix`; its entries are taken on |n| <= n_win -
    K, where every coupled component is stored.  When the band is wider
    than the stored window that interior is empty; the primal residual then
    runs over the whole window with the unstored components taken as zero,
    a fair approximation because they sit beyond the truncation anyway.
    """
    n_win = (components.shape[0] - 1) // 2
    T = hill_matrix(density, n_win)(lam)
    return _residual(components, T, density.bandwidth, left)


def _residual(components, T, K: int, left: bool) -> float:
    """`recurrence_residual` with T on the components' window, K the band."""
    n_win = (components.shape[0] - 1) // 2
    inner = n_win - K
    if inner <= 0 and not left:
        inner = n_win
    flat = components.reshape(-1)
    rows = (flat @ T if left else T @ flat).reshape(components.shape)
    worst = np.max(np.abs(rows[n_win - inner : n_win + inner + 1]), initial=0.0)
    return float(worst) / max(float(np.max(np.abs(components))), 1e-300)


def _null_vector(
    density: FourierMatrixDensity,
    lam: complex,
    n_win: int,
    depth: int,
    left: bool = False,
    hill=None,
    window=None,
):
    """The null vector of the Hill matrix T(lambda) on |n| <= n_win + depth.

    One SVD of T gives the right null vector (T phi = 0) or, for `left`,
    the left one (psi T = 0, a row vector): the last singular vector on the
    respective side.  The SVD runs class by class (`model.HillBlocks`):
    the vector is that of the class with the smallest singular value, and
    the second smallest over all classes is T's own.  It is cut to
    |n| <= n_win, one row per block, and scaled so that the largest entry
    of block 0 is 1, or of the whole cut where block 0 is exactly zero:
    at a translate lambda + i m whose vector lives in a class without
    n = 0.  Returns the components, their recurrence residual and T's two
    smallest singular values, smallest first.  `hill`, T's class blocks
    (`model.HillBlocks`), and `window`, the pencil of T on |n| <= n_win that
    the residual reads, are built here unless the search holds them.
    """
    d = density.dim
    if hill is None:
        hill = HillBlocks(density, n_win + depth)
    if window is None:
        # the central block of T on the whole window: a pencil entry does
        # not depend on the bound
        window = hill_matrix(density, n_win)
    vec, least, second = hill.null_vector(hill(lam), left)
    cut = slice(depth * d, (depth + 2 * n_win + 1) * d)
    blocks = np.conj(vec[cut]).reshape(2 * n_win + 1, d)
    center = blocks[n_win] if blocks[n_win].any() else blocks.ravel()
    comps = blocks / center[np.argmax(np.abs(center))]
    residual = _residual(comps, window(lam), density.bandwidth, left)
    return comps, residual, least, second


def extract_mode(
    density: FourierMatrixDensity,
    lam: complex,
    n_win: int,
    depth: int,
    hill=None,
    window=None,
) -> FloquetMode:
    """The Floquet mode at a root `lam`: the right null vector of the Hill
    matrix T(lambda) on |n| <= n_win + depth, cut to the window.

    Its block 0 is scaled so that its largest entry is 1 (phi_0 = 1 for
    d = 1).  NullSpaceAmbiguous is raised when T's two smallest singular
    values are within a factor 10, the sign of a degenerate eigenvalue
    whose null space one vector does not describe.  `hill` and `window` are
    the pencils of `_null_vector`, if the caller holds them.
    """
    lam = complex(lam)
    comps, residual, least, second = _null_vector(
        density, lam, n_win, depth, hill=hill, window=window
    )
    if second <= 10.0 * least:
        raise NullSpaceAmbiguous(
            f"singular values {least:.3e}, {second:.3e} too close at {lam:.6g}"
        )
    return FloquetMode(
        lam=to_strip(lam),
        lam_raw=lam,
        components=comps,
        residual=residual,
        n_win=n_win,
        depth=depth,
        bandwidth=density.bandwidth,
    )


def find_exponents(
    density: FourierMatrixDensity,
    box=DEFAULT_BOX,
    n_win: int = 10,
    depth: int = 10,
    tol: float = 1e-10,
    grid=DEFAULT_GRID,
):
    """One Floquet mode per exponent class whose strip value lies in `box`.

    The search is `_search`, the class loop it shares with
    `risken.find_exponents_risken`, with Newton on det M(lambda).  Each
    class starts at the translate of its Hill eigenvalue where the null
    vector peaks at n = 0, so that det M has its zero there.  Where the run
    pinches its zero against a truncation resonance pole (it stops,
    unconverged, at its first step more than CLASS_TOL from its class
    modulo i), the mode is the Hill eigenvalue with T's right null vector
    there.  `grid` is unused: the search has no grid.

    Returns FloquetMode objects sorted by `rootfind.spectrum_key` of the
    strip representative.  An empty list (plus a NoRootsInBoxWarning)
    means the box contained no roots.
    """

    def det_at(lams):
        return closure_determinant(density, lams, n_win, depth)

    return _search(density, box, n_win, depth, tol, det_at)


def _search(
    density: FourierMatrixDensity,
    box,
    n_win: int,
    depth: int,
    tol: float,
    det_at,
):
    """The class loop of both continued fraction searches.

    `rootfind.contour_classes` locates the classes once, as eigenvalues of
    the Hill matrix T(lambda) on |n| <= n_win + depth, and one Newton run
    on `det_at`, the vectorized determinant of the route's closure, starts
    from each.  A converged run's mode is T's right null vector at its
    root (`extract_mode`); where the run does not converge, the mode is
    the contour value with T's right null vector there.  Whichever route
    produced it, the root is checked the same way: a `_newton` run on the
    entire Hill determinant at the enlarged truncation |n| <= n_win +
    depth + 2 (`_hill_refine`) starts from it, and `converged` records
    whether that run converged within CONV_TOL of the root.  The three
    pencils, the class blocks of T at both bounds and T on |n| <= n_win for
    the mode residuals, are built once, whatever the number of classes, and
    handed to every step; a search that finds no class builds only the
    first.  Returns the modes sorted by `rootfind.spectrum_key` of the
    strip value.
    """
    bound = n_win + depth
    hill = HillBlocks(density, bound)
    classes = contour_classes(hill, box)
    if not classes:
        return []
    enlarged = HillBlocks(density, bound + 2)
    pencils = {"hill": hill, "window": hill_matrix(density, n_win)}
    modes = []
    for lam in classes:
        root, ok = _newton(det_at, lam, tol, SEEDED_ITER, radius=CLASS_TOL)
        if ok:
            mode = extract_mode(density, root, n_win, depth, **pencils)
        else:
            # no ambiguity check: a wrong contour value may fail it
            comps, residual, _, _ = _null_vector(density, lam, n_win, depth, **pencils)
            mode = FloquetMode(
                to_strip(lam), lam, comps, residual, n_win, depth, density.bandwidth
            )
        bigger, ok = _hill_refine(enlarged, mode.lam_raw, tol)
        converged = bool(ok and abs(bigger - mode.lam_raw) <= CONV_TOL)
        modes.append(replace(mode, converged=converged))
    modes.sort(key=lambda m: spectrum_key(m.lam))
    return modes
