"""Root searches: a log|f| grid scan plus Newton for analytic scalar
functions, and a contour eigensolver for the Hill matrix T(lambda).

`find_roots` seeds Newton at the local minima of log|f| on a grid; the
functions it searches take a 1-D array of lambda and return NaN where a
value cannot be evaluated, and those points are masked.  `contour_classes`
locates the exponent classes of a periodic kernel for both continued
fraction routes, which refine one seed per class with `_newton`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    ContourCountWarning,
    ExponentOverflow,
    NewtonStallWarning,
    NoRootsInBoxWarning,
)

__all__ = ["SearchBox", "find_roots", "spectrum_key", "strip_shift", "to_strip"]

DEFAULT_BOX = (-3.0, 1.0, -0.5, 0.5)
DEFAULT_GRID = (61, 31)

# the scan hands f as many grid points at a time as keep each of its
# working arrays near this size, and the contour as many nodes as keep
# their class blocks near it
CHUNK_BYTES = 512 * 1024
# distance modulo i below which two roots are one exponent class: a
# Newton run from a Hill eigenvalue stops at its first iterate farther off,
# having left its class
CLASS_TOL = 1e-4
# the rounding error of an exponent on the strip edge Im = 1/2
STRIP_SLACK = 1e-12
# contour_classes: the lower strip edge, the Gauss-Legendre nodes per
# side, the probe columns to start from, the rank cut relative to the
# quadrature's scale, and the halvings allowed when the counts disagree
STRIP_EDGE = -0.25
SIDE_NODES = 64
PROBE_COLUMNS = 8
RANK_TOL = 1e-10
MAX_SPLITS = 3


@dataclass(frozen=True)
class SearchBox:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("search box must be non-degenerate")

    def contains(self, lam: complex, slack: float = 1e-9) -> bool:
        return (
            self.re_min - slack <= lam.real <= self.re_max + slack
            and self.im_min - slack <= lam.imag <= self.im_max + slack
        )


def strip_shift(lam: complex) -> int:
    """Integer s with Im(lam - i*s) in (-1/2, 1/2], up to STRIP_SLACK: a
    class of a real kernel at the edge Im = +-1/2 comes out a rounding
    error to either side, and is reported at +1/2 either way."""
    return int(np.ceil(lam.imag - 0.5 - STRIP_SLACK))


def to_strip(lam: complex) -> complex:
    return lam - 1j * strip_shift(lam)


def spectrum_key(lam: complex) -> tuple:
    """Sort key of every spectrum: descending Re, then ascending Im.  Re
    is rounded to 12 decimals, far above roundoff, so the two members of
    a conjugate pair, whose Re may differ by an ulp, tie on it and the
    lower member comes first."""
    return (-round(float(lam.real), 12), float(lam.imag))


def _minima_seeds(logabs: np.ndarray) -> list[tuple[int, int]]:
    """Indices of 8-neighborhood local minima of a masked log magnitude map.

    Only finite cells are candidates, and only a finite neighbor strictly
    below a cell disqualifies it; seeds come in row-major order.
    """
    nr, ni = logabs.shape
    pad = np.full((nr + 2, ni + 2), np.nan)
    pad[1:-1, 1:-1] = logabs
    seed = np.isfinite(logabs)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                w = pad[1 + di : 1 + di + nr, 1 + dj : 1 + dj + ni]
                seed &= ~(np.isfinite(w) & (w < logabs))
    return [(int(i), int(j)) for i, j in np.argwhere(seed)]


def _damped_newton(step, lam0: complex, tol: float, max_iter: int, radius=None):
    """Newton iteration lam <- lam - damping * step(lam).

    `step(lam)` returns the Newton step at lam, or None where none can be
    taken; the iteration then stops, unconverged, at lam.  With `radius`
    set, the iteration stops, unconverged, at its first iterate farther
    than `radius` from lam0 modulo i: a run seeded at an exponent class
    has left it there.  Otherwise a step of at most `tol` converges, and a
    run that has taken `max_iter` steps without one stops unconverged.
    Full steps cycle with period two when two roots sit close together;
    once the step size stops shrinking the iteration switches to damped
    steps, which settle into the nearer root.  Returns (root, converged).
    """
    lam = complex(lam0)
    prev = np.inf
    flat = 0
    damping = 1.0
    for _ in range(max_iter):
        delta = step(lam)
        if delta is None:
            return lam, False
        lam = lam - damping * delta
        size = abs(delta)
        if radius is not None and abs(to_strip(lam - lam0)) > radius:
            return lam, False
        if size <= tol:
            return lam, True
        if size >= 0.5 * prev:
            flat += 1
            if flat >= 3:
                damping = 0.5
        else:
            flat = 0
            damping = 1.0
        prev = size
    return lam, False


def _newton(f, lam0: complex, tol: float, max_iter: int = 40, radius=None):
    """Damped Newton iterations on f with a central difference derivative.

    `f` is vectorized; each step evaluates lambda and lambda +- h in one
    call, with h = 1e-6 * (1 + |lam|).  A non-finite value or a zero
    derivative stops the iteration unconverged, and so does the first
    iterate farther than `radius` from lam0 modulo i, a run seeded at an
    exponent class that has left it.  Returns (root, converged).
    """

    def step(lam):
        h = 1e-6 * (1.0 + abs(lam))
        vals = f(np.array([lam, lam + h, lam - h]))
        if not np.all(np.isfinite(vals)):
            return None
        f0, f_up, f_down = (complex(v) for v in vals)
        fp = (f_up - f_down) / (2.0 * h)
        return None if fp == 0 else f0 / fp

    return _damped_newton(step, lam0, tol, max_iter, radius=radius)


def find_roots(
    f,
    box=DEFAULT_BOX,
    grid=DEFAULT_GRID,
    tol: float = 1e-10,
    point_bytes: int = 16,
):
    """All roots of an analytic f found from a log|f| grid scan in `box`.

    `f` is vectorized: it takes a 1-D array of lambda values and returns
    an array of the same length, NaN wherever a value cannot be evaluated.
    It must not raise for a single bad lambda.  The flattened grid is
    evaluated in chunks of CHUNK_BYTES // point_bytes points, where
    `point_bytes` is the size of f's largest working array per lambda.

    Returns the converged roots that stay inside the scanned box (Newton
    may walk out of it), deduplicated within 10*tol and sorted by
    `spectrum_key`.  Non-evaluable grid points are masked; seeds whose
    Newton iteration does not converge are dropped with a warning.
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    nr, ni = grid
    res = np.linspace(sb.re_min, sb.re_max, nr)
    ims = np.linspace(sb.im_min, sb.im_max, ni)
    pts = np.empty((nr, ni), dtype=complex)
    pts.real = res[:, None]
    pts.imag = ims[None, :]
    pts = pts.reshape(-1)

    chunk = max(1, CHUNK_BYTES // max(int(point_bytes), 1))
    vals = np.empty(pts.size, dtype=complex)
    for start in range(0, pts.size, chunk):
        vals[start : start + chunk] = f(pts[start : start + chunk])
    with np.errstate(divide="ignore", over="ignore"):
        logabs = np.log(np.abs(vals)).reshape(nr, ni)

    roots: list[complex] = []
    stalled = 0
    for i, j in _minima_seeds(logabs):
        root, ok = _newton(f, complex(res[i], ims[j]), tol)
        if not ok:
            stalled += 1
            continue
        if not sb.contains(root, slack=1e-6):
            continue
        if any(abs(root - r) <= 10 * tol for r in roots):
            continue
        roots.append(root)
    if stalled:
        warnings.warn(
            f"{stalled} Newton seed(s) failed to converge and were dropped",
            NewtonStallWarning,
        )
    if not roots:
        warnings.warn("no roots found in the search box", NoRootsInBoxWarning)
    roots.sort(key=spectrum_key)
    return roots


def contour_classes(hill, box) -> list:
    """One eigenvalue of the Hill matrix T(lambda) per exponent class of
    its kernel whose strip value lies in `box`.

    T(lambda) is the truncated recurrence matrix on |n| <= hill.bound, the
    exponential pencil of `model.hill_matrix` on each size of T's index classes,
    given by `hill` (`model.HillBlocks`), which the search also hands to its mode
    SVDs.  A contour node costs one matrix product per size, not an L table, and
    the nodes go in batches whose class blocks hold about CHUNK_BYTES.  Every
    class has one eigenvalue in each period strip, and `_contour_solve` finds
    those in Re [box.re_min, box.re_max] of the strip with edges Im = STRIP_EDGE
    and STRIP_EDGE + 1, where a real kernel's real multipliers, at Im 0 and 1/2,
    lie inside rather than on an edge.  Each eigenvalue is returned as the
    translate lam + i*n* at which its null vector peaks at n = 0 (T(lam + i m)
    is T(lam) with its indices shifted by m), sorted by `spectrum_key` of the
    strip value.
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    batch = max(1, CHUNK_BYTES // (16 * hill.entries))
    found = []
    for lam, null in _contour_solve(hill, sb.re_min, sb.re_max, batch, MAX_SPLITS):
        if not sb.contains(to_strip(lam), slack=1e-6):
            continue
        # a real mode of a real kernel has |phi_n| = |phi_-n|; norms equal
        # to 8 digits tie, and the tie goes to the lowest n, not to rounding
        norms = np.linalg.norm(null.reshape(2 * hill.bound + 1, -1), axis=1)
        peak = int(np.argmax(np.round(norms / norms.max(), 8))) - hill.bound
        found.append(lam + 1j * peak)
    if not found:
        warnings.warn("no roots found in the search box", NoRootsInBoxWarning)
    found.sort(key=lambda lam: spectrum_key(to_strip(lam)))
    return found


@cache
def _gauss_rule():
    """The SIDE_NODES-point Gauss-Legendre nodes and weights on [-1, 1],
    computed on the first contour of the process and kept, read-only."""
    x, w = np.polynomial.legendre.leggauss(SIDE_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _contour_solve(hill, re0: float, re1: float, batch: int, splits: int):
    """Eigenvalues of T in the strip rectangle over Re [re0, re1], with
    their null vectors, by Beyn's integral method (Linear Algebra Appl.
    436, 2012); `hill` is a `model.HillBlocks`, whose solves and
    determinants run class by class.  The probe columns and the moments are
    kept in its class order, so a node's solve gathers and scatters
    nothing, and the moments go back to T's index order once per pass.

    The moments A_j = (1/2 pi i) contour-integral z^j T(z)^-1 V dz, j = 0, 1,
    are summed by Gauss-Legendre quadrature on each side over batches of
    `batch` nodes, each one `solve` and one `slogdet` call per class size.
    The rank k of A_0 counts the eigenvalues inside, and the probe
    columns V are doubled while k equals their number.  With
    A_0 = U S W^H cut to rank k, the eigenvalues are those of
    U^H A_1 W S^-1 and the null vectors U times its eigenvectors.
    Quadrature leakage lets in eigenvalues just outside; only those inside
    are kept, and their number must equal the winding number of det T
    along the rectangle, from the phases `slogdet` gives at the same
    nodes.  Where it does not, the rectangle is halved along Re, at most
    `splits` times, and then kept with a ContourCountWarning.
    """
    corners = np.array([re0, re1, re1 + 1j, re0 + 1j]) + 1j * STRIP_EDGE
    half = (np.roll(corners, -1) - corners)[:, None] / 2
    x, w = _gauss_rule()
    z = (corners[:, None] + half * (1 + x)).ravel()
    weights = (half * w).ravel()
    size = hill.size
    columns = min(PROBE_COLUMNS, size)
    while True:
        # deterministic probe columns, with no random generator: column c
        # holds the powers z_c^r, r = 1..size, of the distinct points
        # z_c = exp(2 pi i frac(c g)) of the unit circle, g the golden ratio
        turns = np.mod(np.arange(1, columns + 1) * (1 + 5**0.5) / 2, 1.0)
        probe = np.exp(2j * np.pi * np.mod(np.arange(1, size + 1)[:, None] * turns, 1.0))
        # the probe and the moments are in the class order of `hill.solve`
        # until the moments are summed
        probe = probe[hill.order]
        m0 = np.zeros((size, columns), dtype=complex)
        m1 = np.zeros((size, columns), dtype=complex)
        phases = np.empty(z.size, dtype=complex)
        # the size of the quadrature's terms, which its rounding scales with
        scale = 0.0
        for start in range(0, z.size, batch):
            nodes = z[start : start + batch]
            T = hill(nodes)
            if not all(np.isfinite(block).all() for block in T):
                raise ExponentOverflow("the search box reaches the exponent guard")
            X = hill.solve(T, probe)
            wx = weights[start : start + batch, None, None] * X
            scale += float(np.abs(wx).max(axis=(1, 2)).sum())
            m0 += wx.sum(axis=0)
            m1 += (nodes[:, None, None] * wx).sum(axis=0)
            phases[start : start + batch] = hill.slogdet(T)[0]
        m0[hill.order], m1[hill.order] = m0.copy(), m1.copy()  # T's index order
        U, s, Wh = np.linalg.svd(m0 / (2j * np.pi), full_matrices=False)
        rank = int(np.count_nonzero(s > RANK_TOL * scale / (2 * np.pi)))
        if rank < columns or columns == size:
            break
        columns = min(2 * columns, size)
    U, s, W = U[:, :rank], s[:rank], Wh[:rank].conj().T
    lams, vecs = np.linalg.eig(U.conj().T @ (m1 / (2j * np.pi)) @ W / s)
    inside = [
        (complex(lam), U @ vec)
        for lam, vec in zip(lams, vecs.T)
        if re0 <= lam.real <= re1 and STRIP_EDGE <= lam.imag <= STRIP_EDGE + 1
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        winding = np.angle(np.roll(phases, -1) / phases).sum() / (2 * np.pi)
    if abs(winding - len(inside)) < 0.5:
        return inside
    if splits > 0:
        mid = 0.5 * (re0 + re1)
        return _contour_solve(hill, re0, mid, batch, splits - 1) + _contour_solve(
            hill, mid, re1, batch, splits - 1
        )
    warnings.warn(
        f"{len(inside)} eigenvalue(s) in Re [{re0:.6g}, {re1:.6g}] against a "
        f"winding number of {winding:.3f}",
        ContourCountWarning,
    )
    return inside
