"""Grid scan plus Newton refinement for roots of analytic scalar functions.

Used for every determinant style root search in the package: the continued
fraction closure det M(lambda), its tridiagonal block variant, and the
constant coefficient characteristic function.  The scan maps log|f| over a
rectangle, seeds Newton at the local minima and deduplicates the converged
roots.  The functions searched are vectorized: they take a 1-D array of
lambda values and return NaN where a value cannot be evaluated (continued
fraction breakdown, exponent overflow); those points are masked out of the
seeding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NewtonStallWarning, NoRootsInBoxWarning

__all__ = ["SearchBox", "find_roots", "strip_shift", "to_strip"]

DEFAULT_BOX = (-3.0, 1.0, -0.5, 0.5)
DEFAULT_GRID = (61, 31)

# the scan hands f as many grid points at a time as keep each of its
# working arrays near this size
CHUNK_BYTES = 128 * 1024


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
    """Integer s with Im(lam - i*s) in (-1/2, 1/2]."""
    return int(np.ceil(lam.imag - 0.5))


def to_strip(lam: complex) -> complex:
    return lam - 1j * strip_shift(lam)


def pad_box_im(box, grid, pad: float):
    """Widen the imaginary range by `pad` keeping the grid step.

    Truncated closure determinants vanish at the mod-i translate of an
    exponent class where a dominant Fourier component sits at the block
    center, which may lie outside the strip; scans therefore cover a
    widened band and fold the results back.
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    nr, ni = grid
    step = (sb.im_max - sb.im_min) / max(ni - 1, 1)
    extra = int(np.ceil(pad / step)) if pad > 0 else 0
    wide = SearchBox(
        sb.re_min, sb.re_max, sb.im_min - extra * step, sb.im_max + extra * step
    )
    return sb, wide, (nr, ni + 2 * extra)


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


def _newton(f, lam0: complex, tol: float, max_iter: int = 40):
    """Newton iterations with a central difference derivative.

    `f` is vectorized; each step evaluates lambda and lambda +- h in one
    call.  Returns (root, converged).  The derivative step is
    1e-6 * (1 + |lam|).  Full steps cycle with period two when two roots
    sit close together; once the step size stops shrinking the iteration
    switches to damped steps, which settle into the nearer root.
    """
    lam = complex(lam0)
    prev = np.inf
    flat = 0
    damping = 1.0
    for _ in range(max_iter):
        h = 1e-6 * (1.0 + abs(lam))
        vals = f(np.array([lam, lam + h, lam - h]))
        if not np.all(np.isfinite(vals)):
            return lam, False
        f0, f_up, f_down = (complex(v) for v in vals)
        fp = (f_up - f_down) / (2.0 * h)
        if fp == 0:
            return lam, False
        step = f0 / fp
        lam = lam - damping * step
        if abs(step) <= tol:
            return lam, True
        if abs(step) >= 0.5 * prev:
            flat += 1
            if flat >= 3:
                damping = 0.5
        else:
            flat = 0
            damping = 1.0
        prev = abs(step)
    return lam, False


def find_roots(
    f,
    box=DEFAULT_BOX,
    grid=DEFAULT_GRID,
    tol: float = 1e-10,
    max_newton: int = 40,
    accept=None,
    refine=None,
    point_bytes: int = 16,
):
    """All roots of an analytic f found from a log|f| grid scan in `box`.

    `f` is vectorized: it takes a 1-D array of lambda values and returns
    an array of the same length, NaN wherever a value cannot be evaluated.
    It must not raise for a single bad lambda.  The flattened grid is
    evaluated in chunks of CHUNK_BYTES // point_bytes points, where
    `point_bytes` is the size of f's largest working array per lambda.

    Returns a list of (root, converged) with roots deduplicated within
    10*tol and sorted by (-Re, Im).  Non-evaluable grid points are masked;
    seeds whose Newton iteration stalls are dropped with a warning.
    `accept(root)` filters converged roots; by default roots must stay
    inside the scanned box (Newton may walk out of it).  `refine(seed)`
    replaces the default Newton refinement when given; it must return
    (root, converged).
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    if accept is None:
        accept = lambda z: sb.contains(z, slack=1e-6)
    if refine is None:
        refine = lambda seed: _newton(f, seed, tol, max_iter=max_newton)
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

    roots: list[tuple[complex, bool]] = []
    stalled = 0
    for i, j in _minima_seeds(logabs):
        seed = complex(res[i], ims[j])
        root, ok = refine(seed)
        if not ok:
            stalled += 1
            continue
        if not accept(root):
            continue
        if any(abs(root - r) <= 10 * tol for r, _ in roots):
            continue
        roots.append((root, True))
    if stalled:
        warnings.warn(
            f"{stalled} Newton seed(s) failed to converge and were dropped",
            NewtonStallWarning,
        )
    if not roots:
        warnings.warn("no roots found in the search box", NoRootsInBoxWarning)
    roots.sort(key=lambda t: (-t[0].real, t[0].imag))
    return roots
