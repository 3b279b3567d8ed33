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

__all__ = ["SearchBox", "find_roots", "find_classes", "strip_shift", "to_strip"]

DEFAULT_BOX = (-3.0, 1.0, -0.5, 0.5)
DEFAULT_GRID = (61, 31)

# the scan hands f as many grid points at a time as keep each of its
# working arrays near this size
CHUNK_BYTES = 128 * 1024
# a damped Newton run has reached a truncation cluster's floor once its
# smallest step is within FLOOR_TOL * (1 + |lam|) and STALL_STEPS steps in a
# row have not set a new smallest step
FLOOR_TOL = 1e-4
STALL_STEPS = 6
# distance modulo i below which two roots are one exponent class: the
# cluster scale of a Hill-refined root, not the Newton tolerance
CLASS_TOL = 1e-4


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


def _damped_newton(step, lam0: complex, tol: float, max_iter: int, loose_tol=None):
    """Newton iteration lam <- lam - damping * step(lam).

    `step(lam)` returns the Newton step at lam, or None where none can be
    taken; the iteration then stops, unconverged, at lam.  A step of at
    most `tol` converges.  Full steps cycle with period two when two roots
    sit close together; once the step size stops shrinking the iteration
    switches to damped steps, which settle into the nearer root.
    Truncation can split one root into a tight cluster of zeros (or pinch
    it against a pole), and the step size then floors at the cluster
    spacing: the iteration stops at that floor, once the smallest step is
    within FLOOR_TOL and STALL_STEPS steps have not improved on it, rather
    than spending its budget.  With `loose_tol` set, the point of smallest
    step is then accepted if that step is within `loose_tol`.
    Returns (root, converged).
    """
    lam = complex(lam0)
    prev = np.inf
    flat = 0
    damping = 1.0
    best = np.inf
    best_lam = lam
    since_best = 0
    for _ in range(max_iter):
        delta = step(lam)
        if delta is None:
            return lam, False
        lam = lam - damping * delta
        size = abs(delta)
        if size <= tol:
            return lam, True
        if size < best:
            best = size
            best_lam = lam
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_STEPS and best <= FLOOR_TOL * (1.0 + abs(best_lam)):
                break
        if size >= 0.5 * prev:
            flat += 1
            if flat >= 3:
                damping = 0.5
        else:
            flat = 0
            damping = 1.0
        prev = size
    if loose_tol is not None and best <= loose_tol * (1.0 + abs(best_lam)):
        return best_lam, True
    return lam, False


def _newton(f, lam0: complex, tol: float, max_iter: int = 40):
    """Damped Newton iterations on f with a central difference derivative.

    `f` is vectorized; each step evaluates lambda and lambda +- h in one
    call, with h = 1e-6 * (1 + |lam|).  A non-finite value or a zero
    derivative stops the iteration unconverged.  Returns (root, converged).
    """

    def step(lam):
        h = 1e-6 * (1.0 + abs(lam))
        vals = f(np.array([lam, lam + h, lam - h]))
        if not np.all(np.isfinite(vals)):
            return None
        f0, f_up, f_down = (complex(v) for v in vals)
        fp = (f_up - f_down) / (2.0 * h)
        return None if fp == 0 else f0 / fp

    return _damped_newton(step, lam0, tol, max_iter)


def find_roots(
    f,
    box=DEFAULT_BOX,
    grid=DEFAULT_GRID,
    tol: float = 1e-10,
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

    Returns the converged roots, deduplicated within 10*tol and sorted by
    (-Re, Im).  Non-evaluable grid points are masked; seeds whose Newton
    iteration stalls are dropped with a warning.  `accept(root)` filters
    converged roots; by default roots must stay inside the scanned box
    (Newton may walk out of it).  `refine(seed)` replaces the default Newton
    refinement when given; it must return (root, converged).
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    if accept is None:
        accept = lambda z: sb.contains(z, slack=1e-6)
    if refine is None:
        refine = lambda seed: _newton(f, seed, tol)
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
        seed = complex(res[i], ims[j])
        root, ok = refine(seed)
        if not ok:
            stalled += 1
            continue
        if not accept(root):
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
    roots.sort(key=lambda z: (-z.real, z.imag))
    return roots


def find_classes(
    f, box, grid, pad: float, tol: float, refine=None, point_bytes: int = 16
) -> list[complex]:
    """One raw root of f per mod-i class whose strip representative lies
    in `box`.

    Truncated closure determinants vanish at the mod-i translate of an
    exponent class where a dominant Fourier component sits at the block
    center, which may lie outside the strip.  The scan therefore covers
    `box` widened by at least `pad` in the imaginary direction, at the same
    grid step, and a converged root is kept when the root itself or its
    strip representative falls in `box`.  Roots whose strip values agree
    modulo i within CLASS_TOL are one class, so the two edges Im = +-1/2
    of the strip meet, and so do the translates of one exponent that a
    Hill refinement located only to the cluster scale; a class keeps the
    raw root of smallest |Im|.  Returns the raw roots in the order their
    classes were found.
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    nr, ni = grid
    step = (sb.im_max - sb.im_min) / max(ni - 1, 1)
    extra = int(np.ceil(pad / step)) if pad > 0 else 0
    wide = SearchBox(
        sb.re_min, sb.re_max, sb.im_min - extra * step, sb.im_max + extra * step
    )

    def accept(z):
        return sb.contains(z, slack=1e-6) or sb.contains(to_strip(z), slack=1e-6)

    raw = find_roots(
        f,
        box=wide,
        grid=(nr, ni + 2 * extra),
        tol=tol,
        accept=accept,
        refine=refine,
        point_bytes=point_bytes,
    )
    by_class: dict = {}
    for root in raw:
        strip = to_strip(root)
        key = next((k for k in by_class if abs(to_strip(strip - k)) <= CLASS_TOL), None)
        if key is None:
            by_class[strip] = root
        elif abs(root.imag) < abs(by_class[key].imag):
            by_class[key] = root
    return list(by_class.values())
