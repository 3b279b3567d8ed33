"""Root searches: a log|f| grid scan plus Newton for analytic scalar
functions, and a contour eigensolver for the Hill matrix T(lambda).

`find_roots` seeds Newton at the local minima of log|f| on a grid; the
functions it searches take a 1-D array of lambda and return NaN where a
value cannot be evaluated, and those points are masked.  `contour_classes`
locates the exponent classes of a periodic kernel for both continued
fraction routes, which refine one seed per class with `_newton`.  Its
contour is a rectangle symmetric about the real axis, and for a real
kernel, whose Hill matrix obeys T(conj lambda) = J conj(T(lambda)) J with
J the reversal n -> -n, it solves only the nodes below the axis and
mirrors the rest.
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
# contour_classes: the half height h of its first rectangle, Im [-h, h],
# whose edges lie on Im = -1/4 and 1/4 modulo 1, where a real kernel's real
# multipliers, at Im 0 and 1/2, lie inside rather than on an edge; the low
# end of the strip [STRIP_EDGE, STRIP_EDGE + 1) whose translate of a class
# is kept where a rectangle holds two; the Gauss-Legendre nodes per side,
# the probe columns beyond the winding count, the rank cut relative to the
# quadrature's scale, the largest phase step of det T the winding count
# trusts and the halvings of a step allowed to get there, the largest
# acceptance residual |T v| / (|T|_F |v|) of an eigenvalue, the node
# spacings that a widened side may move out, and the edge moves and splits
# allowed along any path when a rectangle fails
HALF_HEIGHT = 0.75
STRIP_EDGE = HALF_HEIGHT - 1.0
SIDE_NODES = 32
PROBE_COLUMNS = 12
RANK_TOL = 1e-12
PHASE_STEP = 1.0
PHASE_HALVINGS = 8
ACCEPT_TOL = 1e-6
WIDEN_SPACINGS = 4
MAX_MOVES = 3


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
    those in the rectangle Re [box.re_min, box.re_max], Im [-h, h], symmetric
    about the real axis, starting from h = HALF_HEIGHT, whose edges lie a
    quarter period from a real kernel's real multipliers, at Im 0 and 1/2.
    It returns only eigenvalues that pass its residual check, and it may
    move the edges or widen the rectangle past the box to keep eigenvalues
    off its sides, so the values are filtered by the box here.  A rectangle
    taller than one period holds some classes at two translates, lam and
    lam + i m; of those the translate with Im in [STRIP_EDGE, STRIP_EDGE +
    1) is kept, the one a rectangle Im [-1/4, 3/4] would hold.  Each
    eigenvalue is returned as the translate lam + i*n* at which its null
    vector peaks at n = 0 (T(lam + i m) is T(lam) with its indices shifted
    by m), sorted by `spectrum_key` of the strip value.
    """
    sb = box if isinstance(box, SearchBox) else SearchBox(*box)
    batch = max(1, CHUNK_BYTES // (16 * hill.entries))
    solved = _contour_solve(hill, sb.re_min, sb.re_max, HALF_HEIGHT, batch, MAX_MOVES)
    # the kept translate first; a later translate of a class already kept,
    # at a nonzero integer distance in Im, is dropped
    solved.sort(key=lambda pair: not STRIP_EDGE <= pair[0].imag < STRIP_EDGE + 1)
    kept, found = [], []
    for lam, null in solved:
        if not sb.contains(to_strip(lam), slack=1e-6):
            continue
        if any(
            abs(lam - k) > 0.5 and abs(to_strip(lam - k)) < CLASS_TOL for k in kept
        ):
            continue
        kept.append(lam)
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
    made exactly symmetric, x[::-1] = -x and w[::-1] = w, computed on the
    first contour of the process and kept, read-only."""
    x, w = np.polynomial.legendre.leggauss(SIDE_NODES)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _blocks(hill, lams):
    """T's class blocks at the 1-D array `lams`; ExponentOverflow where the
    exponent guard rejects one of them."""
    T = hill(lams)
    if not all(np.isfinite(block).all() for block in T):
        raise ExponentOverflow("the search box reaches the exponent guard")
    return T


# The rectangle Re [re0, re1], Im [-h, h] is walked counterclockwise by a
# parameter tau in (-2, 2], one unit a side, with tau and -tau mirror images
# of each other: tau = 0 is (re1, 0) on the right side, the bottom side is
# tau in [-3/2, -1/2], the top side [1/2, 3/2], and tau = 2 is (re0, 0) on
# the left side.  Negation is exact, so a point's mirror is found by value.


def _point(tau, re0: float, re1: float, h: float) -> np.ndarray:
    """The points of the rectangle at the parameters `tau`, those above the
    real axis the exact conjugates of their mirrors below it."""
    s = -np.abs(tau)
    z = np.where(
        s < -1.5,
        re0 - 2j * h * (s + 2),
        np.where(s > -0.5, re1 + 2j * h * s, re0 + (re1 - re0) * (s + 1.5) - 1j * h),
    )
    return np.where(tau > 0, z.conj(), z)


def _rectangle(re0: float, re1: float, h: float):
    """The parameters, points and quadrature weights (dz included) of the
    SIDE_NODES Gauss-Legendre nodes of each side, in contour order: the
    lower halves of the left and right sides and the bottom side, then
    their mirrors, whose weights are -conj of theirs."""
    x, w = _gauss_rule()
    left, right = x > 0, x < 0
    tau = np.concatenate([x[left] / 2 - 2, x / 2 - 1, x[right] / 2])
    dz = np.repeat([-2j * h, re1 - re0, 2j * h], [left.sum(), x.size, right.sum()])
    weights = 0.5 * np.concatenate([w[left], w, w[right]]) * dz
    tau = np.concatenate([tau, -tau[::-1]])
    weights = np.concatenate([weights, -weights[::-1].conj()])
    return tau, _point(tau, re0, re1, h), weights


def _solved(hill, tau) -> np.ndarray:
    """The parameters whose T is evaluated: all of them, or for a real kernel
    those not above the real axis; a point above has T(conj z) = J conj(T(z))
    J at its mirror z below."""
    return (tau <= 0) | (tau == 2) | (not hill.real)


def _phases(hill, tau, point, batch: int) -> np.ndarray:
    """The phase exp(i arg det T) at the contour parameters `tau`, at the
    points point(tau), `batch` points a call.  For a real kernel `tau` holds
    every mirror, and a point above the real axis takes the conjugate of its
    mirror's phase: det T(conj z) = conj det T(z)."""
    solved = _solved(hill, tau)
    z = point(tau[solved])
    phases = np.empty(tau.size, dtype=complex)
    phases[solved] = np.concatenate(
        [
            hill.slogdet(_blocks(hill, z[start : start + batch]))[0]
            for start in range(0, z.size, batch)
        ]
    )
    order = np.argsort(tau)
    mirror = order[np.searchsorted(tau, -tau[~solved], sorter=order)]
    phases[~solved] = phases[mirror].conj()
    return phases


def _winding(hill, tau, phases, point, batch: int):
    """The winding number of det T along the rectangle, from its phases at
    the ascending contour parameters `tau`.  Wherever the phase turns by
    more than PHASE_STEP between neighbours, the midpoint is inserted, with
    its mirror for a real kernel, and only its phase computed, at most
    PHASE_HALVINGS times over.  Returns the winding number and whether every
    step came within PHASE_STEP."""
    for halvings in range(PHASE_HALVINGS + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(np.roll(phases, -1) / phases)
        wide = np.abs(steps) > PHASE_STEP
        if halvings == PHASE_HALVINGS or not wide.any():
            break
        mids = 0.5 * (tau[:-1] + tau[1:])
        # the last step passes tau = 2 = -2; written so that its midpoint
        # is the exact mirror of the step it mirrors
        last = 0.5 * (tau[0] - 2) if tau[-1] == 2 else 0.5 * (tau[-1] + tau[0]) + 2
        mids = np.append(mids, last - 4 if last > 2 else last)[wide]
        if hill.real:
            mids = np.union1d(mids, np.where(mids == 2, mids, -mids))
        order = np.argsort(np.concatenate([tau, mids]), kind="stable")
        tau = np.concatenate([tau, mids])[order]
        phases = np.concatenate([phases, _phases(hill, mids, point, batch)])[order]
    return steps.sum() / (2 * np.pi), not wide.any()


def _acceptance(hill, lams, vecs) -> np.ndarray:
    """|T(lam) v| / (|T(lam)|_F |v|) for each eigenvalue lam and its vector
    v, a column of `vecs` in T's index order: one `hill` call for all of
    them, T v applied and |T|_F summed class block by class block."""
    blocks = _blocks(hill, lams)
    frobenius = sum((np.abs(T) ** 2).sum(axis=(1, 2, 3)) for T in blocks)
    image = np.linalg.norm(hill.apply(blocks, vecs.T), axis=1)
    return image / np.sqrt(frobenius) / np.linalg.norm(vecs, axis=0)


def _widest_gap(points, lo: float, hi: float) -> float:
    """The middle of the widest gap between the `points` in (lo, hi), the
    ends lo and hi counting as points."""
    p = np.sort(np.concatenate([[lo, hi], [v for v in points if lo < v < hi]]))
    i = int(np.argmax(np.diff(p)))
    return 0.5 * (p[i] + p[i + 1])


def _probe(hill, columns: int) -> np.ndarray:
    """Deterministic probe columns, with no random generator, in T's index
    order, with J conj(V) = V: entry (n, i) of column c is cos(2 pi t)
    exp(2 pi i t n) at t = frac((c d + i + 1) g), g the golden ratio, so
    each component of each column takes its own point of the unit circle,
    and the real factor keeps the rows of n = 0 apart."""
    d = hill.size // (2 * hill.bound + 1)
    turns = np.mod(
        (np.arange(columns) * d + np.arange(1, d + 1)[:, None]) * (1 + 5**0.5) / 2, 1.0
    )
    n = np.arange(-hill.bound, hill.bound + 1)[:, None, None]
    probe = np.cos(2 * np.pi * turns) * np.exp(2j * np.pi * np.mod(n * turns, 1.0))
    return probe.reshape(hill.size, columns)


def _contour_solve(
    hill,
    re0: float,
    re1: float,
    h: float,
    batch: int,
    moves: int,
    outer=(True, True),
):
    """Eigenvalues of T in the rectangle Re [re0, re1], Im [-h, h], with their
    null vectors, by Beyn's integral method (Linear Algebra Appl. 436, 2012)
    in its block Hankel form; `hill` is a `model.HillBlocks`, whose solves and
    determinants run class by class.  The probe columns and the moments are
    kept in its class order, so a node's solve gathers and scatters nothing,
    and the moments go back to T's index order once per pass.

    The rectangle is symmetric about the real axis.  For a real kernel
    (`hill.real`) T(conj z) = J conj(T(z)) J, J the reversal n -> -n, so only
    its nodes below the axis are solved, half of them, and each value above
    is the mirror of one below; for any other kernel every node is solved.
    A first pass takes the phase of det T at the SIDE_NODES Gauss-Legendre
    nodes of each side, one `slogdet` call per class size and batch of
    `batch` nodes, and refines the steps wider than PHASE_STEP (`_winding`),
    which counts the eigenvalues inside.  The probe V, with J conj(V) = V,
    gets that count plus PROBE_COLUMNS columns.  The moments A_p = (1/2 pi
    i) contour-integral u^p T(z)^-1 V dz, p = 0..3, u = (z - c) / r for the
    rectangle's centre c and half size r, are summed by the same quadrature,
    one `solve` call per class size and batch, over the nodes solved: for a
    real kernel A_p = (S_p - J conj S_p) / (2 pi i), S_p the sum below the
    axis.  The block Hankel matrices B_0 = [A_(i+j)] and B_1 = [A_(i+j+1)],
    i, j = 0, 1, resolve up to twice as many eigenvalues per index class as
    A_0 alone, which a class of K = 0, of size d, holding a conjugate pair
    needs.  The rank k of B_0 counts the eigenvalues again, and the probe
    columns are doubled while k fills B_0's width.  With B_0 = U S W^H cut to
    rank k, the eigenvalues are c + r times those of U^H B_1 W S^-1, and the
    null vectors the first T-sized rows of U times its eigenvectors.
    Quadrature leakage lets in eigenvalues just outside; only those inside
    are kept.

    The rectangle passes when the winding count was resolved, equals the
    number inside, and every eigenvalue inside has an acceptance residual
    (`_acceptance`) of at most ACCEPT_TOL.  The quadrature's error grows as
    an eigenvalue nears the contour, measured in node spacings (S. Guttel
    and F. Tisseur, Acta Numerica 26, 2017, section 5), so a rectangle that
    fails is moved before it is split, at most `moves` times along any
    path.  Where an eigenvalue, inside or leaked, lies within one node
    spacing of a horizontal edge modulo 1, the lower edge -h goes to the
    middle of the widest gap of the eigenvalues' Im and their mirrors'
    modulo 1, and h, in [1/2, 3/2), keeps the upper edge in a gap as wide;
    where one lies within a spacing 2h / SIDE_NODES of a vertical side that
    is `outer` (not a split line), that side moves out to the widest gap of
    the eigenvalues' Re within WIDEN_SPACINGS spacings outside it; and the
    rectangle is solved again with every such move made.  Where neither
    applies, the rectangle is split at the widest Re gap of its middle half.
    A rectangle still failing when the moves run out keeps its accepted
    eigenvalues, with a ContourCountWarning.
    """
    tau, z, weights = _rectangle(re0, re1, h)

    def point(t):
        return _point(t, re0, re1, h)

    phases = _phases(hill, tau, point, batch)
    winding, resolved = _winding(hill, tau, phases, point, batch)
    size, bound = hill.size, hill.bound
    count = int(round(winding)) if np.isfinite(winding) else 0
    columns = min(max(count, 0) + PROBE_COLUMNS, size)
    solved = _solved(hill, tau)
    z, weights = z[solved], weights[solved]
    centre, radius = 0.5 * (re0 + re1), max(0.5 * (re1 - re0), h)
    # the quadrature weights of u^p T(z)^-1 V dz, p = 0..3, one row per node
    powers = weights[:, None] * ((z - centre) / radius)[:, None] ** np.arange(4)
    while True:
        # the probe and the moments are in the class order of `hill.solve`
        # until the moments are summed
        probe = _probe(hill, columns)[hill.order]
        moments = np.zeros((4, size * columns), dtype=complex)
        # the size of the quadrature's terms, which its rounding scales with
        scale = 0.0
        for start in range(0, z.size, batch):
            at = slice(start, start + batch)
            X = hill.solve(_blocks(hill, z[at]), probe)
            scale += float(np.abs(X).max(axis=(1, 2)) @ np.abs(weights[at]))
            moments += powers[at].T @ X.reshape(X.shape[0], -1)
        moments = moments.reshape(4, size, columns)
        moments[:, hill.order] = moments.copy()  # T's index order
        if hill.real:
            # the nodes above the axis: -J conj of the sums below, with
            # terms as large
            flipped = moments.reshape(4, 2 * bound + 1, -1, columns)[:, ::-1]
            moments -= flipped.conj().reshape(moments.shape)
            scale *= 2
        A = moments / (2j * np.pi)
        hankel = np.block([[A[0], A[1]], [A[1], A[2]]])
        U, s, Wh = np.linalg.svd(hankel, full_matrices=False)
        rank = int(np.count_nonzero(s > RANK_TOL * scale / (2 * np.pi)))
        if rank < 2 * columns or columns == size:
            break
        columns = min(2 * columns, size)
    U, s, W = U[:, :rank], s[:rank], Wh[:rank].conj().T
    shifted = np.block([[A[1], A[2]], [A[2], A[3]]])
    lams, vecs = np.linalg.eig(U.conj().T @ shifted @ W / s)
    lams = centre + radius * lams
    vecs = U[:size] @ vecs
    inside = (re0 <= lams.real) & (lams.real <= re1) & (np.abs(lams.imag) <= h)
    residual = np.full(lams.size, np.inf)
    residual[inside] = _acceptance(hill, lams[inside], vecs[:, inside])
    accepted = np.flatnonzero(residual <= ACCEPT_TOL)
    found = [(complex(lams[i]), vecs[:, i]) for i in accepted]
    rejected = np.count_nonzero(inside) - len(found)
    if resolved and not rejected and abs(winding - len(found)) < 0.5:
        return found
    if moves > 0:
        across, up = (re1 - re0) / SIDE_NODES, 2 * h / SIDE_NODES
        moved = (re0, re1, h)
        offset = np.mod(lams.imag[:, None] + [h, -h], 1.0)
        if np.any(np.minimum(offset, 1.0 - offset) < across):
            heights = np.mod(np.concatenate([lams.imag, -lams.imag]), 1.0)
            low = heights.min()
            # -h to the widest gap; h, its mirror, is the middle of a gap
            # of the mirrored heights as wide
            h = 0.5 + np.mod(-_widest_gap(heights, low, low + 1.0) - 0.5, 1.0)
        reach = WIDEN_SPACINGS * up
        if outer[0] and np.any(np.abs(lams.real - re0) < up):
            re0 = _widest_gap(lams.real, re0 - reach, re0)
        if outer[1] and np.any(np.abs(lams.real - re1) < up):
            re1 = _widest_gap(lams.real, re1, re1 + reach)
        if (re0, re1, h) != moved:
            return _contour_solve(hill, re0, re1, h, batch, moves - 1, outer)
        quarter = 0.25 * (re1 - re0)
        mid = _widest_gap(lams.real, re0 + quarter, re1 - quarter)
        return _contour_solve(
            hill, re0, mid, h, batch, moves - 1, (outer[0], False)
        ) + _contour_solve(hill, mid, re1, h, batch, moves - 1, (False, outer[1]))
    warnings.warn(
        f"{len(found)} eigenvalue(s) in Re [{re0:.6g}, {re1:.6g}] against a "
        f"winding number of {winding:.3f}"
        + (f", {rejected} rejected by the residual check" if rejected else "")
        + ("" if resolved else ", the phase steps unresolved"),
        ContourCountWarning,
    )
    return found
