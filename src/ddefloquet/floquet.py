"""Floquet exponents of a time periodic kernel by matrix valued continued
fractions.

The Fourier components phi_n of an eigensolution obey the banded recurrence

    0 = sum_k [L_{k,n-k} - delta_{k0} (lambda + i n) I] phi_{n-k},

closed by ladder operators S^m_n with phi_{n+m} = S^m_n phi_n.  Each ladder
operator satisfies the inversion relation

    S^m_n = -[ sum_{k != m} A_{k,n+m} S^{-k}_{n+m} ]^{-1} L_{m,n},
    A_{k,p} = L_{k,p-k} - delta_{k0} (lambda + i p) I,

with the boundary convention S = 0 beyond |n| = n_win + depth.  The
relations are evaluated by recursive insertion from that zero boundary:
each pass substitutes the current operators into every relation at once,
deepening the evaluated continued fraction tree by one level, and the pass
budget is fixed (early exit only once updates drop below roundoff).  Only
the relations of coupled offsets are formed, those m where L_m or L_{-m}
has a nonzero coefficient (`model._coupled_offsets`; an even-harmonic
kernel couples no odd m): for any other m, S^m has a zero right-hand
side and is identically 0.  Every pass reads its coefficients A and L
from the coupled diagonals of the recurrence matrix T(lambda), which
`model.recurrence_blocks` gathers from the L table, and works on
component planes for every d: entry (i, j) of every d x d block, over
all levels, relations and lambda values of a batch, is one array, so
the bracket products are elementwise multiply-adds, at most d^3 of them
(a term a[i, k] s[k, j] whose coefficient plane a[i, k] is all zero is
skipped), and the inversions are one Gaussian elimination with partial
pivoting (`linalg.plane_solve`) over the planes for the whole batch, a
division when d = 1; an inversion level is singular when a pivot is
exactly zero.  Skipping exact zeros leaves every other value
bit-identical.  Every value is then an explicit finite
composition of matrix inversions, analytic in lambda away from its
breakdown poles, so plain Newton iterations refine its roots.  The n = 0
closure gives the finite matrix M(lambda) whose determinant vanishes at
the Floquet exponents.  The search locates each exponent class once, as
an eigenvalue of the Hill matrix T(lambda) of the same window
(`rootfind.contour_classes`; T is the exponential pencil of
`model.hill_matrix`, built once per search, refinement or mode, and
factored over the index classes it never couples, `model.HillBlocks`),
and runs one Newton iteration on det M per class.  Where an exponent sits
close to a truncation resonance, det M pinches its zero against a pole,
and the run stops at its first step outside CLASS_TOL of its class; the
Hill eigenvalue and T's null vector there are then the answer.  Every
root, from either route, is checked against truncation once, by a Newton
run on the entire Hill determinant of the window enlarged by two.  The
paired tridiagonal route (`risken`) runs this same class loop
(`_search`), at the same window, on the determinant of its own closure.

det M is what Newton refines; the modes are read off T(lambda) itself.
With converged ladders M(lambda) is the Schur complement of T(lambda)
onto block 0, so at a root T is singular too: the Floquet mode is T's
right null vector (T phi = 0) and the adjoint mode its left one
(psi T = 0), both on |n| <= n_win + depth, cut to the window and scaled
so that the largest entry of block 0 is 1, one SVD each (`extract_mode`,
`adjoint.adjoint_modes`).

Exponents are defined mod i because the ansatz exp(lambda*xi) times a
2*pi periodic factor absorbs integer imaginary shifts; reported modes carry
both the raw root and its strip representative with Im in (-1/2, 1/2].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CfBreakdown, NullSpaceAmbiguous
from .linalg import determinant, plane_solve
from .model import (
    FourierMatrixDensity,
    HillBlocks,
    LMatrixTable,
    _coupled_offsets,
    build_L,
    hill_matrix,
    recurrence_blocks,
    truncated_matrix,
)
from .rootfind import (
    CLASS_TOL,
    DEFAULT_BOX,
    DEFAULT_GRID,
    _damped_newton,
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

EXTRA_PASSES = 24
EARLY_EXIT = 1e-14
DIVERGENCE_GUARD = 1e12

# Hill refinement: iteration budget
HILL_MAX_ITER = 60
# both searches: the Newton budget from a Hill eigenvalue (a few steps
# wherever the closure determinant has its zero there; a pinched run stops
# at its first step outside CLASS_TOL of its class), and the largest move
# of a root at the enlarged truncation that still counts as converged
SEEDED_ITER = 8
CONV_TOL = 1e-8

# why the passes of one lambda stopped short; 0 means they did not
_SINGULAR, _DIVERGING = 1, 2
_BREAKDOWN = {
    _SINGULAR: "singular inversion level",
    _DIVERGING: "diverging ladder operator",
}


@dataclass(frozen=True)
class LadderSet:
    """Ladder operators S^m_n on the truncated window.

    `ops` holds the coupled offsets m, those where L_m or L_{-m} has a
    nonzero coefficient; `get` gives zeros for every other m, whose
    operators are identically 0.  `ops[m]` is an array of shape (2B+1, d, d)
    indexed by the source level n = -B..B, where B = n_win + depth;
    operators whose source or target leaves the window are zero.  `passes`
    is the number of insertion passes actually run.  Built for a 1-D array
    of lambda, every array (and `passes`) carries a leading lambda axis,
    and the operators of a lambda whose passes broke down are NaN.
    """

    lam: complex | np.ndarray
    n_win: int
    depth: int
    table: LMatrixTable
    ops: dict
    passes: int | np.ndarray

    @property
    def bound(self) -> int:
        return self.n_win + self.depth

    def get(self, m: int, n: int) -> np.ndarray:
        d = self.table.dim
        lead = self.table.entries.shape[:-4]
        if m == 0:
            return np.broadcast_to(np.eye(d, dtype=complex), lead + (d, d)).copy()
        B = self.bound
        if abs(n) > B or abs(n + m) > B or m not in self.ops:
            return np.zeros(lead + (d, d), dtype=complex)
        return self.ops[m][..., n + B, :, :]


def ladder_operators(
    density: FourierMatrixDensity,
    lam,
    n_win: int,
    depth: int,
) -> LadderSet:
    """Evaluate the ladder operator relations on |n| <= n_win + depth.

    Starting from S = 0 everywhere, each pass substitutes the current
    operators into all inversion relations simultaneously; the pass budget
    (window width plus EXTRA_PASSES) is spent unless an update falls
    below roundoff first, so the result is a fixed finite composition of
    matrix inversions, analytic in lambda.  Every pass reads the coupled
    diagonals of T(lambda) and runs on component planes, one elementwise
    pivoted Gaussian elimination for the whole batch (a division for
    d = 1), and a level is singular when a pivot is exactly zero.  For a
    single `lam` a singular inversion level or a diverging operator, the
    signs of lambda sitting at a resonance of the truncated problem, raises
    CfBreakdown.  For a 1-D array of lambda every value runs its own
    passes, stops where its own loop would, and a breakdown only marks that
    value (NaN operators).
    """
    d = density.dim
    B = n_win + depth
    n_passes = 2 * B + 1 + EXTRA_PASSES
    table = build_L(density, lam, B)
    one = np.ndim(table.lam) == 0
    entries = table.entries[None] if one else table.entries
    count = entries.shape[0]
    m_list = _coupled_offsets(density)
    if not m_list:
        run = 0 if one else np.zeros(count, dtype=int)
        return LadderSet(table.lam, n_win, depth, table, {}, run)

    n_ops = len(m_list)
    m_index = {m: j for j, m in enumerate(m_list)}
    neg_index = np.array([m_index[-m] for m in m_list])

    # the coefficients are entries of T(lambda) on |n| <= B, read along its
    # coupled diagonals: a_zero[p] = T_{p,p}, a_stack[j, p] = T_{p,p-m_j}
    # and rhs_stack[j, n] = T_{n+m_j,n} = L_{m_j,n}; an entry whose row or
    # column leaves the window is zero (the operator S^{m_j}_n exists only
    # while its target n + m_j stays inside); such a column is clipped into
    # the window for the gather, and its entry masked
    level = np.arange(-B, B + 1)
    rows = level + np.array([0] * (1 + n_ops) + m_list)[:, None]
    cols = level - np.array([0] + m_list + [0] * n_ops)[:, None]
    inside = (np.abs(rows) <= B) & (np.abs(cols) <= B)
    coeffs = recurrence_blocks(table, rows.ravel(), np.clip(cols, -B, B).ravel(), 1)
    coeffs = np.where(inside[..., None, None], coeffs.reshape(count, *rows.shape, d, d), 0.0)
    # component planes: entry (i, j) of every block is one array over the
    # diagonals and levels
    planes = np.moveaxis(coeffs, (-2, -1), (1, 2))
    a_zero = planes[:, :, :, 0]
    a_stack, rhs_stack = planes[:, :, :, 1 : 1 + n_ops], planes[:, :, :, 1 + n_ops :]
    # lambda values the exponent guard rejected never start
    live = np.isfinite(entries).reshape(count, -1).all(axis=1)

    S, run, cause = _matrix_passes(
        a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live
    )
    # back to blocks: S[:, j, n + B] is the d x d operator S^{m_j}_n
    S = np.ascontiguousarray(S.transpose(0, 3, 4, 1, 2))
    if one:
        if cause[0]:
            raise CfBreakdown(_BREAKDOWN[int(cause[0])])
        return LadderSet(
            table.lam, n_win, depth, table, {m: S[0, j] for j, m in enumerate(m_list)},
            int(run[0]),
        )
    S[(cause != 0) | ~live] = np.nan
    return LadderSet(
        table.lam, n_win, depth, table, {m: S[:, j] for j, m in enumerate(m_list)}, run
    )


def _run_passes(S, step, n_passes, live):
    """Insertion passes over a batch of lambda values, one per row of S.

    `step(S_rows, rows)` returns the updated operators of the given rows
    and a mask of rows whose inversion was singular.  A row stops updating
    at the pass where its own loop stops: a singular inversion or a
    diverging operator (recorded in `cause`, the operators left as they
    were) or an update below roundoff.  Returns (S, passes run, cause).
    """
    count = S.shape[0]
    axes = tuple(range(1, S.ndim))
    run = np.zeros(count, dtype=int)
    cause = np.zeros(count, dtype=int)
    active = np.flatnonzero(live)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n_passes):
            if active.size == 0:
                break
            # while every row runs, S itself is the batch: nothing to
            # gather before the step or to scatter after it
            whole = active.size == count
            old = S if whole else S[active]
            new, singular = step(old, active)
            # the largest |entry| is NaN or inf exactly when an entry is not
            # finite
            size = np.abs(new).max(axis=axes)
            diverging = ~singular & ~(size <= DIVERGENCE_GUARD)
            cause[active[singular]] = _SINGULAR
            cause[active[diverging]] = _DIVERGING
            good = ~(singular | diverging)
            delta = np.abs(new - old).max(axis=axes) / (1.0 + size)
            if whole and good.all():
                S = new
            else:
                S[active[good]] = new[good]
            run[active[good]] += 1
            active = active[good & ~(delta <= EARLY_EXIT)]
    return S, run, cause


def _matrix_passes(a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live):
    """The passes on component planes: x[i, j] holds entry (i, j) of every
    d x d block of every row, so the bracket product and the solve are
    whole-batch elementwise operations, however many blocks there are (for
    d = 1 the solve is one division by each bracket)."""
    count, d, _, n_ops, width = a_stack.shape
    # the shift to the target level as one gather: bracket (j, n) reads the
    # excised sum at flat index j * width + n + m_j, or the identity in a
    # fill slot past the end where the target leaves the window
    level = np.arange(width) + np.array(m_list)[:, None]
    inside = (level >= 0) & (level < width)
    source = np.where(inside, np.arange(n_ops)[:, None] * width + level, n_ops * width)
    fill = np.broadcast_to(np.eye(d, dtype=complex)[:, :, None, None], (d, d, count, 1))
    # the terms a[i, k] s[k, j] of block row i whose a-plane is not all
    # zero over the live rows; the others add exact zeros
    weighted = (a_stack[live] != 0).any(axis=(0, 3, 4))
    terms = [np.flatnonzero(row) for row in weighted]
    # the step works with the block axes first, the layout of plane_solve;
    # _run_passes sees S as a (row, d, d, ...) view of its result
    to_planes, to_rows = (1, 2, 0, 3, 4), (2, 0, 1, 3, 4)
    a_zero = a_zero.transpose(1, 2, 0, 3).copy()
    a_stack, rhs = (x.transpose(to_planes).copy() for x in (a_stack, -rhs_stack))

    def step(S, rows):
        n = rows.size
        # while every row runs, the inputs are the batch: nothing to gather
        whole = n == count
        a, a0, b = (x if whole else x[:, :, rows] for x in (a_stack, a_zero, rhs))
        s_neg = S.transpose(to_planes)[:, :, :, neg_index]
        excised = np.empty((d, d, n, n_ops, width), dtype=complex)
        for i, ks in enumerate(terms):
            if ks.size == 0:
                excised[i] = a0[i][:, :, None]
                continue
            prod = a[i, ks[0]] * s_neg[ks[0]]
            for k in ks[1:]:
                prod += a[i, k] * s_neg[k]
            excised[i] = (a0[i] + prod.sum(axis=2))[:, :, None] - prod
        padded = np.concatenate([excised.reshape(d, d, n, -1), fill[:, :, :n]], axis=-1)
        # an inversion is singular where a pivot is exactly zero
        Y, pivots = plane_solve(np.take(padded, source, axis=-1), b)
        return Y.transpose(to_rows), ~pivots.all(axis=(0, 2, 3))

    S = np.zeros(rhs_stack.shape, dtype=complex)
    return _run_passes(S, step, n_passes, live)


def _hill_logdet(hill, lams):
    """Sign and log magnitude of the Hill determinant det T(lambda) for a
    1-D array of lambda, T given by `hill` (`model.HillBlocks`): the
    product over T's index classes of their block determinants, NaN where
    the exponent guard rejects lambda."""
    with np.errstate(invalid="ignore"):
        return hill.slogdet(hill(lams))


def _hill_refine(density, lam0: complex, bound: int, tol: float):
    """Damped Newton on the entire Hill determinant via its logarithmic
    derivative, the step being 1 / (log det T)'.

    The derivative is a central difference over lambda +- h, evaluated as
    one batch of two, with h = 1e-6 * (1 + |lam|) at the first step and at
    most 1e-3 of the previous Newton step after it, so that lambda +- h
    stays well inside the distance to the root and the run converges to
    `tol`.  h never goes below 1e-14 * (1 + |lam|), which keeps lambda +- h
    dozens of ulps apart.  A step within 10 h of lambda may come from a
    stencil that straddles the root; it is taken again with h = 1e-3 of
    it, until it is not or h is at that floor, and a retaken step that
    cannot be computed leaves the one before it standing.  A rejected
    lambda +- h stops the iteration unconverged; a determinant that
    underflows to an exact zero is a root.
    """
    last = np.inf
    hill = HillBlocks(density, bound)

    def newton_step(lam, h):
        signs, logabs = _hill_logdet(hill, np.array([lam + h, lam - h]))
        if not np.all(np.isfinite(signs)):
            return None
        s1, s2 = (complex(v) for v in signs)
        if s1 == 0 or s2 == 0:
            return 0.0
        a1, a2 = (float(v) for v in logabs)
        gprime = ((a1 - a2) + np.log(s1 / s2)) / (2.0 * h)
        return None if gprime == 0 else 1.0 / gprime

    def step(lam):
        nonlocal last
        floor = 1e-14 * (1.0 + abs(lam))
        h = max(min(1e-6 * (1.0 + abs(lam)), 1e-3 * last), floor)
        delta = newton_step(lam, h)
        while delta and abs(delta) < 10.0 * h and h > floor:
            h = max(1e-3 * abs(delta), floor)
            retaken = newton_step(lam, h)
            if retaken is None:
                break
            delta = retaken
        if delta is not None:
            last = abs(delta)
        return delta

    return _damped_newton(step, lam0, tol, HILL_MAX_ITER)


def assemble_M(
    density: FourierMatrixDensity,
    lam,
    n_win: int,
    depth: int,
    ladders: LadderSet | None = None,
) -> np.ndarray:
    """Closure matrix M(lambda) = sum_k L_{k,-k} S^{-k}_0 - lambda I.

    For a 1-D array of lambda the result is a stack of matrices, NaN where
    the ladders broke down or the exponent guard rejected lambda.
    """
    if ladders is None:
        ladders = ladder_operators(density, lam, n_win, depth)
    table = ladders.table
    d = table.dim
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    m = table.get(0, 0) - lam * np.eye(d, dtype=complex)
    # the other offsets carry S = 0, adding exact zeros
    for k in sorted(-j for j in ladders.ops):
        m = m + table.get(k, -k) @ ladders.get(-k, 0)
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


def recurrence_residual(components, table: LMatrixTable, left: bool = False) -> float:
    """Max norm of the banded recurrence over the interior window, relative
    to the largest component.

    The recurrence is T @ phi, or psi @ T for `left` (adjoint row vectors),
    with T the recurrence matrix of the table's lambda on the components'
    window |n| <= n_win; its entries are taken on |n| <= n_win - K, where
    every coupled component is stored.  When the band is wider than the
    stored window that interior is empty; the primal residual then runs
    over the whole window with the unstored components taken as zero, a
    fair approximation because they sit beyond the truncation anyway.
    """
    n_win = (components.shape[0] - 1) // 2
    return _residual(components, truncated_matrix(table, n_win), table.bandwidth, left)


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
    smallest singular values, smallest first.
    """
    d = density.dim
    hill = HillBlocks(density, n_win + depth)
    vec, least, second = hill.null_vector(hill(lam), left)
    window = slice(depth * d, (depth + 2 * n_win + 1) * d)
    blocks = np.conj(vec[window]).reshape(2 * n_win + 1, d)
    center = blocks[n_win] if blocks[n_win].any() else blocks.ravel()
    comps = blocks / center[np.argmax(np.abs(center))]
    # the central block of T on the whole window, T on |n| <= n_win: a
    # pencil entry does not depend on the bound
    T = hill_matrix(density, n_win)(lam)
    residual = _residual(comps, T, density.bandwidth, left)
    return comps, residual, least, second


def extract_mode(
    density: FourierMatrixDensity,
    lam: complex,
    n_win: int,
    depth: int,
) -> FloquetMode:
    """The Floquet mode at a root `lam`: the right null vector of the Hill
    matrix T(lambda) on |n| <= n_win + depth, cut to the window.

    Its block 0 is scaled so that its largest entry is 1 (phi_0 = 1 for
    d = 1).  NullSpaceAmbiguous is raised when T's two smallest singular
    values are within a factor 10, the sign of a degenerate eigenvalue
    whose null space one vector does not describe.
    """
    lam = complex(lam)
    comps, residual, least, second = _null_vector(density, lam, n_win, depth)
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
    produced it, the root is checked the same way: a Newton run on the
    entire Hill determinant at the enlarged truncation |n| <= n_win +
    depth + 2 (`_hill_refine`) starts from it, and `converged` records
    whether that run converged within CONV_TOL of the root.  Returns the
    modes sorted by `rootfind.spectrum_key` of the strip value.
    """
    bound = n_win + depth
    modes = []
    for lam in contour_classes(density, box, bound):
        root, ok = _newton(det_at, lam, tol, SEEDED_ITER, radius=CLASS_TOL)
        if ok:
            mode = extract_mode(density, root, n_win, depth)
        else:
            # no ambiguity check: a wrong contour value may fail it
            comps, residual, _, _ = _null_vector(density, lam, n_win, depth)
            mode = FloquetMode(
                to_strip(lam), lam, comps, residual, n_win, depth, density.bandwidth
            )
        bigger, ok = _hill_refine(density, mode.lam_raw, bound + 2, tol)
        converged = bool(ok and abs(bigger - mode.lam_raw) <= CONV_TOL)
        modes.append(replace(mode, converged=converged))
    modes.sort(key=lambda m: spectrum_key(m.lam))
    return modes
