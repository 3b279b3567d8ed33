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
budget is fixed (early exit only once updates drop below roundoff).  Every
value is then an explicit finite composition of matrix inversions,
analytic in lambda away from its breakdown poles; that analyticity is what
lets the determinant root search work with plain Newton iterations.  Where
an exponent sits close to a truncation resonance the continued fraction
determinant pinches its zero against a pole; the search then falls back to
the entire Hill determinant of the same window, and mode components can be
read off the window null space instead of the ladder chains.  The n = 0
closure gives the finite matrix M(lambda) whose determinant vanishes at
the Floquet exponents.

Exponents are defined mod i because the ansatz exp(lambda*xi) times a
2*pi periodic factor absorbs integer imaginary shifts; reported modes carry
both the raw root and its strip representative with Im in (-1/2, 1/2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CfBreakdown, ExponentOverflow, NullSpaceAmbiguous
from .linalg import determinant
from .model import FourierMatrixDensity, LMatrixTable, build_L, table_nbytes
from .rootfind import (
    DEFAULT_BOX,
    DEFAULT_GRID,
    _newton,
    find_roots,
    pad_box_im,
    strip_shift,
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

# why the passes of one lambda stopped short; 0 means they did not
_SINGULAR, _DIVERGING = 1, 2
_BREAKDOWN = {
    _SINGULAR: "singular inversion level",
    _DIVERGING: "diverging ladder operator",
}


@dataclass(frozen=True)
class LadderSet:
    """Ladder operators S^m_n on the truncated window.

    `ops[m]` is an array of shape (2B+1, d, d) indexed by the source level
    n = -B..B, where B = n_win + depth; operators whose source or target
    leaves the window are zero.  `passes` is the number of insertion
    passes actually run.  Built for a 1-D array of lambda, every array
    (and `passes`) carries a leading lambda axis, and the operators of a
    lambda whose passes broke down are NaN.
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
    passes: int | None = None,
) -> LadderSet:
    """Evaluate the ladder operator relations on |n| <= n_win + depth.

    Starting from S = 0 everywhere, each pass substitutes the current
    operators into all inversion relations simultaneously; the pass budget
    (default window width plus a reserve) is spent unless an update falls
    below roundoff first, so the result is a fixed finite composition of
    matrix inversions, analytic in lambda.  For a single `lam` a singular
    inversion level or a diverging operator, the signs of lambda sitting
    at a resonance of the truncated problem, raises CfBreakdown.  For a
    1-D array of lambda every value runs its own passes, stops where its
    own loop would, and a breakdown only marks that value (NaN operators).
    """
    K = density.bandwidth
    d = density.dim
    B = n_win + depth
    n_passes = int(passes) if passes is not None else 2 * B + 1 + EXTRA_PASSES
    table = build_L(density, lam, B)
    one = np.ndim(table.lam) == 0
    entries = table.entries[None] if one else table.entries
    count = entries.shape[0]
    if K == 0:
        run = 0 if one else np.zeros(count, dtype=int)
        return LadderSet(table.lam, n_win, depth, table, {}, run)

    width = 2 * B + 1
    lams = np.reshape(table.lam, -1)
    ident = np.eye(d, dtype=complex)
    m_list = [m for m in range(-K, K + 1) if m != 0]
    m_index = {m: j for j, m in enumerate(m_list)}
    neg_index = np.array([m_index[-m] for m in m_list])

    # a_zero[:, p] = L_{0,p} - (lam + i p) I; a_stack[:, j, p] = A_{m_j, p},
    # zeroed where the coupled source level p - m_j leaves the window
    p = np.arange(-B, B + 1)
    a_zero = entries[:, K] - (lams[:, None] + 1j * p)[:, :, None, None] * ident
    a_stack = np.stack(
        [_shift_to_target(entries[:, k + K], -k, 0.0) for k in m_list], axis=1
    )
    # rhs_stack[:, j, n] = L_{m_j, n}; an operator exists only when its
    # target n + m_j stays inside the window
    rhs_stack = entries[:, [m + K for m in m_list]]
    for j, m in enumerate(m_list):
        if m > 0:
            rhs_stack[:, j, width - m :] = 0.0
        else:
            rhs_stack[:, j, :-m] = 0.0
    # lambda values the exponent guard rejected never start
    live = np.isfinite(entries).reshape(count, -1).all(axis=1)

    if d == 1:
        S, run, cause = _scalar_passes(
            a_zero[..., 0, 0],
            a_stack[..., 0, 0],
            rhs_stack[..., 0, 0],
            m_list,
            neg_index,
            n_passes,
            live,
        )
        S = S[..., None, None]
    else:
        S, run, cause = _matrix_passes(
            a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live
        )
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


def _shift_to_target(excised, m, fill):
    """bracket[:, n] = excised[:, n + m] with `fill` where the target leaves."""
    width = excised.shape[1]
    out = np.empty_like(excised)
    if m > 0:
        out[:, : width - m] = excised[:, m:]
        out[:, width - m :] = fill
    else:
        out[:, -m:] = excised[:, :m]
        out[:, :-m] = fill
    return out


def _brackets(a_zero, a_stack, S, m_list, neg_index, matmul, fill):
    """Excised inversion brackets of every relation, one lambda per row."""
    prod = a_stack @ S[:, neg_index] if matmul else a_stack * S[:, neg_index]
    rs = a_zero + prod.sum(axis=1)
    brackets = np.empty_like(S)
    for j, m in enumerate(m_list):
        brackets[:, j] = _shift_to_target(rs - prod[:, j], m, fill)
    return brackets


def _run_passes(S, step, n_passes, live):
    """Insertion passes over a batch of lambda values, one per row of S.

    `step(S_rows, rows)` returns the updated operators of the given rows
    and a mask of rows whose inversion was singular.  A row stops updating
    at the pass where its own loop stops: a singular inversion or a
    diverging operator (recorded in `cause`, the operators left as they
    were) or an update below roundoff.  Returns (S, passes run, cause).
    """
    count = S.shape[0]
    run = np.zeros(count, dtype=int)
    cause = np.zeros(count, dtype=int)
    active = np.flatnonzero(live)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n_passes):
            if active.size == 0:
                break
            old = S[active]
            new, singular = step(old, active)
            size = np.abs(new.reshape(active.size, -1)).max(axis=1)
            finite = np.isfinite(new.reshape(active.size, -1)).all(axis=1)
            diverging = ~singular & (~finite | (size > DIVERGENCE_GUARD))
            cause[active[singular]] = _SINGULAR
            cause[active[diverging]] = _DIVERGING
            good = ~(singular | diverging)
            change = np.abs((new - old).reshape(active.size, -1)).max(axis=1)
            delta = change / (1.0 + size)
            rows = active[good]
            S[rows] = new[good]
            run[rows] += 1
            active = active[good & ~(delta <= EARLY_EXIT)]
    return S, run, cause


def _scalar_passes(a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live):
    def step(S, rows):
        brackets = _brackets(
            a_zero[rows], a_stack[rows], S, m_list, neg_index, False, 1.0
        )
        singular = (brackets == 0).reshape(rows.size, -1).any(axis=1)
        return -rhs_stack[rows] / brackets, singular

    S = np.zeros(rhs_stack.shape, dtype=complex)
    return _run_passes(S, step, n_passes, live)


def _matrix_passes(a_zero, a_stack, rhs_stack, m_list, neg_index, n_passes, live):
    d = a_zero.shape[-1]
    ident = np.eye(d, dtype=complex)

    def step(S, rows):
        brackets = _brackets(
            a_zero[rows], a_stack[rows], S, m_list, neg_index, True, ident
        )
        rhs = -rhs_stack[rows]
        singular = np.zeros(rows.size, dtype=bool)
        try:
            new = np.linalg.solve(brackets.reshape(-1, d, d), rhs.reshape(-1, d, d))
        except np.linalg.LinAlgError:
            # LAPACK reports an exactly singular member only for the whole
            # stack; find the offending lambda values one by one
            new = np.full(rhs.shape, np.nan, dtype=complex)
            for i in range(rows.size):
                try:
                    new[i] = np.linalg.solve(brackets[i], rhs[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
        return new.reshape(S.shape), singular

    S = np.zeros(rhs_stack.shape, dtype=complex)
    return _run_passes(S, step, n_passes, live)


def truncated_matrix(table: LMatrixTable, lam: complex, bound: int) -> np.ndarray:
    """Full truncated recurrence matrix on |n| <= bound.

    Row block p collects sum_k [L_{k,p-k} - delta_{k0}(lam + i p) I]
    phi_{p-k}; its determinant is entire in lambda (the Hill form of the
    closure condition) and vanishes at every in-window representative of
    an exponent class, which makes it the robust fallback wherever the
    continued fraction determinant pinches a zero against a breakdown
    pole.
    """
    lam = complex(lam)
    d = table.dim
    K = table.bandwidth
    size = (2 * bound + 1) * d
    out = np.zeros((size, size), dtype=complex)
    for p in range(-bound, bound + 1):
        row = (p + bound) * d
        out[row : row + d, row : row + d] -= (lam + 1j * p) * np.eye(d)
        for k in range(-K, K + 1):
            q = p - k
            if abs(q) > bound:
                continue
            col = (q + bound) * d
            out[row : row + d, col : col + d] += table.get(k, q)
    return out


def _hill_logdet(density: FourierMatrixDensity, lam: complex, bound: int):
    table = build_L(density, lam, bound)
    sign, logabs = np.linalg.slogdet(truncated_matrix(table, lam, bound))
    return complex(sign), float(logabs)


def _hill_refine(
    density,
    lam0: complex,
    bound: int,
    tol: float,
    max_iter: int = 60,
    loose_tol: float | None = None,
):
    """Newton on the entire Hill determinant via its logarithmic derivative.

    Truncation can split one physical exponent into a tight cluster of
    zeros; the step size then floors at the cluster spacing.  With
    `loose_tol` set, the point of smallest step is accepted once that
    floor is reached, which localizes the exponent to the cluster scale.
    """
    lam = complex(lam0)
    prev = np.inf
    flat = 0
    damping = 1.0
    best = np.inf
    best_lam = lam
    for _ in range(max_iter):
        h = 1e-6 * (1.0 + abs(lam))
        try:
            s1, a1 = _hill_logdet(density, lam + h, bound)
            s2, a2 = _hill_logdet(density, lam - h, bound)
        except ExponentOverflow:
            return lam, False
        if s1 == 0 or s2 == 0:
            return lam, True  # determinant underflowed to an exact zero
        gprime = ((a1 - a2) + np.log(s1 / s2)) / (2.0 * h)
        if gprime == 0:
            return lam, False
        step = 1.0 / gprime
        lam = lam - damping * step
        if abs(step) <= tol:
            return lam, True
        if abs(step) < best:
            best = abs(step)
            best_lam = lam
        if abs(step) >= 0.5 * prev:
            flat += 1
            if flat >= 3:
                damping = 0.5
        else:
            flat = 0
            damping = 1.0
        prev = abs(step)
    if loose_tol is not None and best <= loose_tol * (1.0 + abs(best_lam)):
        return best_lam, True
    return lam, False


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
    K = table.bandwidth
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    m = table.get(0, 0) - lam * np.eye(d, dtype=complex)
    for k in range(-K, K + 1):
        if k == 0:
            continue
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


def recurrence_residual(mode_components, table: LMatrixTable, lam, n_win, K) -> float:
    """Max norm of the banded recurrence over the interior window.

    When the band is wider than the stored window the interior is empty;
    the residual then runs over the whole window with the unstored
    components taken as zero, a fair approximation because they sit
    beyond the truncation anyway.
    """
    d = mode_components.shape[1]
    scale = max(float(np.max(np.abs(mode_components))), 1e-300)
    inner = max(n_win - K, 0)
    rows = range(-inner, inner + 1) if inner > 0 else range(-n_win, n_win + 1)
    worst = 0.0
    for n in rows:
        acc = -(lam + 1j * n) * mode_components[n + n_win]
        for k in range(-K, K + 1):
            if abs(n - k) > n_win:
                continue
            acc = acc + table.get(k, n - k) @ mode_components[n - k + n_win]
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst / scale


def extract_mode(
    density: FourierMatrixDensity,
    lam: complex,
    n_win: int,
    depth: int,
    converged: bool = True,
) -> FloquetMode:
    """Null direction of M(lambda) propagated outward through the ladders.

    phi_0 is the smallest singular direction of M; NullSpaceAmbiguous is
    raised when the two smallest singular values are within a factor 10,
    the sign of a degenerate eigenvalue this machinery does not resolve.
    """
    lam = complex(lam)
    K = density.bandwidth
    d = density.dim
    ladders = ladder_operators(density, lam, n_win, depth)
    m_mat = assemble_M(density, lam, n_win, depth, ladders=ladders)
    if d == 1:
        phi0 = np.ones(1, dtype=complex)
    else:
        _, s, vh = np.linalg.svd(m_mat)
        if s[-2] <= 10.0 * s[-1]:
            raise NullSpaceAmbiguous(
                f"singular values {s[-1]:.3e}, {s[-2]:.3e} too close at {lam:.6g}"
            )
        phi0 = np.conj(vh[-1])
    comps = np.zeros((2 * n_win + 1, d), dtype=complex)
    comps[n_win] = phi0
    # climb outward one level at a time; a kernel may couple only some
    # band offsets (an even-harmonic weight has no +-1 coupling at all),
    # so each level takes the shortest ladder step that carries weight
    floor = 1e-13 * max(float(np.max(np.abs(phi0))), 1e-300)
    for n in range(1, n_win + 1):
        for sign in (1, -1):
            target = sign * n
            for m in range(1, min(K, n) + 1):
                src = target - sign * m
                step = ladders.get(sign * m, src)
                cand = step @ comps[src + n_win]
                if float(np.max(np.abs(cand))) > floor:
                    comps[target + n_win] = cand
                    break
    res = recurrence_residual(comps, ladders.table, lam, n_win, K)
    return FloquetMode(
        lam=lam - 1j * strip_shift(lam),
        lam_raw=lam,
        components=comps,
        residual=res,
        n_win=n_win,
        depth=depth,
        bandwidth=K,
        converged=converged,
    )


def _window_null_mode(density, lam, n_win, depth, converged=True):
    """Mode components from the null space of the full window matrix.

    Solves the truncated recurrence directly instead of chaining ladder
    operators; used as a fallback when the ladder route has degraded.
    Returns None when the null direction is ambiguous.
    """
    lam = complex(lam)
    B = n_win + depth
    table = build_L(density, lam, B)
    full = truncated_matrix(table, lam, B)
    _, s, vh = np.linalg.svd(full)
    if s[-2] <= 10.0 * s[-1]:
        return None
    vec = np.conj(vh[-1]).reshape(2 * B + 1, density.dim)
    comps = vec[B - n_win : B + n_win + 1].copy()
    center = comps[n_win]
    scale = np.max(np.abs(center))
    if scale > 1e-12 * np.max(np.abs(comps)):
        comps = comps / center[int(np.argmax(np.abs(center)))]
    res = recurrence_residual(comps, table, lam, n_win, density.bandwidth)
    return FloquetMode(
        lam=lam - 1j * strip_shift(lam),
        lam_raw=lam,
        components=comps,
        residual=res,
        n_win=n_win,
        depth=depth,
        bandwidth=density.bandwidth,
        converged=converged,
    )


def find_exponents(
    density: FourierMatrixDensity,
    box=DEFAULT_BOX,
    n_win: int = 10,
    depth: int = 10,
    tol: float = 1e-10,
    grid=DEFAULT_GRID,
    conv_tol: float = 1e-8,
    check_convergence: bool = True,
    im_pad: float = 1.0,
    mode_tol: float = 1e-2,
    class_tol: float = 1e-4,
):
    """Scan det M(lambda) over `box` and refine each minimum by Newton.

    On the truncated window det M vanishes at the mod-i translate of an
    exponent class where the zeroth Fourier component dominates, which may
    lie outside the scanned strip; the scan band is therefore widened by
    `im_pad` in the imaginary direction (same grid step) and a converged
    root is kept whenever the root itself or its strip representative
    falls in `box`.  Roots are deduplicated within 10*tol,
    then collapsed per mod-i class (two raw roots with the same strip
    representative keep the one of smallest |Im|).  Each retained root is
    re-polished at the enlarged truncation (n_win+2, depth+2); the mode's
    `converged` flag records whether it moved by less than `conv_tol`.

    Returns FloquetMode objects sorted by (-Re, Im) of the strip
    representative.  An empty list (plus a NoRootsInBoxWarning) means the
    box contained no roots.
    """

    def det_at(lams, nw=n_win, dp=depth):
        return closure_determinant(density, lams, nw, dp)

    sb, wide, wide_grid = pad_box_im(box, grid, im_pad)
    bound = n_win + depth

    def accept(z):
        return sb.contains(z, slack=1e-6) or sb.contains(
            z - 1j * strip_shift(z), slack=1e-6
        )

    def refine(seed):
        root, ok = _newton(det_at, seed, tol)
        if ok:
            return root, True
        # the continued fraction determinant can pinch a zero against a
        # truncation resonance pole; the entire Hill determinant of the
        # same window separates them cleanly
        return _hill_refine(density, root, bound, tol, loose_tol=1e-4)

    raw = find_roots(
        det_at,
        box=wide,
        grid=wide_grid,
        tol=tol,
        accept=accept,
        refine=refine,
        point_bytes=table_nbytes(density, bound),
    )
    by_class: dict = {}
    for root, ok in raw:
        if not ok:
            continue
        key = None
        for existing in by_class:
            if abs((root - 1j * strip_shift(root)) - existing) <= 10 * tol:
                key = existing
                break
        strip = root - 1j * strip_shift(root)
        if key is None:
            by_class[strip] = root
        elif abs(root.imag) < abs(by_class[key].imag):
            by_class[key] = root

    modes = []
    for root in by_class.values():
        converged = True
        if check_convergence:
            bigger, ok = _newton(
                lambda z: det_at(z, n_win + 2, depth + 2), root, tol
            )
            if not (ok and abs(bigger - root) <= conv_tol):
                bigger, ok = _hill_refine(density, root, bound + 2, tol, loose_tol=1e-4)
            converged = bool(ok and abs(bigger - root) <= conv_tol)
        try:
            mode = extract_mode(density, root, n_win, depth, converged=converged)
        except (CfBreakdown, NullSpaceAmbiguous):
            continue  # truncation resonance shadow, not a usable mode
        if mode.residual > mode_tol:
            # ladder chains lose accuracy where the iteration is nearly
            # critical; polish the root on the entire Hill determinant of
            # the same window and read the components off its null space
            polished, ok = _hill_refine(density, root, bound, tol, loose_tol=1e-4)
            if ok or abs(polished - root) < 0.1:
                retry = _window_null_mode(
                    density, polished, n_win, depth, converged=converged
                )
                if retry is not None and retry.residual < mode.residual:
                    mode = retry
        if mode.residual > mode_tol:
            continue
        modes.append(mode)
    # hill polishing re-merges truncation shadows of one physical exponent,
    # but different raw representatives localize it only to the cluster
    # scale: collapse strip values closer than class_tol, keeping the mode
    # with the smallest recurrence residual
    deduped: list = []
    for mode in sorted(modes, key=lambda m: m.residual):
        if any(abs(mode.lam - kept.lam) < class_tol for kept in deduped):
            continue
        deduped.append(mode)
    deduped.sort(key=lambda m: (-m.lam.real, m.lam.imag))
    return deduped
