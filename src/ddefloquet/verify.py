"""Cross cutting invariant checks wired into the `verify` subcommand.

Each check returns a CheckResult; the suite passes only if every check
does.  The same functions back the acceptance tests, so the command line
and the test suite cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import closure_determinant, extract_mode, find_exponents
from .model import linearize_about_orbit, rescale
from .oracles import integrate_mos, monodromy_exponents
from .orbit import expand_pl, orbit_to_state
from .rootfind import to_strip
from .systems import s1_system, s2_model, s3_density

__all__ = [
    "CheckResult",
    "s2_linearization",
    "cosine_similarity",
    "check_zero_mode",
    "check_mod_i",
    "check_semigroup",
    "check_conjugation",
    "check_oracle_agreement",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def s2_linearization(mu: float = 0.1, order: int = 2, bandwidth: int | None = 6):
    """Orbit, state and linearization kernel of the delayed van der Pol.

    The kernel band decays fast (the weights hold even harmonics of order
    up to mu^2), so it is capped at `bandwidth`, which keeps the band
    inside the analysis window used by the acceptance setup; the dropped
    coefficients are a few 1e-6 of the leading one.
    """
    model = s2_model()
    exp = expand_pl(model, mu, order)
    state, omega = orbit_to_state(exp)
    # tail_frac is read only with an explicit bandwidth
    density = linearize_about_orbit(
        model.to_dde(mu), state, omega, bandwidth=bandwidth, tail_frac=1e-4
    )
    return density, exp, state, omega


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    return float(
        abs(np.vdot(u, v)) / max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300)
    )


def check_zero_mode(
    mu: float = 0.1, order: int = 2, n_win: int = 8, depth: int = 8
) -> CheckResult:
    """The orbit derivative is a Floquet eigensolution at Re(lambda) = 0.

    An order P orbit satisfies the equation only to O(mu^(P+1)), so the
    located exponent sits within a few mu^(P+1) of zero and the extracted
    components line up with the Fourier components of dq0/dxi.
    """
    density, exp, state, omega = s2_linearization(mu, order)
    modes = find_exponents(
        density,
        box=(-0.6, 0.3, -0.5, 0.5),
        n_win=n_win,
        depth=depth,
        tol=1e-9,
    )
    if not modes:
        return CheckResult("zero-mode", False, "no exponents found near 0")
    mode = min(modes, key=lambda m: abs(m.lam))
    lam_ok = abs(mode.lam) < 5e-3

    # components are indexed against the raw root lam0 + i*s; the strip
    # components of the same eigensolution are shifted by s
    deriv = state.derivative()
    nw = mode.n_win
    shift = mode.strip_offset
    target = np.zeros((2 * nw + 1, 2), dtype=complex)
    for n in range(-nw, nw + 1):
        if abs(n + shift) <= deriv.cutoff:
            target[n + nw] = deriv.coefficient(n + shift)
    sim = cosine_similarity(mode.components, target)
    passed = bool(lam_ok and sim > 0.999)
    return CheckResult(
        "zero-mode",
        passed,
        f"|lambda0| = {abs(mode.lam):.2e} (< 5e-3), similarity = {sim:.6f} (> 0.999)",
    )


def _s3_modes(n_win: int = 10, depth: int = 10):
    return find_exponents(s3_density(), n_win=n_win, depth=depth, tol=1e-12)


def check_mod_i(modes=None) -> CheckResult:
    """det M vanishes at lambda + i too, with index shifted components."""
    density = s3_density()
    if modes is None:
        modes = _s3_modes()
    if not modes:
        return CheckResult("mod-i", False, "no modes found on S3")
    worst_ratio = 0.0
    worst_cmp = 0.0
    for mode in modes:
        shifted = mode.lam_raw + 1j
        at_root = abs(closure_determinant(density, shifted, mode.n_win, mode.depth))
        nearby = abs(
            closure_determinant(density, shifted + 0.1, mode.n_win, mode.depth)
        )
        worst_ratio = max(worst_ratio, at_root / max(nearby, 1e-300))
        remode = extract_mode(density, shifted, mode.n_win, mode.depth)
        # phi'_n at the shifted root equals phi_{n+1} up to one overall scale
        orig = mode.components[1:]
        new = remode.components[:-1]
        scale = np.vdot(new, orig) / max(float(np.vdot(new, new).real), 1e-300)
        diff = np.linalg.norm(orig - scale * new) / max(np.linalg.norm(orig), 1e-300)
        worst_cmp = max(worst_cmp, float(diff))
    passed = worst_ratio < 1e-8 and worst_cmp < 1e-8
    return CheckResult(
        "mod-i",
        bool(passed),
        f"det suppression {worst_ratio:.1e} (< 1e-8), component shift error "
        f"{worst_cmp:.1e} (< 1e-8)",
    )


def _semigroup_error(system, segment_fn, xi1: float, xi2: float, nsub: int = 200):
    delay = system.tau
    h = delay / nsub
    one = integrate_mos(system, segment_fn, xi1 + xi2, h)
    leg1 = integrate_mos(system, segment_fn, xi1, h)
    mid = leg1.segment(xi1, npts=nsub + 1)
    leg2 = integrate_mos(system, mid, xi2, h)
    err = 0.0
    for frac in (0.25, 0.5, 1.0):
        t = frac * xi2
        err = max(err, float(np.max(np.abs(leg2.at(t) - one.at(xi1 + t)))))
    return err


def check_semigroup() -> CheckResult:
    """Two-leg integration equals the direct run within integrator accuracy."""
    sys1 = rescale(s1_system(), 1.0)
    err1 = _semigroup_error(sys1, lambda th: np.array([np.cos(th)]), 2.0, 1.5)

    model = s2_model()
    exp = expand_pl(model, 0.1, 1)
    omega = exp.omega()
    sys2 = rescale(model.to_dde(0.1), omega)
    seg2 = lambda th: np.array([2.0 * np.cos(th), -2.0 * np.sin(th)])
    delay = sys2.tau
    err2 = _semigroup_error(sys2, seg2, 2.0 * delay, 1.5 * delay)
    err = max(err1, err2)
    return CheckResult(
        "semigroup", bool(err < 1e-8), f"two-leg vs one-leg max error {err:.2e} (< 1e-8)"
    )


def check_conjugation(modes=None) -> CheckResult:
    """Real kernels have strip spectra closed under complex conjugation."""
    if modes is None:
        modes = _s3_modes()
    lams = [m.lam for m in modes]
    worst = 0.0
    for lam in lams:
        want = to_strip(np.conj(lam))
        dist = min(abs(want - other) for other in lams)
        worst = max(worst, dist)
    return CheckResult(
        "conjugation",
        bool(worst < 1e-10),
        f"max distance to conjugate partner {worst:.1e} (< 1e-10)",
    )


def check_oracle_agreement(modes=None, m_grid: int = 20, re_floor: float = -2.0):
    """Continued fraction exponents match the monodromy oracle."""
    if modes is None:
        modes = _s3_modes()
    cf = [m.lam for m in modes if m.lam.real > re_floor]
    mono = [lam for lam, _ in monodromy_exponents(s3_density(), m_grid, re_min=re_floor - 0.2)]
    worst = 0.0
    for lam in cf:
        dist = min(abs(lam - m) for m in mono)
        worst = max(worst, dist)
    return CheckResult(
        "oracle-agreement",
        bool(cf and worst < 1e-4),
        f"max |cf - monodromy| = {worst:.2e} (< 1e-4) over {len(cf)} roots",
    )


def run_all():
    modes = _s3_modes()
    return [
        check_zero_mode(),
        check_mod_i(modes),
        check_semigroup(),
        check_conjugation(modes),
        check_oracle_agreement(modes),
    ]
