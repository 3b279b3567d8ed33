"""Batch front end: job configs, subcommand orchestration, structured output.

Subcommands
-----------
orbit      perturbation orbit tables plus a residual scaling report
spectrum   Floquet exponents by the selected methods plus a comparison table
           and the roots no other method matched
adjoint    adjoint modes, normalization and the biorthonormality report
verify     built in invariant suite; exit code 0 only if everything passes

A job is a JSON config file; command line flags override config keys.
Exit codes: 0 success, 1 numerical failure, 2 malformed input.  Outputs
are deterministic byte for byte for identical configs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .adjoint import BilinearContext, adjoint_modes, normalize
from .errors import ConfigError, DdeFloquetError, ZeroPairing
from .floquet import find_exponents
from .fourier import FourierSeries
from .io import _finite, dumps_json, format_float, load_system
from .io import spectrum_records, write_text
from .model import HillBlocks, linearize_about_orbit
from .oracles import MIN_SEGMENT_POINTS, monodromy_exponents
from .orbit import expand_pl, expand_shohat
from .risken import find_exponents_risken
from .rootfind import CLASS_TOL, to_strip
from .verify import run_all

DEFAULTS = {
    "system": "builtin:s3",
    "scheme": "pl",
    "order": 2,
    "mu": 0.1,
    "cutoff": None,
    "n_win": 10,
    "depth": 10,
    "box": [-3.0, 1.0, -0.5, 0.5],
    "tol": 1e-10,
    "method": "all",
    "monodromy_grid": 20,
    "out": "out",
    "strict": False,
}

MU_SWEEP = (0.01, 0.02, 0.05, 0.1)

# config keys that hold integers, with their least value
INTEGER_KEYS = {
    "order": 0,
    "n_win": 0,
    "depth": 1,  # the risken sweep needs one level
    "monodromy_grid": MIN_SEGMENT_POINTS,
}


def _load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{args.config}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: a job config is a JSON object")
        unknown = set(data) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
        cfg.update(data)
    for key in ("system", "scheme", "order", "mu", "method", "out", "box"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "strict", False):
        cfg["strict"] = True
    if cfg["scheme"] not in ("pl", "shohat"):
        raise ConfigError(f"scheme must be 'pl' or 'shohat', not {cfg['scheme']!r}")
    if cfg["method"] not in ("cf", "risken", "monodromy", "all"):
        raise ConfigError(f"unknown method {cfg['method']!r}")
    for key, kind in (("system", str), ("out", str), ("strict", bool)):
        if not isinstance(cfg[key], kind):
            raise ConfigError(f"{key} must be a {kind.__name__}, not {cfg[key]!r}")
    for key, low in INTEGER_KEYS.items():
        cfg[key] = _integer(key, cfg[key], low)
    if cfg["cutoff"] is not None:
        cfg["cutoff"] = _integer("cutoff", cfg["cutoff"], 0)
    for key in ("mu", "tol"):
        if not _finite(cfg[key]):
            raise ConfigError(f"{key} must be a finite number, not {cfg[key]!r}")
    box = cfg["box"]
    numbers = isinstance(box, list) and len(box) == 4 and all(map(_finite, box))
    if not (numbers and box[0] < box[1] and box[2] < box[3]):
        raise ConfigError(
            f"box needs 4 finite numbers, re0 < re1 and im0 < im1: {box!r}"
        )
    if cfg["tol"] <= 0:
        raise ConfigError("tol must be positive")
    return cfg


def _integer(key, value, low) -> int:
    if not _finite(value) or not float(value).is_integer() or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, not {value!r}")
    return int(value)


def _expansion(cfg, model):
    fn = expand_pl if cfg["scheme"] == "pl" else expand_shohat
    return fn(model, float(cfg["mu"]), int(cfg["order"]), cutoff=cfg["cutoff"])


def _density_from_config(cfg):
    kind, obj, meta = load_system(cfg["system"])
    if kind == "density":
        return obj
    if kind == "oscillator":
        exp = _expansion(cfg, obj)
        state, omega = exp.state()
        return linearize_about_orbit(obj.to_dde(float(cfg["mu"])), state, omega)
    # constant coefficient first order systems linearize about q = 0
    if obj.degree() > 1:
        raise ConfigError(
            "first_order systems must be linear for spectrum/adjoint jobs"
        )
    return linearize_about_orbit(obj, FourierSeries.constant(np.zeros(obj.dim)), 1.0)


def cmd_orbit(cfg) -> int:
    kind, model, meta = load_system(cfg["system"])
    if kind != "oscillator":
        raise ConfigError("orbit jobs need an oscillator system definition")
    exp = _expansion(cfg, model)

    lines = ["order,harmonic,re,im,freq_coeff"]
    for m, xm in enumerate(exp.x_orders):
        for n in range(-xm.cutoff, xm.cutoff + 1):
            c = xm.coefficient(n)
            lines.append(
                f"{m},{n},{format_float(float(np.real(c)))},"
                f"{format_float(float(np.imag(c)))},"
                f"{format_float(exp.freq_coeffs[m])}"
            )
    write_text(f"{cfg['out']}/orbit_orders.csv", "\n".join(lines) + "\n")

    state, omega = exp.state()
    xi = np.linspace(0.0, 2.0 * np.pi, 257)
    vals = state.evaluate_real(xi)
    profile = ["xi," + ",".join(f"q{j + 1}" for j in range(vals.shape[1]))]
    for x, row in zip(xi, vals):
        profile.append(
            format_float(float(x)) + "," + ",".join(format_float(float(v)) for v in row)
        )
    write_text(f"{cfg['out']}/orbit_profile.csv", "\n".join(profile) + "\n")

    from .oracles import oscillator_residual

    sweep = [
        (mu, oscillator_residual(_expansion(dict(cfg, mu=mu), model))) for mu in MU_SWEEP
    ]
    slope = float(
        np.polyfit(np.log([m for m, _ in sweep]), np.log([r for _, r in sweep]), 1)[0]
    )
    orders = []
    for m, xm in enumerate(exp.x_orders):
        orders.append(
            {
                "order": m,
                "freq_coeff": exp.freq_coeffs[m],
                "amplitude": exp.amplitudes[m],
                "harmonics": [
                    {
                        "n": n,
                        "re": float(np.real(xm.coefficient(n))),
                        "im": float(np.imag(xm.coefficient(n))),
                    }
                    for n in range(-xm.cutoff, xm.cutoff + 1)
                ],
            }
        )
    report = {
        "scheme": exp.scheme,
        "order": exp.order,
        "mu": exp.mu,
        "parameter": exp.parameter,
        "omega": exp.omega(),
        "amplitudes": list(exp.amplitudes),
        "freq_coeffs": list(exp.freq_coeffs),
        "orders": orders,
        "flags": list(exp.flags),
        "residual_rms": oscillator_residual(exp),
        "residual_sweep": [{"mu": m, "residual": r} for m, r in sweep],
        "residual_slope": slope,
        "expected_slope": exp.order + 1,
    }
    write_text(f"{cfg['out']}/orbit.json", dumps_json(report))
    print(f"orbit: omega = {exp.omega():.12g}, residual slope = {slope:.3f}")
    return 0


def _run_methods(cfg, density):
    out = {}
    box = tuple(float(v) for v in cfg["box"])
    tol = float(cfg["tol"])
    n_win, depth = int(cfg["n_win"]), int(cfg["depth"])
    want = cfg["method"]
    if want in ("cf", "all"):
        out["cf"] = find_exponents(density, box=box, n_win=n_win, depth=depth, tol=tol)
    if want in ("risken", "all"):
        out["risken"] = find_exponents_risken(density, box=box, depth=depth, tol=tol)
    if want in ("monodromy", "all"):
        out["monodromy"] = monodromy_exponents(
            density, int(cfg["monodromy_grid"]), re_min=float(cfg["box"][0])
        )
    return out


def _lam_of(entry):
    return entry.lam if hasattr(entry, "lam") else entry[0]


def cmd_spectrum(cfg) -> int:
    density = _density_from_config(cfg)
    results = _run_methods(cfg, density)
    scatter = ["method,lambda_re,lambda_im"]
    for method, entries in results.items():
        recs = spectrum_records(entries, method)
        write_text(f"{cfg['out']}/spectrum_{method}.json", dumps_json(recs))
        print(f"spectrum[{method}]: {len(recs)} root(s)")
        for r in recs:
            scatter.append(
                f"{method},{format_float(r['lambda_re'])},{format_float(r['lambda_im'])}"
            )
    write_text(f"{cfg['out']}/lambda_scatter.csv", "\n".join(scatter) + "\n")
    methods = sorted(results)
    if len(methods) >= 2:
        ref = methods[0]
        lines = ["method,lambda_re,lambda_im,match_re,match_im,delta"]
        worst = 0.0
        for entry in results[ref]:
            lam = _lam_of(entry)
            for other in methods[1:]:
                cands = [_lam_of(e) for e in results[other]]
                if not cands:
                    continue
                match = min(cands, key=lambda z: abs(z - lam))
                delta = abs(match - lam)
                worst = max(worst, delta)
                lines.append(
                    f"{other},{format_float(lam.real)},{format_float(lam.imag)},"
                    f"{format_float(match.real)},{format_float(match.imag)},"
                    f"{format_float(delta)}"
                )
        write_text(f"{cfg['out']}/comparison.csv", "\n".join(lines) + "\n")
        print(f"spectrum: max pairwise |delta| = {worst:.3e}")
        # the comparison pairs only the reference's roots; list every root
        # that no other method found within CLASS_TOL (modulo i) as well
        unmatched = ["method,lambda_re,lambda_im"]
        for method in methods:
            others = [_lam_of(e) for m in methods if m != method for e in results[m]]
            for entry in results[method]:
                lam = _lam_of(entry)
                if all(abs(to_strip(lam - z)) >= CLASS_TOL for z in others):
                    unmatched.append(
                        f"{method},{format_float(lam.real)},{format_float(lam.imag)}"
                    )
        write_text(f"{cfg['out']}/unmatched.csv", "\n".join(unmatched) + "\n")
        counts = [len(results[m]) for m in methods]
        if len(set(counts)) > 1:
            listed = ", ".join(f"{m} {n}" for m, n in zip(methods, counts))
            print(
                f"spectrum: root counts differ ({listed}); "
                f"{len(unmatched) - 1} unmatched root(s) in unmatched.csv"
            )
    if not any(results.values()):
        print("spectrum: no roots in box (informational)")
    return 0


def cmd_adjoint(cfg) -> int:
    density = _density_from_config(cfg)
    box = tuple(float(v) for v in cfg["box"])
    n_win, depth = int(cfg["n_win"]), int(cfg["depth"])
    modes = find_exponents(
        density, box=box, n_win=n_win, depth=depth, tol=float(cfg["tol"])
    )
    ctx = BilinearContext(density)
    # every mode has the job's window, so one pencil serves them all
    hill = HillBlocks(density, n_win + depth)
    pairs = []
    flagged = 0
    for mode in modes:
        psi = adjoint_modes(density, mode.lam_raw, n_win, depth, hill=hill)
        try:
            psi_n, phi_n, _ = normalize(psi, mode, density)
            pairs.append((psi_n, phi_n, False))
        except ZeroPairing:
            pairs.append((psi, mode, True))
            flagged += 1
    lines = ["lambda_re,lambda_im,mu_re,mu_im,abs_pairing,status"]
    bad = 0
    for psi_n, phi_a, was_flagged in pairs:
        for _, phi_b, _ in pairs:
            val = abs(ctx.pair(psi_n, phi_b, 0.0))
            same = abs(phi_a.lam - phi_b.lam) < 1e-9
            ok = abs(val - (1.0 if same else 0.0)) < 1e-8 and not was_flagged
            bad += 0 if ok else 1
            lines.append(
                f"{format_float(phi_a.lam.real)},{format_float(phi_a.lam.imag)},"
                f"{format_float(phi_b.lam.real)},{format_float(phi_b.lam.imag)},"
                f"{format_float(val)},{'pass' if ok else 'FLAG'}"
            )
    write_text(f"{cfg['out']}/biorthonormality.csv", "\n".join(lines) + "\n")
    recs = spectrum_records([p for _, p, _ in pairs], "cf", include_components=True)
    write_text(f"{cfg['out']}/adjoint_modes.json", dumps_json(recs))
    print(f"adjoint: {len(pairs)} mode(s), {bad} flagged pairing(s)")
    if cfg["strict"] and (bad or flagged):
        return 1
    return 0


def cmd_verify(cfg) -> int:
    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddefloquet",
        description="Periodic orbits and Floquet spectra of delay systems",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("orbit", cmd_orbit),
        ("spectrum", cmd_spectrum),
        ("adjoint", cmd_adjoint),
        ("verify", cmd_verify),
    ):
        q = sub.add_parser(name)
        q.set_defaults(func=fn)
        q.add_argument("--config", help="job config JSON file")
        q.add_argument("--system", help="system file or builtin:s1|s2|s3")
        q.add_argument("--scheme", choices=["pl", "shohat"])
        q.add_argument("--order", type=int)
        q.add_argument("--mu", type=float)
        q.add_argument("--method", choices=["cf", "risken", "monodromy", "all"])
        q.add_argument("--box", nargs=4, type=float, metavar=("RE0", "RE1", "IM0", "IM1"))
        q.add_argument("--out", help="output directory")
        q.add_argument("--strict", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DdeFloquetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
