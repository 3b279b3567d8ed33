"""File formats: system definitions, job configs and machine readable output.

System definition files are JSON with a `version` key (currently 1) and a
`kind` selecting one of three grammars:

kind = "oscillator"   {omega0, tau, mu?, forcing: [{coeff, powers: [4 ints]}]}
kind = "first_order"  {dim, tau, terms: [{coeff, target, powers, delayed_powers}]}
kind = "density"      {dim, omega, tau, weights: [{k, delayed, matrix}]}

Matrix entries are numbers or {re, im} pairs.  The pseudo path
"builtin:s1" / "builtin:s2" / "builtin:s3" loads a bundled benchmark
system.  All emitted JSON is deterministic: keys sorted, floats printed
with 17 significant digits, complex numbers as {re, im} pairs, and no
timestamps anywhere.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError
from .model import DdeSystem, FourierMatrixDensity, MonomialTerm
from .orbit import DrivenOscillator
from .rootfind import spectrum_key
from . import systems as bundled

__all__ = [
    "format_float",
    "dumps_json",
    "load_system",
    "spectrum_records",
    "trajectory_csv",
    "write_text",
]

SYSTEM_FILE_VERSION = 1


def format_float(x: float) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a float")
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {v} cannot be serialized")
    out = f"{v:.17g}"
    return out


def _dump(obj, parts, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            parts.append(f'{pad_in}"{k}": ')
            _dump(obj[k], parts, indent, level + 1)
            parts.append(",\n" if i < len(keys) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(obj):
            parts.append(pad_in)
            _dump(v, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _dump({"re": float(obj.real), "im": float(obj.imag)}, parts, indent, level)
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj, indent: int = 2) -> str:
    """Deterministic JSON text: sorted keys, 17 significant digit floats."""
    parts: list[str] = []
    _dump(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# -- system definition files -----------------------------------------


def _entry_to_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
    raise ConfigError(f"{where}: expected number or {{re, im}} pair, got {v!r}")


def _require(data, key, where):
    if key not in data:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return data[key]


def _load_oscillator(data, where):
    forcing = []
    for i, t in enumerate(_require(data, "forcing", where)):
        spot = f"{where}: forcing[{i}]"
        powers = _require(t, "powers", spot)
        if len(powers) != 4:
            raise ConfigError(f"{spot}: powers must list 4 exponents")
        forcing.append((float(_require(t, "coeff", spot)), tuple(int(p) for p in powers)))
    return DrivenOscillator(
        omega0=float(_require(data, "omega0", where)),
        tau=float(_require(data, "tau", where)),
        forcing=tuple(forcing),
    )


def _load_first_order(data, where):
    dim = int(_require(data, "dim", where))
    terms = []
    for i, t in enumerate(_require(data, "terms", where)):
        spot = f"{where}: terms[{i}]"
        powers = tuple(int(p) for p in _require(t, "powers", spot))
        dpowers = tuple(int(p) for p in _require(t, "delayed_powers", spot))
        if len(powers) != dim or len(dpowers) != dim:
            raise ConfigError(f"{spot}: power lists must have length dim = {dim}")
        terms.append(
            MonomialTerm(
                float(_require(t, "coeff", spot)),
                int(_require(t, "target", spot)),
                powers,
                dpowers,
            )
        )
    return DdeSystem(dim, float(_require(data, "tau", where)), tuple(terms))


def _load_density(data, where):
    dim = int(_require(data, "dim", where))
    omega = float(_require(data, "omega", where))
    tau = float(_require(data, "tau", where))
    weights = _require(data, "weights", where)
    kmax = 0
    for w in weights:
        kmax = max(kmax, abs(int(_require(w, "k", where))))
    coeffs = np.zeros((2, 2 * kmax + 1, dim, dim), dtype=complex)
    for i, w in enumerate(weights):
        spot = f"{where}: weights[{i}]"
        k = int(w["k"])
        slot = 0 if bool(_require(w, "delayed", spot)) else 1
        mat = _require(w, "matrix", spot)
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise ConfigError(f"{spot}: matrix must be {dim}x{dim}")
        for r in range(dim):
            for c in range(dim):
                coeffs[slot, k + kmax, r, c] += _entry_to_complex(
                    mat[r][c], f"{spot}[{r}][{c}]"
                )
    return FourierMatrixDensity(
        omega=omega, delays=np.array([-omega * tau, 0.0]), coeffs=coeffs
    )


def load_system(path: str):
    """Load a system definition; returns (kind, object, metadata dict).

    `kind` is one of "oscillator", "first_order", "density".  Raises
    ConfigError with a location note on malformed input.
    """
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1].lower()
        if name == "s1":
            return "first_order", bundled.s1_system(), {"mu": 0.0}
        if name == "s2":
            return "oscillator", bundled.s2_model(), {"mu": 0.1}
        if name == "s3":
            return "density", bundled.s3_density(), {"mu": 0.0}
        raise ConfigError(f"unknown builtin system '{name}'")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    where = path
    version = int(data.get("version", 0))
    if version != SYSTEM_FILE_VERSION:
        raise ConfigError(f"{where}: unsupported version {version!r}")
    kind = _require(data, "kind", where)
    meta = {"mu": float(data.get("mu", 0.0))}
    try:
        if kind == "oscillator":
            return "oscillator", _load_oscillator(data, where), meta
        if kind == "first_order":
            return "first_order", _load_first_order(data, where), meta
        if kind == "density":
            return "density", _load_density(data, where), meta
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown kind '{kind}'")


# -- structured outputs -------------------------------------------------


def trajectory_csv(trajectory) -> str:
    """CSV text of a method-of-steps trajectory: rows xi, q1..qn."""
    values = np.atleast_2d(np.asarray(trajectory.values))
    header = "xi," + ",".join(f"q{j + 1}" for j in range(values.shape[1]))
    lines = [header]
    for t, row in zip(trajectory.times, values):
        lines.append(
            format_float(float(t))
            + ","
            + ",".join(format_float(float(np.real(v))) for v in row)
        )
    return "\n".join(lines) + "\n"


def spectrum_records(entries, method: str, include_components: bool = False):
    """Uniform spectrum record list for one method.

    Each entry is either a FloquetMode-like object (has lam, multiplier,
    residual, converged, n_win, depth), as both continued fraction routes
    return, or a (lam, rho) tuple of the monodromy oracle, which has no
    residual, truncation or convergence check to record.
    """
    records = []
    for e in entries:
        if isinstance(e, tuple):
            lam, rho = e
            rec = {
                "lambda_re": float(lam.real),
                "lambda_im": float(lam.imag),
                "multiplier_re": float(rho.real),
                "multiplier_im": float(rho.imag),
                "residual": None,
                "converged": True,
                "n_win": None,
                "depth": None,
                "method": method,
            }
        else:
            rho = e.multiplier
            rec = {
                "lambda_re": float(e.lam.real),
                "lambda_im": float(e.lam.imag),
                "multiplier_re": float(rho.real),
                "multiplier_im": float(rho.imag),
                "residual": float(e.residual),
                "converged": bool(e.converged),
                "n_win": int(e.n_win),
                "depth": int(e.depth),
                "method": method,
            }
            if include_components:
                rec["components"] = [
                    [complex(v) for v in row] for row in e.components
                ]
        records.append(rec)
    records.sort(key=lambda r: spectrum_key(complex(r["lambda_re"], r["lambda_im"])))
    return records
