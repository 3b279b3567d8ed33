"""One benchmark process: set up, run whole rounds of a workload's ops, save
the program's outputs for the checks.

Started by run.py with BLAS held to one thread.  It prints `ready` once
numpy and ddefloquet are imported and the input files are written; the
runner times set-up up to that line.  A round runs every op of the spec
once, in order; rounds are started while the next one is expected to end
within the time budget, and there is always at least one.  With --trace 1
every round runs traced and the per-layer figures are per round.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

import ddefloquet
from ddefloquet import cli, floquet, model, orbit
from ddefloquet.systems import s2_model

from workloads import VDP_SETTINGS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def density_file(k: dict) -> dict:
    """`density` system file of q' = (a + c cos xi) q + b q(xi - tau)."""
    return {
        "version": 1,
        "kind": "density",
        "dim": 1,
        "omega": 1.0,
        "tau": k["tau"],
        "weights": [
            {"k": 0, "delayed": True, "matrix": [[k["b"]]]},
            {"k": 0, "delayed": False, "matrix": [[k["a"]]]},
            {"k": 1, "delayed": False, "matrix": [[k["c"] / 2]]},
            {"k": -1, "delayed": False, "matrix": [[k["c"] / 2]]},
        ],
    }


def write_inputs(spec: dict, workdir: str) -> dict:
    """System and job config files per kernel; returns config paths."""
    indir = os.path.join(workdir, "inputs")
    os.makedirs(indir, exist_ok=True)
    configs = {}
    for k in spec["kernels"]:
        system = os.path.join(indir, f"{k['name']}.system.json")
        with open(system, "w") as fh:
            json.dump(density_file(k), fh)
        configs[k["name"]] = os.path.join(indir, f"{k['name']}.job.json")
        with open(configs[k["name"]], "w") as fh:
            json.dump({"system": system}, fh)
    return configs


def run_cli(argv: list) -> dict:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(argv)
    return {"rc": rc}


def zero_mode_op(op: dict) -> dict:
    # module attributes are looked up at call time, so a traced round sees
    # the wrapped functions
    s = VDP_SETTINGS
    s2 = s2_model()
    expand = orbit.expand_pl if op["scheme"] == "pl" else orbit.expand_shohat
    exp = expand(s2, op["mu"], op["order"])
    state, omega = orbit.orbit_to_state(exp)
    density = model.linearize_about_orbit(
        s2.to_dde(op["mu"]), state, omega,
        bandwidth=s["bandwidth"], tail_frac=s["tail_frac"],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        modes = floquet.find_exponents(
            density, box=s["box"], n_win=s["n_win"], depth=s["depth"],
            grid=s["grid"], tol=s["tol"],
        )
    return {"state": state, "modes": modes}


def encode_zero_mode(out: dict) -> dict:
    """The outputs the zero-mode check reads, as JSON-ready lists."""
    def pairs(a):
        a = np.asarray(a)
        return np.stack([a.real, a.imag], axis=-1).tolist()

    state = out["state"]
    return {
        "state_cutoff": int(state.cutoff),
        "state_coeffs": pairs(state.coeffs),
        "modes": [
            {"lam": [m.lam.real, m.lam.imag], "strip_offset": int(m.strip_offset),
             "components": pairs(m.components)}
            for m in out["modes"]
        ],
    }


def make_ops(spec: dict, configs: dict, workdir: str):
    """(name, callable(round_index) -> output) for each op of the spec."""
    ops = []
    for op in spec["ops"]:
        def call(r, op=op):
            if op["kind"] == "zero-mode":
                return zero_mode_op(op)
            out = os.path.join(workdir, f"r{r}", op["name"])
            argv = ["adjoint"] if op["kind"] == "adjoint" else ["spectrum", "--method", op["kind"]]
            res = run_cli(argv + ["--config", configs[op["kernel"]], "--out", out])
            res["out"] = out
            return res
        ops.append((op["name"], call))
    return ops


def run_round(ops, r: int) -> dict:
    times, outputs = {}, {}
    for name, call in ops:
        t0 = time.perf_counter()
        outputs[name] = call(r)
        times[name] = time.perf_counter() - t0
    return {"seconds": sum(times.values()), "op_seconds": times, "outputs": outputs}


def layer_metrics(rec, rounds: int, traced_job: float, overhead: float) -> dict:
    """Per-round per-layer figures from the spans of the traced rounds.

    Self times are means over the rounds, so together with
    trace.unattributed_s they add up to trace.job_s, the mean traced round.
    trace.overhead_s is the wrapper cost per span, measured in this
    process, times the spans of one round.
    """
    tot = rec.totals()
    counts = rec.counts

    def calls(name):
        return tot.get(name, (0, 0.0))[0] / rounds

    def own(*names):
        return sum(tot.get(n, (0, 0.0))[1] for n in names) / rounds

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    m["floquet.ladder_operators.calls"] = (calls("floquet.ladder_operators"), "count")
    m["floquet.ladder_operators.self_s"] = (own("floquet.ladder_operators"), "s")
    m["floquet.ladder_operators.ms_per_call"] = (
        1e3 * per(own("floquet.ladder_operators"), calls("floquet.ladder_operators")), "ms")
    m["model.build_L.calls"] = (calls("model.build_L"), "count")
    m["model.build_L.self_s"] = (own("model.build_L"), "s")
    m["floquet.assemble_M.calls"] = (calls("floquet.assemble_M"), "count")
    m["floquet.assemble_M.self_s"] = (own("floquet.assemble_M"), "s")
    m["floquet.evals_per_mode"] = (
        per(calls("floquet.assemble_M"), counts.get("floquet.modes", 0) / rounds), "ratio")
    m["rootfind.scan_evals"] = (counts.get("rootfind.scan_evals", 0) / rounds, "count")
    m["rootfind.seeds"] = (
        rec.children_named("rootfind.find_roots", "rootfind.newton") / rounds, "count")
    m["rootfind.find_roots.self_s"] = (own("rootfind.find_roots"), "s")
    m["rootfind.newton.calls"] = (calls("rootfind.newton"), "count")
    m["rootfind.newton.evals"] = (counts.get("rootfind.newton.evals", 0) / rounds, "count")
    m["rootfind.newton.self_s"] = (own("rootfind.newton"), "s")
    m["rootfind.newton.converged_ratio"] = (
        per(counts.get("rootfind.newton.converged", 0) / rounds, calls("rootfind.newton")), "ratio")
    m["floquet.hill_refine.calls"] = (calls("floquet.hill_refine"), "count")
    m["floquet.hill_refine.self_s"] = (own("floquet.hill_refine"), "s")
    m["floquet.hill_logdet.calls"] = (calls("floquet.hill_logdet"), "count")
    m["floquet.hill_logdet.self_s"] = (own("floquet.hill_logdet"), "s")
    m["floquet.truncated_matrix.self_s"] = (own("floquet.truncated_matrix"), "s")
    m["floquet.extract_mode.self_s"] = (own("floquet.extract_mode"), "s")
    m["linalg.determinant.calls"] = (calls("linalg.determinant"), "count")
    m["linalg.determinant.self_s"] = (own("linalg.determinant"), "s")
    m["linalg.solve_linear.calls"] = (calls("linalg.solve_linear"), "count")
    m["linalg.solve_linear.self_s"] = (own("linalg.solve_linear"), "s")
    m["risken.tridiagonal_closure.calls"] = (calls("risken.tridiagonal_closure"), "count")
    m["risken.tridiagonal_closure.self_s"] = (own("risken.tridiagonal_closure"), "s")
    m["risken.tridiagonal_closure.ms_per_call"] = (
        1e3 * per(own("risken.tridiagonal_closure"), calls("risken.tridiagonal_closure")), "ms")
    m["risken.assemble_blocks.self_s"] = (own("risken.assemble_blocks"), "s")
    m["oracles.monodromy.march_s"] = (own("oracles.monodromy_matrix"), "s")
    m["oracles.monodromy.eigvals_s"] = (own("oracles.monodromy_exponents"), "s")
    m["adjoint.adjoint_modes.self_s"] = (own("adjoint.adjoint_modes"), "s")
    m["adjoint.normalize.self_s"] = (own("adjoint.normalize"), "s")
    m["adjoint.pair.calls"] = (calls("adjoint.pair"), "count")
    m["orbit.expand.self_s"] = (own("orbit.expand_pl", "orbit.expand_shohat"), "s")
    m["model.linearize_about_orbit.self_s"] = (own("model.linearize_about_orbit"), "s")
    m["cli.write_s"] = (own("cli.write"), "s")
    attributed = sum(v for k, (v, u) in m.items() if u == "s")
    m["trace.job_s"] = (traced_job, "s")
    m["trace.unattributed_s"] = (traced_job - attributed, "s")
    m["trace.overhead_s"] = (overhead, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if not os.path.abspath(ddefloquet.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"ddefloquet imported from {ddefloquet.__file__}, not this checkout",
              file=sys.stderr)
        return 3
    spec = json.loads(args.spec)
    configs = write_inputs(spec, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ops = make_ops(spec, configs, args.workdir)
    rec = restore = None
    if args.trace:
        from spans import SpanRecorder, instrument, span_cost

        rec = SpanRecorder()
        restore = instrument(rec)
    rounds = []
    start = time.perf_counter()
    while True:
        if rec is not None:
            with rec.span("round"):
                done = run_round(ops, len(rounds))
        else:
            done = run_round(ops, len(rounds))
        rounds.append(done)
        expected = sum(x["seconds"] for x in rounds) / len(rounds)
        if time.perf_counter() - start + expected > args.seconds:
            break
    if restore is not None:
        restore()

    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result["rounds"] = [
        {
            "seconds": x["seconds"],
            "op_seconds": x["op_seconds"],
            "outputs": {
                name: (encode_zero_mode(o) if "modes" in o else o)
                for name, o in x["outputs"].items()
            },
        }
        for x in rounds
    ]
    if rec is not None:
        job = sum(x["seconds"] for x in rounds) / len(rounds)
        spans = (len(rec.starts) - len(rounds)) / len(rounds)
        result["layers"] = layer_metrics(rec, len(rounds), job, spans * span_cost())
        rec.write(os.path.join(args.workdir, "spans.csv.gz"))
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
