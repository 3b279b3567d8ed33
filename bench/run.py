"""Benchmark of ddefloquet: one workload per call, a JSON result as the last
line of standard output.

    python3 bench/run.py --workload scalar-spectrum --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The runner builds the workload's inputs from the seed, times set-up in
several fresh processes, runs the workload in one more (closed loop, one
client, BLAS held to one thread), then checks every output the program
wrote against the independent reference in reference.py.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, "_work")
SETUP_RUNS = 5
CHILD_TIMEOUT = 170.0

sys.path.insert(0, HERE)
from workloads import CLI_BOX, KNOWN_FAULT_OPS, WORKLOADS, make_spec  # noqa: E402

CF_TOL = 1e-8
# monodromy_exponents accepts a multiplier that moves by rich_tol = 1e-3
# (relative) under grid doubling; to first order that is 1e-3 / (2 pi) in
# the exponent
MONODROMY_TOL = 1e-3 / (2.0 * 3.141592653589793)


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("DDEFLOQUET_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(spec: dict, workdir: str, extra: list):
    """Start a worker; returns (process, seconds until it printed `ready`)."""
    cmd = [sys.executable, WORKER, "--spec", json.dumps(spec), "--workdir", workdir] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed to start: {line!r}")
    return proc, ready


def finish(proc) -> None:
    try:
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if rest:
        sys.stderr.write(rest)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


# -- checks ------------------------------------------------------------------


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def reference_for(kernel: dict):
    import reference

    return reference.box_exponents(
        kernel["a"], kernel["b"], kernel["c"], kernel["tau"], CLI_BOX, margin=0.05
    )


def fold_fault_pair(kernel: dict) -> list:
    """Strip values of the k = +-1 Lambert-W classes the fold fault hides."""
    import reference

    raw = reference.scalar_exponents(kernel["a"], kernel["b"], kernel["c"], kernel["tau"])
    return [reference.to_strip(raw[k]) for k in (1, -2)]


def records_lams(path) -> list:
    return [complex(r["lambda_re"], r["lambda_im"]) for r in load_json(path)]


def check_cli_op(op: dict, out: dict, want: list, kernel: dict):
    """(passed, known_fault, reason) for one CLI op's output files."""
    import reference

    if out["rc"] != 0:
        return False, False, f"exit code {out['rc']}"
    d = out["out"]
    if op["kind"] == "adjoint":
        got = records_lams(os.path.join(d, "adjoint_modes.json"))
        with open(os.path.join(d, "biorthonormality.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != len(got) ** 2 or any(not r.endswith(",pass") for r in rows):
            return False, False, "biorthonormality.csv has a row that is not pass"
        tol = CF_TOL
    else:
        got = records_lams(os.path.join(d, f"spectrum_{op['kind']}.json"))
        tol = MONODROMY_TOL if op["kind"] == "monodromy" else CF_TOL
    reason = reference.match_exponents(got, want, tol)
    if reason is None:
        return True, False, ""
    hidden = fold_fault_pair(kernel)
    visible = [w for w in want if min(abs(w - h) for h in hidden) > tol]
    known = reference.match_exponents(got, visible, tol) is None
    return False, known, reason


def check_zero_mode(out: dict):
    import numpy as np
    import reference

    if not out["modes"]:
        return False, "no exponent found"
    coeffs = np.array(out["state_coeffs"])
    coeffs = coeffs[..., 0] + 1j * coeffs[..., 1]
    deriv = reference.derivative_harmonics(coeffs, out["state_cutoff"])
    best = min(out["modes"], key=lambda m: abs(complex(*m["lam"])))
    comps = np.array(best["components"])
    ok, lam_abs, sim = reference.zero_mode_check(
        complex(*best["lam"]), best["strip_offset"], comps[..., 0] + 1j * comps[..., 1],
        deriv, out["state_cutoff"],
    )
    return ok, f"|lambda0| = {lam_abs:.2e}, similarity = {sim:.6f}"


def check_rounds(spec: dict, rounds: list):
    """(attempted, failed, correct, notes) over every op of every round."""
    kernels = {k["name"]: k for k in spec["kernels"]}
    wants = {name: reference_for(k) for name, k in kernels.items()}
    attempted = failed = 0
    correct = True
    notes = []
    for r, rnd in enumerate(rounds):
        for op in spec["ops"]:
            out = rnd["outputs"][op["name"]]
            attempted += 1
            if op["kind"] == "zero-mode":
                ok, reason = check_zero_mode(out)
                known = False
            else:
                ok, known, reason = check_cli_op(op, out, wants[op["kernel"]], kernels[op["kernel"]])
            if ok:
                continue
            failed += 1
            expected = (spec["workload"], op["name"]) in KNOWN_FAULT_OPS and known
            correct = correct and expected
            notes.append(f"round {r} {op['name']}: {reason}" + (" (fold fault)" if expected else ""))
    return attempted, failed, correct, notes


# -- main --------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ddefloquet", "__init__.py")):
        print(f"no ddefloquet sources under {ROOT}/src", file=sys.stderr)
        return 2

    spec = make_spec(args.workload, args.seed)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setup = []
        for i in range(SETUP_RUNS):
            proc, ready = start_worker(spec, os.path.join(run_dir, f"setup{i}"), ["--setup-only"])
            finish(proc)
            setup.append(ready)
        workdir = os.path.join(run_dir, "run")
        proc, ready = start_worker(
            spec, workdir, ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        setup.append(ready)
        finish(proc)
        result = load_json(os.path.join(workdir, "result.json"))
        attempted, failed, correct, notes = check_rounds(spec, result["rounds"])
        if args.trace:
            shutil.copy(os.path.join(workdir, "spans.csv.gz"),
                        os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r, rnd in enumerate(result["rounds"]):
        times = " ".join(f"{k}={v:.3f}" for k, v in rnd["op_seconds"].items())
        print(f"round {r}: {rnd['seconds']:.3f} s: {times}", file=sys.stderr)
    for note in notes:
        print(note, file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            # the mean, not the median: the host's speed drifts over tens of
            # seconds, so rounds are not independent samples with outliers,
            # and the mean of a run holds every second it measured
            "job_s": {"value": statistics.fmean(r["seconds"] for r in result["rounds"]),
                      "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
