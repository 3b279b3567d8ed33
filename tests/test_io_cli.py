import contextlib
import io
import json
import os

import numpy as np
import pytest

from ddefloquet import ConfigError
from ddefloquet.cli import main
from ddefloquet.errors import NoRootsInBoxWarning
from ddefloquet.io import dumps_json, format_float, load_system, spectrum_records


def test_format_float_17_digits():
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(2.0) == "2"
    with pytest.raises(ValueError):
        format_float(float("nan"))


def test_dumps_json_deterministic_and_sorted():
    obj = {"b": 1.5, "a": [1, 2.25], "c": complex(1, -2), "d": None, "e": True}
    text = dumps_json(obj)
    assert text == dumps_json(obj)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"im": -2' in text and '"re": 1' in text


def test_load_builtin_systems():
    kind, s1, _ = load_system("builtin:s1")
    assert kind == "first_order" and s1.dim == 1
    kind, s2, meta = load_system("builtin:s2")
    assert kind == "oscillator" and s2.omega0 == 1.0
    kind, s3, _ = load_system("builtin:s3")
    assert kind == "density" and s3.bandwidth == 1


def test_load_oscillator_file(tmp_path):
    path = tmp_path / "osc.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "kind": "oscillator",
                "omega0": 1.0,
                "tau": 0.5,
                "mu": 0.1,
                "forcing": [
                    {"coeff": 1.0, "powers": [0, 0, 0, 1]},
                    {"coeff": -1.0, "powers": [2, 0, 0, 1]},
                ],
            }
        )
    )
    kind, model, meta = load_system(str(path))
    assert kind == "oscillator"
    assert meta["mu"] == 0.1
    assert model.degree() == 3


@pytest.mark.parametrize("bad", [2.7, -1])
@pytest.mark.parametrize("kind", ["oscillator", "first_order"])
def test_powers_must_be_nonnegative_integers(tmp_path, capsys, kind, bad):
    # int() used to turn a power of 2.7 into 2 and exit 0
    if kind == "oscillator":
        forcing = [{"coeff": 1.0, "powers": [0, 0, 0, 1]}]
        forcing.append({"coeff": -1.0, "powers": [bad, 0, 0, 1]})
        system = {"omega0": 1.0, "tau": 0.5, "mu": 0.1, "forcing": forcing}
    else:
        term = {"coeff": -1.0, "target": 0, "powers": [bad], "delayed_powers": [0]}
        system = {"dim": 1, "tau": 1.0, "terms": [term]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(dict(system, version=1, kind=kind)))
    with pytest.raises(ConfigError, match="nonnegative integer"):
        load_system(str(path))
    code = main(["orbit", "--system", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nonnegative integer" in capsys.readouterr().err


def test_load_density_file(tmp_path):
    path = tmp_path / "dens.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "kind": "density",
                "dim": 1,
                "omega": 1.0,
                "tau": 1.0,
                "weights": [
                    {"k": 0, "delayed": True, "matrix": [[-0.5]]},
                    {"k": 0, "delayed": False, "matrix": [[-0.3]]},
                    {"k": 1, "delayed": False, "matrix": [[{"re": 0.05, "im": 0}]]},
                    {"k": -1, "delayed": False, "matrix": [[0.05]]},
                ],
            }
        )
    )
    kind, dens, _ = load_system(str(path))
    assert kind == "density"
    assert dens.bandwidth == 1
    assert dens.coeffs[0, 1, 0, 0] == -0.5


def test_malformed_file_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1, "kind": "oscillator",\n  broken')
    with pytest.raises(ConfigError) as info:
        load_system(str(path))
    assert "line" in str(info.value)

    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"version": 1, "kind": "oscillator"}))
    with pytest.raises(ConfigError) as info2:
        load_system(str(path2))
    assert "missing required key" in str(info2.value)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text(json.dumps({"version": 9, "kind": "density"}))
    with pytest.raises(ConfigError):
        load_system(str(path))


def _density_file(**changes):
    weights = [
        {"k": 0, "delayed": True, "matrix": [[-0.5]]},
        {"k": 0, "delayed": False, "matrix": [[-0.3]]},
    ]
    system = {"version": 1, "kind": "density", "dim": 1, "omega": 1.0, "tau": 1.0}
    weights[1].update(changes.pop("weight", {}))
    return json.dumps(dict(system, weights=weights, **changes))


def _first_order_file(dim=1, target=0, tau=1.0):
    term = {"coeff": -1.0, "target": target, "powers": [0], "delayed_powers": [1]}
    system = {"version": 1, "kind": "first_order", "dim": dim, "tau": tau}
    return json.dumps(dict(system, terms=[term]))


def _oscillator_file(coeff=1.0):
    system = {"version": 1, "kind": "oscillator", "omega0": 1.0, "tau": 0.5}
    forcing = [{"coeff": coeff, "powers": [0, 0, 0, 1]}]
    return json.dumps(dict(system, forcing=forcing))


@pytest.mark.parametrize(
    "text, named",
    [
        # bool("false") read the weight as delayed
        (_density_file(weight={"delayed": "false"}), "delayed"),
        # int() truncated these silently
        (_density_file(dim=1.5), "dim"),
        (_density_file(weight={"k": 0.5}), "k"),
        (_first_order_file(dim=1.5), "dim"),
        (_first_order_file(target=0.5), "target"),
        # these raised a traceback
        ("[1, 2]", "JSON object"),
        (_density_file(version="x"), "version"),
        (_density_file().replace("-0.3", "NaN"), "matrix entries"),
        # a non-finite number: a LinAlgError or ValueError traceback, or the
        # message that the last delay slot must be theta = 0
        (_oscillator_file(coeff=float("nan")), "coeff"),
        (_density_file(omega=float("nan")), "omega"),
        (_first_order_file(tau=float("inf")), "tau"),
        # a string or a boolean read as a number, and the job ran
        (_density_file(omega="1.0"), "omega"),
        (_first_order_file(tau=True), "tau"),
        (_density_file(weight={"matrix": [[{"re": True}]]}), "matrix[0][0]"),
    ],
    ids=[
        "delayed",
        "dim",
        "k",
        "first-order-dim",
        "target",
        "list",
        "version",
        "nan",
        "oscillator-coeff-nan",
        "density-omega-nan",
        "first-order-tau-inf",
        "density-omega-string",
        "first-order-tau-bool",
        "density-entry-bool",
    ],
)
def test_cli_malformed_system_value_exit_2(tmp_path, capsys, text, named):
    path = tmp_path / "sys.json"
    path.write_text(text)
    args = ["--system", str(path), "--method", "monodromy", "--out", str(tmp_path / "o")]
    assert main(["spectrum", *args]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err


def test_spectrum_records_shape(s3_modes):
    recs = spectrum_records(s3_modes, "cf")
    assert all(r["method"] == "cf" for r in recs)
    assert all(
        set(r)
        >= {"lambda_re", "lambda_im", "multiplier_re", "multiplier_im", "residual"}
        for r in recs
    )
    # deterministic ordering
    assert recs == spectrum_records(s3_modes, "cf")


def test_spectrum_records_tie_a_pair_an_ulp_apart():
    re = -0.8898044857539491
    upper = complex(np.nextafter(re, 0.0), 0.0623)
    lower = complex(re, -0.0623)
    # without the rounded key the larger Re, the upper member, came first
    assert upper.real > lower.real
    entries = [(upper, np.exp(2 * np.pi * upper)), (lower, np.exp(2 * np.pi * lower))]
    for order in (entries, entries[::-1]):
        recs = spectrum_records(order, "monodromy")
        assert [r["lambda_im"] for r in recs] == [-0.0623, 0.0623]


def test_trajectory_csv_roundtrip():
    from ddefloquet import integrate_mos
    from ddefloquet.io import trajectory_csv
    from ddefloquet.systems import linear_scalar_system

    sys0 = linear_scalar_system(-1.0, 0.2, 1.0)
    traj = integrate_mos(sys0, lambda th: np.array([1.0]), 2.0, 0.05)
    text = trajectory_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "xi,q1"
    assert len(lines) == len(traj.times) + 1
    last = lines[-1].split(",")
    assert abs(float(last[0]) - 2.0) < 1e-12


def test_cli_malformed_system_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["orbit", "--system", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_cli_orbit_runs_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = main(
            [
                "orbit",
                "--system",
                "builtin:s2",
                "--mu",
                "0.1",
                "--order",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    for name in ("orbit.json", "orbit_orders.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "orbit.json").read_text())
    assert abs(report["residual_slope"] - 2.0) < 0.5
    assert abs(report["freq_coeffs"][1] - np.sin(0.5)) < 1e-9


@pytest.fixture(scope="module")
def s3_all_methods(tmp_path_factory):
    """`spectrum --method all` on s3 at the defaults: (exit code, output
    directory, stdout)."""
    out = tmp_path_factory.mktemp("spec")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(
            ["spectrum", "--system", "builtin:s3", "--method", "all", "--out", str(out)]
        )
    return code, out, printed.getvalue()


def test_cli_spectrum_all_methods(s3_all_methods):
    code, out, _ = s3_all_methods
    assert code == 0
    for name in ("spectrum_cf.json", "spectrum_risken.json", "spectrum_monodromy.json"):
        recs = json.loads((out / name).read_text())
        assert len(recs) >= 2
    # the tridiagonal route reports modes, with a residual, the truncation
    # check and the window its modes are cut to, the job's n_win = depth
    for rec in json.loads((out / "spectrum_risken.json").read_text()):
        assert rec["converged"] is True
        assert rec["residual"] < 1e-8
        assert (rec["n_win"], rec["depth"]) == (10, 10)
    table = (out / "comparison.csv").read_text().strip().splitlines()
    assert table[0].startswith("method,")
    worst = max(float(line.split(",")[-1]) for line in table[1:])
    assert worst < 1e-4


def test_cli_spectrum_lists_the_unmatched_roots(s3_all_methods):
    # every route reports the same four classes, so no root is unmatched
    # and the counts agree
    code, out, printed = s3_all_methods
    assert code == 0
    rows = (out / "unmatched.csv").read_text().splitlines()
    assert rows == ["method,lambda_re,lambda_im"]
    assert "root counts differ" not in printed


def test_cli_spectrum_reports_the_fold_pair(s3_all_methods):
    # the k = +-1 pair, whose dominant Fourier component sits at n = -+8
    # of the strip value, from both continued fraction routes
    _, out, _ = s3_all_methods
    for method in ("cf", "risken"):
        recs = json.loads((out / f"spectrum_{method}.json").read_text())
        lams = [complex(r["lambda_re"], r["lambda_im"]) for r in recs]
        assert len(lams) == 4
        for im in (-0.461916, 0.461916):
            assert min(abs(z - complex(-2.763908, im)) for z in lams) < 1e-6


def test_cli_spectrum_empty_box_exit_0(tmp_path, capsys):
    out = tmp_path / "empty"
    with pytest.warns(NoRootsInBoxWarning):
        code = main(
            [
                "spectrum",
                "--system",
                "builtin:s1",
                "--method",
                "cf",
                "--box",
                "5",
                "6",
                "-0.4",
                "0.4",
                "--out",
                str(out),
            ]
        )
    assert code == 0
    assert json.loads((out / "spectrum_cf.json").read_text()) == []


def test_cli_adjoint_report(tmp_path):
    out = tmp_path / "adj"
    code = main(
        ["adjoint", "--system", "builtin:s3", "--out", str(out), "--strict"]
    )
    assert code == 0
    lines = (out / "biorthonormality.csv").read_text().strip().splitlines()
    assert lines[0].startswith("lambda_re,")
    assert all(line.endswith("pass") for line in lines[1:])


def test_cli_unknown_config_key(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["orbit", "--config", str(cfg)]) == 2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(
        json.dumps({"system": "builtin:s2", "order": 1, "mu": 0.05, "scheme": "pl"})
    )
    out = tmp_path / "o"
    code = main(["orbit", "--config", str(cfg), "--mu", "0.08", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "orbit.json").read_text())
    assert report["mu"] == 0.08


@pytest.mark.parametrize(
    "bad",
    [
        {"order": -1},
        {"order": 1.5},
        {"n_win": -1},
        {"n_win": 2.5},
        {"depth": -1},
        {"depth": 0},
        {"monodromy_grid": 5},
        {"mu": "abc"},
        {"mu": float("inf")},
        {"tol": "x"},
        {"cutoff": -2, "system": "builtin:s2"},
        {"box": [1, 0, 0, 1]},
        {"box": "abcd"},
        {"box": [0, 1, 0, None]},
        {"system": 5},
        {"out": 5},
        {"strict": "no"},
        5,
        None,
        [1, 2],
    ],
    ids=str,
)
def test_cli_malformed_config_value_exit_2(tmp_path, capsys, bad):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(bad))
    out = [] if bad == {"out": 5} else ["--out", str(tmp_path / "o")]
    assert main(["spectrum", "--config", str(cfg), *out]) == 2
    assert "error:" in capsys.readouterr().err
