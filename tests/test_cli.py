"""Command line behavior: artifacts, determinism, exit codes, precedence."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fockbench.cli import _emit_json, main
from fockbench.sqm import build_family


def run_cli(*argv):
    return main(list(argv))


def test_state_json_layout(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert run_cli("state", "--family", "coherent", "--alpha", "2", "--dim", "32",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["family"] == "coherent"
    assert payload["dim"] == 32
    assert payload["parameters"]["alpha"] == [2.0, 0.0]
    assert len(payload["amplitudes"]) == 32
    assert all(len(pair) == 2 for pair in payload["amplitudes"])
    probs = payload["photon_distribution"]
    assert abs(sum(probs) - 1.0) <= 1e-12
    assert abs(probs[4] - 0.195367) <= 1e-6
    rep = payload["quadrature_report"]
    assert abs(rep["product"] - 0.25) <= 1e-6


def test_state_csv_rows(capsys):
    assert run_cli("state", "--family", "coherent", "--alpha", "2",
                   "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,probability"
    n, p = lines[5].split(",")
    assert n == "4"
    assert abs(float(p) - 0.195367) <= 1e-6


def test_state_is_byte_deterministic(tmp_path):
    cmd = [sys.executable, "-m", "fockbench.cli", "state", "--family", "squeezed",
           "--r", "0.8", "--dim", "48", "--out"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        proc = subprocess.run(cmd + [str(target)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()


def test_console_script_installed():
    assert shutil.which("fockbench") is not None


def test_tail_warning_still_succeeds(tmp_path):
    out = tmp_path / "tight.json"
    assert run_cli("state", "--family", "coherent", "--alpha", "2", "--dim", "12",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["tail_warning"] is True


def test_two_mode_state_payload(tmp_path):
    out = tmp_path / "tm.json"
    assert run_cli("state", "--family", "two-mode", "--theta", "0.5", "--dim", "12",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["dim"] == [12, 12]
    assert len(payload["amplitudes"]) == 144
    assert payload["quadrature_report"]["margin"] >= 0.0


def test_verify_exit_codes(tmp_path):
    artifact = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "coherent", "--out", str(artifact)) == 0
    payload = json.loads(artifact.read_text())
    assert payload["passed"] is True
    assert "wall" not in artifact.read_text()
    assert run_cli("verify", "--suite", "coherent", "--tol-scale", "0",
                   "--out", str(tmp_path / "r0.json")) == 1


def test_verify_honours_pinned_zero_alpha(capsys):
    assert run_cli("verify", "--suite", "time-evolution", "--alpha", "0") == 0
    checks = {c["name"]: c["measured"] for c in json.loads(capsys.readouterr().out)["checks"]}
    # at alpha = 0 the classical trajectory is identically zero
    assert checks["harmonic motion second difference"] == 0.0


def test_verify_pinned_pole_lambda_exits_two(capsys):
    assert run_cli("verify", "--suite", "sqm", "--lam", "0") == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_two_squeeze_at_zero_theta(capsys):
    # the uncorrelated point sits on the margin's bound 0.0 exactly
    assert run_cli("verify", "--suite", "two-squeeze", "--theta", "0") == 0
    checks = {c["name"]: c["measured"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["correlated uncertainty margin"] == 0.0


def test_verify_artifact_deterministic(tmp_path):
    paths = [tmp_path / "v1.json", tmp_path / "v2.json"]
    for path in paths:
        assert run_cli("verify", "--suite", "ho-algebra", "--out", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_usage_errors_exit_two(capsys):
    assert run_cli("state", "--family", "coherent") == 2  # missing alpha
    assert run_cli("state", "--family", "nonsense") == 2  # bad choice
    assert run_cli("verify", "--suite", "nonsense") == 2
    assert run_cli("sweep", "--family", "coherent", "--param", "r",
                   "--start", "0", "--stop", "1", "--steps", "3") == 2
    assert run_cli("sweep", "--family", "squeezed", "--param", "r",
                   "--start", "0", "--stop", "1", "--steps", "0") == 2
    assert run_cli("state", "--family", "squeezed", "--r", "0.5", "--dim", "1") == 2
    capsys.readouterr()


def test_precondition_violation_exits_two(capsys):
    # modal tail cannot fit twelve levels at this displacement
    assert run_cli("state", "--family", "lambda-coherent", "--lam", "1",
                   "--z", "3") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "family, params",
    [("lambda-coherent", ["--z", "0.2"]), ("lambda-squeezed", ["--xi", "0.3", "--z", "0.2"])],
)
def test_lambda_state_rejects_a_pole(family, params, capsys):
    assert run_cli("state", "--family", family, "--lam", "-0.5", *params) == 2
    out, err = capsys.readouterr()
    with pytest.raises(ValueError) as exc:
        build_family(-0.5)
    assert (out, err) == ("", f"error: {exc.value}\n")


def test_bad_out_path_exits_two(tmp_path, capsys):
    target_dir = tmp_path / "taken"
    target_dir.mkdir()
    for out in (tmp_path / "missing" / "x.json", target_dir):
        assert run_cli("state", "--family", "coherent", "--alpha", "1",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target_dir.iterdir()) == []


def test_config_file_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=24\nalpha=1+1j\n")
    assert run_cli("state", "--family", "coherent", "--config", str(cfg)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 24
    assert payload["parameters"]["alpha"] == [1.0, 1.0]

    assert run_cli("state", "--family", "coherent", "--config", str(cfg),
                   "--dim", "16") == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 16

    monkeypatch.setenv("FOCKBENCH_DIM", "20")
    assert run_cli("state", "--family", "coherent", "--alpha", "1") == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 20
    # config still beats the environment default
    assert run_cli("state", "--family", "coherent", "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 24


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    assert run_cli("state", "--family", "coherent", "--alpha", "1",
                   "--config", str(cfg)) == 2
    capsys.readouterr()


def test_sweep_squeezed_observables(capsys):
    assert run_cli("sweep", "--family", "squeezed", "--param", "r",
                   "--start", "0", "--stop", "1.2", "--steps", "7",
                   "--dim", "96") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, l.split(",")))) for l in lines[1:]]
    for row in rows:
        assert abs(row["mean_n"] - np.sinh(row["r"]) ** 2) <= 1e-6
        assert row["closed_form_fidelity"] >= 1.0 - 1e-7


def test_sweep_coherent_trajectory(capsys):
    alpha = 1.5 * np.exp(0.7j)
    assert run_cli("sweep", "--family", "coherent", "--param", "t",
                   "--alpha", f"{alpha.real}+{alpha.imag}j",
                   "--start", "0", "--stop", "6.0", "--steps", "13") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        expected = np.sqrt(2.0) * 1.5 * np.cos(row["t"] - 0.7)
        assert abs(row["mean_x"] - expected) <= 1e-6


def test_single_step_sweep_matches_state(tmp_path, capsys):
    assert run_cli("sweep", "--family", "squeezed", "--param", "r",
                   "--start", "0.5", "--stop", "0.5", "--steps", "1") == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    sweep_vals = dict(zip(header.split(","), map(float, row.split(","))))

    out = tmp_path / "state.json"
    assert run_cli("state", "--family", "squeezed", "--r", "0.5",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    rep = payload["quadrature_report"]
    assert sweep_vals["var_x"] == pytest.approx(rep["var_x"], abs=1e-12)
    assert sweep_vals["var_p"] == pytest.approx(rep["var_p"], abs=1e-12)
    mean_n = sum(n * p for n, p in enumerate(payload["photon_distribution"]))
    assert sweep_vals["mean_n"] == pytest.approx(mean_n, abs=1e-12)


def test_sweep_json_format(capsys):
    assert run_cli("sweep", "--family", "theta-vacuum", "--param", "theta",
                   "--start", "0", "--stop", "1", "--steps", "3",
                   "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "sweep"
    assert payload["columns"][0] == "theta"
    assert len(payload["rows"]) == 3


def test_wavefunction_csv(capsys):
    assert run_cli("wavefunction", "--family", "squeezed", "--s", "0.7",
                   "--points", "801") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,re,im,abs2"
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    dx = data[1, 0] - data[0, 0]
    assert abs(np.sum(data[:, 3]) * dx - 1.0) <= 1e-8


def test_wavefunction_modal_family(capsys):
    assert run_cli("wavefunction", "--family", "lambda-coherent",
                   "--lam", "1", "--z", "0.5") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2002  # header plus the family grid


def test_lambda_profile_honours_the_grid(capsys):
    argv = ["wavefunction", "--family", "lambda-coherent", "--lam", "1", "--z", "0.5"]
    assert run_cli(*argv, "--points", "4001") == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4002
    # the family needs a grid over [-10, 10] with at least 2001 points
    assert run_cli(*argv, "--points", "11", "--x-min", "-1", "--x-max", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# every family with parameter values inside its working range, and the
# keys its artifact's "parameters" must carry, in order
FAMILY_CASES = {
    "coherent": (["--alpha", "1+0.5j"], ["alpha"]),
    "squeezed": (["--r", "0.6", "--phi", "0.3"], ["r", "phi"]),
    "theta-vacuum": (["--theta", "0.4"], ["theta"]),
    "two-mode": (["--theta", "0.5"], ["theta"]),
    "pair": (["--zeta", "0.8+0.2j", "--q", "1"], ["zeta", "q"]),
    "perelomov": (["--k", "0.75", "--xi", "0.3+0.1j"], ["k", "xi"]),
    "parity-pair": (["--zeta", "0.7", "--q", "0"], ["zeta", "q"]),
    "phase-squeezed": (["--r", "0.5", "--m", "2", "--phi", "0.2"], ["r", "m", "phi"]),
    "lambda-coherent": (["--lam", "1", "--z", "0.5"], ["lam", "z"]),
    "lambda-squeezed": (["--lam", "2", "--xi", "0.25", "--z", "0.3+0.1j"], ["lam", "xi", "z"]),
}
TWO_MODE_FAMILIES = {"two-mode", "pair", "parity-pair"}
PROFILE_FAMILIES = {"coherent", "squeezed", "lambda-coherent", "lambda-squeezed"}


@pytest.mark.parametrize("family", list(FAMILY_CASES))
def test_every_family_through_the_cli(family, capsys):
    args, keys = FAMILY_CASES[family]
    argv = ["state", "--family", family, "--dim", "16"] + args
    assert run_cli(*argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["parameters"]) == keys
    assert abs(sum(payload["photon_distribution"]) - 1.0) <= 1e-12
    assert (payload["quadrature_report"] is None) == (family == "perelomov")

    assert run_cli(*argv, "--format", "csv") == 0
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header == ("n1,n2,probability" if family in TWO_MODE_FAMILIES else "n,probability")

    if family not in PROFILE_FAMILIES:
        assert run_cli("wavefunction", "--family", family, *args) == 2
        assert capsys.readouterr().err.startswith("error:")


# a config value must act exactly like the same value given as a flag
@pytest.mark.parametrize(
    "text, argv, flags",
    [
        ("dim=abc\n", ["--family", "coherent", "--alpha", "1"], ["--dim", "abc"]),
        ("alpha=1\ndim=2.5\n", ["--family", "coherent"], ["--alpha", "1", "--dim", "2.5"]),
        ("q=1.5\n", ["--family", "pair", "--zeta", "0.5"], ["--q", "1.5"]),
        ("r=1+1j\n", ["--family", "squeezed"], ["--r", "1+1j"]),
        ("format=xml\n", ["--family", "coherent", "--alpha", "1", "--dim", "8"],
         ["--format", "xml"]),
        ("alpha=2\n", ["--family", "coherent", "--dim", "16"], ["--alpha", "2"]),
    ],
    ids=["dim-word", "dim-fraction", "q-fraction", "r-complex", "format-choice", "alpha-int"],
)
def test_config_values_take_the_type_of_their_flag(tmp_path, capsys, text, argv, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = run_cli("state", *argv, "--config", str(cfg))
    out, err = capsys.readouterr()
    expected = run_cli("state", *argv, *flags)
    assert (code, out) == (expected, capsys.readouterr().out)
    if code == 2:
        key = text.splitlines()[-1].split("=")[0]
        line = len(text.splitlines())
        assert err.startswith(f"error: {cfg}:{line}: ")
        assert repr(key) in err
        assert len(err.strip().splitlines()) == 1


# argparse takes a separate argument starting with '-' for an option
@pytest.mark.parametrize(
    "family, args, key, value",
    [
        ("coherent", ["--alpha", "-0.7+0.3j"], "alpha", [-0.7, 0.3]),
        ("pair", ["--zeta", "-0.5-0.2j", "--q", "1"], "zeta", [-0.5, -0.2]),
        ("perelomov", ["--k", "1", "--xi", "-0.3+0.1j"], "xi", [-0.3, 0.1]),
        ("lambda-coherent", ["--lam", "1", "--z", "-0.4-0.1j"], "z", [-0.4, -0.1]),
    ],
)
def test_negative_complex_values_as_separate_arguments(family, args, key, value, capsys):
    assert run_cli("state", "--family", family, "--dim", "8", *args) == 0
    assert json.loads(capsys.readouterr().out)["parameters"][key] == value


def test_flag_without_a_value_is_still_a_usage_error(capsys):
    assert run_cli("state", "--family", "coherent", "--alpha", "--dim", "8") == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["10", "40"])
def test_far_out_coherent_state_warns_and_succeeds(alpha, capsys):
    # dim 16 holds almost none of the alpha 40 state, whose vacuum amplitude
    # e^-800 underflows; the truncated state must still be formed and flagged
    assert run_cli("state", "--family", "coherent", "--alpha", alpha, "--dim", "16") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tail_warning"] is True
    assert abs(sum(payload["photon_distribution"]) - 1.0) <= 1e-12


def test_two_squeeze_pins_dim_on_the_theta_state_only(capsys):
    # the fixed s = 1 pair vacuum keeps its own (40, 40) truncation
    assert run_cli("verify", "--suite", "two-squeeze", "--dim", "20") == 0
    capsys.readouterr()
    # at dim 8 the theta state itself is truncated: an honest failure
    assert run_cli("verify", "--suite", "two-squeeze", "--dim", "8") == 1
    assert "FAIL noise cross-term magnitude" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, name",
    [
        (["state", "--family", "coherent", "--alpha=nan", "--dim", "4"], None, "--alpha"),
        (["state", "--family", "coherent", "--alpha=inf", "--dim", "4"], None, "--alpha"),
        (["state", "--family", "two-mode", "--theta", "nan"], None, "--theta"),
        (["state", "--family", "squeezed", "--r", "inf"], None, "--r"),
        (["state", "--family", "squeezed"], "r=nan\n", "'r'"),
    ],
)
def test_non_finite_values_are_rejected_at_parse_time(argv, config, name, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run_cli(*argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert name in errors[0] and "not a finite" in errors[0]


def test_flat_array_emission_matches_per_element_formatting():
    rng = np.random.default_rng(11)
    real = np.concatenate(
        (rng.standard_normal(64) * np.logspace(-300, 300, 64), [0.0, -0.0, 5e-324, 1e308])
    )
    cplx = real + 1j * real[::-1]
    assert _emit_json(real) == "[" + ",".join("%.17g" % float(x) for x in real) + "]"
    pairs = ("[%.17g,%.17g]" % (float(z.real), float(z.imag)) for z in cplx)
    assert _emit_json(cplx) == "[" + ",".join(pairs) + "]"
    assert _emit_json(np.zeros((2, 2))) == "[[0,0],[0,0]]"
    for bad in (np.array([1.0, np.nan]), np.array([1.0, complex(0.0, np.inf)])):
        with pytest.raises(ValueError, match="non-finite value in artifact"):
            _emit_json(bad)


def test_wavefunction_csv_rows_equal_the_per_point_formula(capsys):
    assert run_cli("wavefunction", "--family", "squeezed", "--s", "1.3",
                   "--alpha", "0.1", "--points", "20001") == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for line in lines:
        _, re, im, abs2 = line.split(",")
        v = np.complex128(complex(float(re), float(im)))
        assert abs2 == "%.17g" % float(abs(v) ** 2)
