"""Command line behavior: artifacts, determinism, exit codes, precedence."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fockbench import coherent as co
from fockbench import sqm
from fockbench import cli
from fockbench.cli import _build_parser, _emit_csv, _emit_json, main
from fockbench.sqm import build_family
from fockbench.verify import INPUTS, SUITES


def run_cli(*argv):
    return main(list(argv))


@dataclasses.dataclass(frozen=True)
class Run:
    code: int
    out: str
    err: list[str]
    wrote: bool  # whether the --out file exists afterwards
    warnings: list[str]


def run_main(*argv) -> Run:
    """`main(argv)` in this process.  Warnings are recorded instead of
    raised, so a test can assert that none was issued, where a fresh process
    would have printed it to stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(list(argv))
    wrote = "--out" in argv and Path(argv[argv.index("--out") + 1]).exists()
    return Run(code, stdout.getvalue(), stderr.getvalue().splitlines(), wrote,
               [str(w.message) for w in caught])


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: tail_mass(0.1) reads only the top tenth of the basis, which "
    "holds no populated level in these states, so a truncated state passes unflagged",
)
@pytest.mark.parametrize(
    "argv",
    [
        # var_x 3.20 against the exact e^4 / 2 = 27.3: level 7 alone is read, an odd one
        ["--family", "squeezed", "--r", "2", "--dim", "8"],
        # tanh(3)^8 = 0.961 of the mass lies beyond dim; levels 57-63 hold no multiple of 16
        ["--family", "phase-squeezed", "--r", "3", "--m", "16", "--dim", "64"],
        # 0.113 of the mass lies beyond dim; levels 10-11 hold no multiple of 3
        ["--family", "phase-squeezed", "--r", "1", "--m", "3", "--dim", "12"],
    ],
    ids=["squeezed-r2-dim8", "phase-squeezed-m16-dim64", "phase-squeezed-m3-dim12"],
)
def test_a_truncated_state_carries_a_tail_warning(argv, capsys):
    assert run_cli("state", *argv) == 0
    assert "tail_warning" in json.loads(capsys.readouterr().out)


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


def test_pair_diagonal_support_reads_exactly_zero(capsys):
    # the pair vacuum has no off-diagonal amplitude, so even a zero bound holds
    assert run_cli("verify", "--suite", "two-squeeze", "--tol-scale", "0") == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["pair-diagonal support"]["measured"] == 0.0
    assert checks["pair-diagonal support"]["passed"] is True


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_csv_has_four_fields_per_row(suite, capsys):
    assert run_cli("verify", "--suite", suite, "--format", "csv") == 0
    table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert table[0] == ["check", "measured", "bound", "passed"]
    assert len(table) > 1 and all(len(row) == 4 for row in table)


def test_overflow_in_a_suite_is_a_usage_error(monkeypatch, tmp_path):
    # no pinned input inside a suite's declared range overflows (each range
    # edge exits 0 or 1 with no warning), so the suite itself is made to raise
    for error in (OverflowError("(34, 'Numerical result out of range')"),
                  FloatingPointError("overflow encountered in multiply")):
        def overflowing(error=error, **inputs):
            raise error

        monkeypatch.setitem(SUITES, "coherent", overflowing)
        run = run_main("verify", "--suite", "coherent", "--out", str(tmp_path / "out"))
        assert run.code == 2
        assert [line for line in run.err if line.startswith("error:")] == [f"error: {error}"]
        assert not run.wrote and not run.warnings


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


# one run of each subcommand, each holding every flag the subcommand requires
COMMAND_CASES = {
    "state": ["--family", "coherent", "--alpha", "1", "--dim", "8"],
    "verify": ["--suite", "time-evolution"],
    "sweep": ["--family", "theta-vacuum", "--param", "theta", "--start", "0", "--stop", "1",
              "--steps", "2", "--dim", "8"],
    "wavefunction": ["--family", "squeezed", "--s", "1", "--points", "11"],
}


@pytest.mark.parametrize("command", list(COMMAND_CASES))
def test_every_command_stamps_schema_and_command_first(command, capsys):
    assert run_cli(command, *COMMAND_CASES[command], "--format", "json") == 0
    assert capsys.readouterr().out.startswith(f'{{"schema":1,"command":"{command}",')


@pytest.mark.parametrize(
    "command, flag",
    [("state", "family"), ("verify", "suite"), ("sweep", "family"), ("sweep", "param"),
     ("sweep", "start"), ("sweep", "stop"), ("sweep", "steps"), ("wavefunction", "family")],
)
def test_a_missing_required_flag_is_named(command, flag, capsys):
    argv = COMMAND_CASES[command]
    i = argv.index(f"--{flag}")
    assert run_cli(command, *argv[:i], *argv[i + 2 :]) == 2
    assert capsys.readouterr() == ("", f"error: {command} needs --{flag}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["state", "--family", "squeezed", "--r", "-1"], "squeeze magnitude must be nonnegative"),
        (["sweep", "--family", "squeezed", "--param", "r", "--start", "-0.2", "--stop", "0.2",
          "--steps", "3"], "squeeze magnitude must be nonnegative"),
        (["state", "--family", "pair", "--zeta", "1", "--q", "-1"], "charge must be nonnegative"),
        (["state", "--family", "parity-pair", "--zeta", "1", "--q", "-1"],
         "charge must be nonnegative"),
        (["state", "--family", "perelomov", "--k", "0", "--xi", "0.3"],
         "Bargmann index must be positive"),
        (["wavefunction", "--family", "squeezed", "--s", "1", "--points", "0"],
         "wavefunction needs at least two points"),
        # refused before the suite runs: a negative bound would fail every check
        (["verify", "--suite", "coherent", "--tol-scale", "-1"],
         "--tol-scale -1 must be nonnegative"),
        (["sweep", "--family", "coherent", "--param", "t", "--start", "0", "--stop", "1",
          "--steps", "3"], "sweep over coherent needs --alpha"),
    ],
    ids=["squeezed-r", "squeezed-sweep-start", "pair-q", "parity-pair-q", "perelomov-k",
         "wavefunction-points-0", "verify-tol-scale-negative", "coherent-sweep-alpha"],
)
def test_a_refused_parameter_is_one_error_line(argv, message, capsys):
    # each builder checks its own parameters, so every route to it names them
    assert run_cli(*argv, "--dim", "8") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "family, params",
    [
        ("squeezed", ["--r", "1e308"]),
        ("phase-squeezed", ["--r", "1e308", "--m", "1"]),
        ("perelomov", ["--k", "1e306", "--xi", "0.3"]),
    ],
)
def test_overflowing_parameter_is_a_one_line_error(family, params, capsys):
    # warnings are errors under the test configuration, so a numpy
    # overflow warning on the way would fail this test too
    assert run_cli("state", "--family", family, *params, "--dim", "8") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("message", ["", "Unable to allocate 745. GiB for an array"])
def test_out_of_memory_exits_two(message, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(co, "evolve_coherent", exhausted)
    assert run_cli("sweep", "--family", "coherent", "--param", "t", "--start", "0",
                   "--stop", "1", "--steps", "3", "--alpha", "1", "--dim", "4") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")


def test_closed_form_commands_load_no_scipy(tmp_path):
    code = """
import sys
from fockbench.cli import main
for argv in (
    ["state", "--family", "coherent", "--alpha", "1", "--dim", "16"],
    ["state", "--family", "pair", "--zeta", "1", "--q", "1", "--dim", "8"],
    ["state", "--family", "perelomov", "--k", "0.75", "--xi", "0.3", "--dim", "16"],
    ["state", "--family", "two-mode", "--theta", "0.5", "--dim", "8"],
    ["wavefunction", "--family", "squeezed", "--s", "1", "--points", "101"],
):
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy")))
# np.unique imports numpy.ma on its first call: the artifact kernel uses none
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n"


def test_exponential_commands_load_no_scipy(tmp_path):
    # the sqm suite takes its LAPACK from numpy's bundled OpenBLAS; a numpy
    # build without that library falls back to scipy, so it is left out there
    sqm_argv = '["verify", "--suite", "sqm"],' if sqm._bundled_lapack() is not None else ""
    code = f"""
import sys
from fockbench.cli import main
for argv in (
    ["state", "--family", "squeezed", "--r", "0.5", "--dim", "32"],
    ["state", "--family", "phase-squeezed", "--r", "0.3", "--m", "2", "--dim", "32"],
    ["state", "--family", "lambda-squeezed", "--lam", "2", "--xi", "0.25", "--z", "0.3",
     "--format", "csv"],
    ["sweep", "--family", "squeezed", "--param", "r", "--start", "0.1", "--stop", "0.5",
     "--steps", "3", "--dim", "32"],
    ["verify", "--suite", "coherent"],
    ["verify", "--suite", "time-evolution"],
    ["verify", "--suite", "pair"],
    ["verify", "--suite", "ho-algebra"],
    ["verify", "--suite", "single-squeeze"],
    ["verify", "--suite", "two-squeeze"],
    ["verify", "--suite", "phase"],
    ["verify", "--suite", "factorization"],
    {sqm_argv}
):
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy")))
# np.unique imports numpy.ma on its first call: the artifact kernel uses none
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n"


@pytest.mark.skipif(sqm._bundled_lapack() is None, reason="numpy bundles no OpenBLAS here")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sqm_artifact_is_byte_identical_on_both_lapack_routes(fmt, tmp_path, monkeypatch):
    bundled, scipy_route = tmp_path / "bundled", tmp_path / "scipy"
    assert run_cli("verify", "--suite", "sqm", "--format", fmt, "--out", str(bundled)) == 0
    monkeypatch.setattr(sqm, "_bundled_lapack", lambda: None)
    assert run_cli("verify", "--suite", "sqm", "--format", fmt, "--out", str(scipy_route)) == 0
    assert bundled.read_bytes() == scipy_route.read_bytes()


@pytest.mark.usefixtures("nonconverging_dbdsdc")
def test_a_nonconverged_chain_svd_exits_2_with_one_line(tmp_path):
    run = run_main("state", "--family", "squeezed", "--r", "0.5", "--dim", "32",
                   "--out", str(tmp_path / "out"))
    assert run.code == 2 and run.out == ""
    assert run.err == ["error: bidiagonal SVD did not converge (info 3)"]
    assert not run.wrote and not run.warnings


def test_one_parser_serves_successive_commands_as_fresh_runs(tmp_path, capsys):
    # the parser is built once per process: a command after a parse error
    # behaves as it does in an interpreter of its own
    runs = [
        ["state", "--family", "squeezed", "--r", "0.5", "--phi", "-0.3", "--dim", "16"],
        ["state", "--family", "nonsense", "--dim", "16"],
        ["sweep", "--family", "coherent", "--param", "t", "--start", "0", "--stop", "1",
         "--steps", "3", "--alpha", "-1e-1+0.5j", "--dim", "8"],
    ]
    assert _build_parser() is _build_parser()
    for i, argv in enumerate(runs):
        out, fresh = tmp_path / f"same{i}", tmp_path / f"fresh{i}"
        code = run_cli(*argv, "--out", str(out))
        err = capsys.readouterr().err
        proc = subprocess.run([sys.executable, "-m", "fockbench.cli", *argv, "--out", str(fresh)],
                              capture_output=True, text=True)
        assert (code, err) == (proc.returncode, proc.stderr), argv
        assert out.exists() == fresh.exists()
        if out.exists():
            assert out.read_bytes() == fresh.read_bytes()
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["fresh0", "fresh2", "same0", "same2"]


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("coherent", "--alpha", "1e200"),
        ("sqm", "--lam", "1e-300"),
        ("two-squeeze", "--theta", "1e3"),
    ],
)
def test_pinned_value_outside_a_suite_range_is_named(suite, flag, value, tmp_path):
    # one error line and no numpy warning: the range is checked before the suite runs
    run = run_main("verify", "--suite", suite, flag, value, "--out", str(tmp_path / "out"))
    assert run.code == 2
    assert len(run.err) == 1 and run.err[0].startswith(f"error: {flag} ")
    assert not run.warnings


@pytest.mark.parametrize(
    "suite, dim, code",
    [
        ("single-squeeze", "2", 2),
        ("phase", "3", 2),
        ("phase", "11", 2),
        ("ho-algebra", "2", 2),
        # at its minimum a suite runs, and a truncated state fails a check
        ("single-squeeze", "3", 1),
        ("phase", "12", 1),
        ("two-squeeze", "2", 1),
    ],
)
def test_pinned_dim_below_a_suite_minimum_is_named(suite, dim, code, tmp_path):
    run = run_main("verify", "--suite", suite, "--dim", dim, "--out", str(tmp_path / "out"))
    assert run.code == code
    assert not run.warnings
    lines = [l for l in run.err if not l.startswith("# suite ")]
    if code == 2:
        minimum = INPUTS[suite]["dim"][1]
        assert len(lines) == 1 and lines[0].startswith(f"error: --dim {dim} ")
        assert f"{minimum} <= |dim|" in lines[0]
    else:
        assert lines and all(l.startswith("# FAIL ") for l in lines)


@functools.cache
def _unpinned(suite):
    run = run_main("verify", "--suite", suite)
    return run.code, run.out


# the float range edges of every suite record, and the floats next to them
_EDGES = [
    v
    for record in INPUTS.values()
    for flag, (_, low, high) in record.items()
    if flag != "dim"
    for edge in (low, high)
    if 0.0 < edge < math.inf
    for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
]


@st.composite
def _pinned_runs(draw):
    """A suite and one or two pinned flags, each maybe outside its range or
    not taken by the suite at all."""
    suite = draw(st.sampled_from(sorted(SUITES)))
    # the suite's own flags twice as likely as the others
    pool = ["dim", "alpha", "theta", "lam", *INPUTS[suite]]
    flags = dict.fromkeys(draw(st.permutations(pool))[: draw(st.integers(1, 2))])
    floats = st.sampled_from(_EDGES) | st.just(0.0) | st.floats(0.0, 1e308)
    return suite, {f: draw(st.integers(2, 64) if f == "dim" else floats) for f in flags}


@given(run=_pinned_runs())
@example(run=("pair", {"dim": 10, "theta": 3.0}))
@example(run=("sqm", {"dim": 10}))
@example(run=("coherent", {"alpha": 1e150, "dim": 2}))
@example(run=("time-evolution", {"alpha": 1e300, "dim": 2}))
@example(run=("two-squeeze", {"theta": 100.0, "dim": 2}))
@example(run=("factorization", {"theta": 1e308, "dim": 2}))
@example(run=("sqm", {"lam": 1e-100}))
@example(run=("sqm", {"lam": 1e150}))
@settings(max_examples=40)
def test_pinned_values_follow_the_suite_records(run):
    suite, pinned = run
    record = INPUTS[suite]
    result = run_main("verify", "--suite", suite, *(f"--{f}={v!r}" for f, v in pinned.items()))
    assert not result.warnings
    code, artifact, err = result.code, result.out, result.err
    outside = [f for f, (_, low, high) in record.items()
               if f in pinned and not low <= abs(pinned[f]) <= high]
    if outside:
        # the first flag in the record's order is named
        assert code == 2 and len(err) == 1 and err[0].startswith(f"error: --{outside[0]} ")
    elif not set(pinned) & set(record):
        assert (code, artifact) == _unpinned(suite)
    else:
        assert code in (0, 1)
        assert all(line.startswith(("# suite ", "# FAIL ")) for line in err)


@pytest.mark.parametrize(
    "argv, flag",
    [(["--s", "1e200"], "--s"), (["--s", "1", "--alpha", "1e100j"], "--alpha")],
    ids=["huge-width", "aliased-momentum"],
)
def test_squeezed_profile_refuses_an_unrepresentable_parameter(argv, flag, tmp_path):
    # one error line that names the flag, and no numpy warning before it
    run = run_main("wavefunction", "--family", "squeezed", *argv, "--out", str(tmp_path / "out"))
    assert run.code == 2
    assert len(run.err) == 1 and run.err[0].startswith(f"error: {flag} ")
    assert not run.wrote and not run.warnings


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--alpha", "1e10j", "--points", "11"], "--points"),
        (["--alpha=1e150", "--x-min=2", "--points=3"], "--points"),
        (["--alpha=-1e-1", "--x-max=1e308", "--points=3"], "--points"),
        (["--alpha", "2e4", "--points", "64"], "--alpha"),
        # a finite span whose grid steps overflow inside np.linspace
        (["--alpha", "0", "--x-min", "0", "--x-max", "1.7976931348623157e308", "--points", "7"],
         "x-max"),
    ],
    ids=["coarse-for-the-width", "huge-mean", "overflowing-span", "cancelling-exponent",
         "overflowing-linspace"],
)
def test_coherent_profile_refuses_an_unresolving_grid(argv, flag, tmp_path):
    # the squeezed profile's rules with s = 1: one error line, no warning
    run = run_main("wavefunction", "--family", "coherent", *argv, "--out", str(tmp_path / "out"))
    assert run.code == 2
    assert len(run.err) == 1 and run.err[0].startswith(f"error: {flag} ")
    assert not run.wrote and not run.warnings


def test_coherent_profile_takes_momenta_up_to_the_nyquist_limit(capsys):
    # dx = 0.012 on the default grid: |p0| = sqrt2 |Im alpha| may reach pi / dx
    argv = ["wavefunction", "--family", "coherent", "--points", "2001"]
    assert run_cli(*argv, "--alpha", "185j") == 0
    capsys.readouterr()
    assert run_cli(*argv, "--alpha", "186j") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha ") and "grid" in err


# number strings as a user may type them: any float repr, a digit with a
# signed exponent over the whole float range and past it, and the specials
_REALS = st.one_of(
    st.floats().map(repr),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
              st.integers(-330, 330)),
    st.sampled_from(["0", "-0", "nan", "-inf", "inf", "1e999", "x"]),
)
_COMPLEX = st.one_of(
    _REALS,
    _REALS.map(lambda r: r + "j"),
    st.builds("{}+{}j".format, _REALS, _REALS),
    st.builds("{}-{}j".format, _REALS, _REALS),
)


@st.composite
def _wavefunction_argv(draw):
    argv = ["wavefunction", "--family", draw(st.sampled_from(["coherent", "squeezed"]))]
    values = {"--alpha": _COMPLEX, "--s": _REALS, "--x-min": _REALS, "--x-max": _REALS,
              "--points": st.integers(-2, 64).map(str)}
    for flag, strategy in values.items():
        text = draw(st.none() | strategy)
        if text is not None:
            # both spellings: the value as its own argument goes through the
            # negative-number rewrite in `main`
            argv += draw(st.sampled_from([[f"{flag}={text}"], [flag, text]]))
    return argv


@given(argv=_wavefunction_argv())
@example(argv=["wavefunction", "--family", "coherent", "--alpha", "1e10j", "--points", "11"])
@example(argv=["wavefunction", "--family", "coherent", "--alpha=1e150", "--x-min=2",
               "--points=3"])
@example(argv=["wavefunction", "--family", "coherent", "--alpha=-1e-1", "--x-max=1e308",
               "--points=3"])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_wavefunction_fuzz_exits_cleanly(argv, tmp_path):
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    run = run_main(*argv, "--out", str(out))
    assert run.code in (0, 2) and not run.warnings
    errors = [line for line in run.err if "error:" in line]
    if run.code == 2:
        assert len(errors) == 1 and not run.wrote
    else:
        assert errors == [] and run.wrote


_INTS = st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["x", "1e3", "2.5"]))


@st.composite
def _state_sweep_argv(draw):
    """A `state` of any family or a `sweep` of a family that has one, at
    dim <= 40, with its flags drawn as `_wavefunction_argv` draws them."""
    command = draw(st.sampled_from(["state", "sweep"]))
    names = sorted(name for name, f in cli.FAMILIES.items() if command == "state" or f.sweep)
    name = draw(st.sampled_from(names))
    family = cli.FAMILIES[name]
    argv = [command, "--family", name, "--dim", str(draw(st.integers(-1, 40)))]
    values = {f"--{p}": _COMPLEX if p in ("alpha", "zeta", "xi", "z") else
              _INTS if p in ("q", "m") else _REALS for p in family.params + ("phi",)}
    if command == "sweep":
        argv += ["--param", family.sweep.param]
        values.update({"--start": _REALS, "--stop": _REALS,
                       "--steps": st.integers(-1, 5).map(str)})
    for flag, strategy in values.items():
        # --phi is optional everywhere; every other flag is the family's own
        text = draw(st.none() | strategy if flag == "--phi" else strategy)
        if text is not None:
            argv += draw(st.sampled_from([[f"{flag}={text}"], [flag, text]]))
    return argv


@given(argv=_state_sweep_argv())
# |theta| >= 356 overflows the annihilation residual's norm
@example(argv=["sweep", "--family", "theta-vacuum", "--param", "theta", "--start", "0",
               "--stop", "1000", "--steps", "3", "--dim", "16"])
# a span past the float range, and one whose last step alone overflows in np.linspace
@example(argv=["sweep", "--family", "two-mode", "--param", "theta", "--start", "-1e308",
               "--stop", "1e308", "--steps", "3", "--dim", "4"])
@example(argv=["sweep", "--family", "two-mode", "--param", "theta", "--start", "0",
               "--stop", "1.7976931348623157e308", "--steps", "7", "--dim", "4"])
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_state_and_sweep_fuzz_exits_cleanly(argv, tmp_path):
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    run = run_main(*argv, "--out", str(out))
    assert run.code in (0, 2) and not run.warnings
    errors = [line for line in run.err if "error:" in line]
    if run.code == 2:
        # argparse prints its usage lines before its one error line
        assert len(errors) == 1 and not run.wrote
        assert len(run.err) == 1 or run.err[0].startswith("usage:")
    else:
        assert errors == [] and run.wrote


@pytest.mark.parametrize("family", [["coherent"], ["squeezed", "--s", "1"]])
def test_an_uncovering_grid_is_refused_with_both_intervals(family, tmp_path):
    # <x> = sqrt2 0.5 with s = 1: [-4, 5] misses [<x> - 8, <x> + 8]
    run = run_main("wavefunction", "--family", *family, "--alpha", "0.5", "--x-min", "-4",
                   "--x-max", "5", "--points", "301", "--out", str(tmp_path / "out"))
    assert run.code == 2 and len(run.err) == 1 and not run.wrote and not run.warnings
    assert run.err[0].startswith("error: grid [-4, 5] ")
    assert "must cover [-7.29289, 8.70711]" in run.err[0]


def test_squeezed_profile_takes_momenta_up_to_the_nyquist_limit(capsys):
    # dx = 0.01 on the default grid: |p0| = sqrt2 |Im alpha| may reach pi / dx
    argv = ["wavefunction", "--family", "squeezed", "--s", "1", "--points", "2001"]
    assert run_cli(*argv, "--alpha", "222j") == 0
    capsys.readouterr()
    assert run_cli(*argv, "--alpha", "223j") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha ") and "grid" in err


def test_factorization_suite_loads_no_sparse_linalg(tmp_path):
    code = """
import sys
from fockbench.cli import main
assert main(["verify", "--suite", "factorization", "--out", sys.argv[1]]) == 0
print("scipy.sparse.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_an_unusable_default_source_is_one_error_line(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    argv = ["state", "--family", "coherent", "--alpha", "1", "--dim", "8"]
    runs = [run_main(*argv, "--config", str(cfg))]
    cfg.write_text("# defaults\n\ndim 16\n")
    runs.append(run_main(*argv, "--config", str(cfg)))
    monkeypatch.setenv("FOCKBENCH_DIM", "x")
    runs.append(run_main(*argv[:-2]))
    assert [(run.code, run.out, run.err, run.warnings) for run in runs] == [
        (2, "", [f"error: cannot read config file: [Errno 2] No such file or directory: "
                 f"'{cfg}'"], []),
        (2, "", [f"error: {cfg}:3: expected key=value"], []),
        (2, "", ["error: FOCKBENCH_DIM is not an integer: 'x'"], []),
    ]


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


def test_sweep_two_mode_cross_correlation(capsys):
    assert run_cli("sweep", "--family", "two-mode", "--param", "theta",
                   "--start", "0", "--stop", "1", "--steps", "5") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, l.split(",")))) for l in lines[1:]]
    for row in rows:
        assert abs(row["cross_product"] + np.sinh(2.0 * row["theta"]) ** 2 / 4.0) <= 1e-9
        assert row["margin"] >= 0.0
    assert round(rows[2]["cross_product"], 6) == -0.345274


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


@pytest.mark.parametrize(
    "grid",
    [["--points", "11", "--x-min", "-1e308"], ["--x-min", "-1e308", "--x-max", "1e308"]],
    ids=["coarse", "overflowing"],
)
def test_squeezed_wavefunction_rejects_an_unresolving_grid(grid, capsys):
    assert run_cli("wavefunction", "--family", "squeezed", "--s", "1", *grid) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "grid" in err
    assert len(err.strip().splitlines()) == 1


def test_wavefunction_modal_family(capsys):
    assert run_cli("wavefunction", "--family", "lambda-coherent",
                   "--lam", "1", "--z", "0.5") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2002  # header plus the family grid


def test_lambda_profile_honours_the_grid(capsys):
    argv = ["wavefunction", "--family", "lambda-coherent", "--lam", "1", "--z", "0.5"]
    assert run_cli(*argv, "--points", "4001") == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4002
    # the family needs a grid over [-10, 10] in steps of at most 0.01, the step
    # its levels are calibrated at; a coarser grid is refused before it is
    # built, so no overflow warning comes first (warnings are errors here)
    for grid in (["--points", "11", "--x-min", "-1", "--x-max", "1"], ["--x-max", "1e200"]):
        assert run_cli(*argv, *grid) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --points ") and len(err.strip().splitlines()) == 1


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
        ("# defaults\n\n  # indented\nalpha=2  # pinned\n",
         ["--family", "coherent", "--dim", "16"], ["--alpha", "2"]),
    ],
    ids=["dim-word", "dim-fraction", "q-fraction", "r-complex", "format-choice", "alpha-int",
         "comments-and-blanks"],
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


# argparse's negative-number pattern has no exponent
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["state", "--family", "squeezed", "--r", "0.5", "--dim", "8", "--phi", "-1e-1"],
         "phi", -0.1),
        (["state", "--family", "theta-vacuum", "--dim", "8", "--theta", "-2e-1"],
         "theta", -0.2),
        (["wavefunction", "--family", "squeezed", "--s", "1", "--points", "11",
          "--format", "json", "--x-min", "-1e1"], "x_min", -10.0),
    ],
)
def test_negative_exponent_values_as_separate_arguments(argv, key, value, capsys):
    assert run_cli(*argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.get("parameters", payload)[key] == value


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


def _near_ties() -> list:
    """Doubles a = m 2^-(d + q) whose 17-digit scaling a 10^q = m 5^q 2^-d
    lies 2^-d from a rounding tie, for d up to 59: m 5^q = 2^(d-1) +- 1
    modulo 2^d."""
    found = []
    for q in range(13, 40):
        for d in range(30, 60):
            for step in (1, -1):
                m = ((2 ** (d - 1) + step) * pow(5**q, -1, 2**d)) % 2**d
                least = max(2**52, -(-(10**16 << d) // 5**q))  # 10^16 <= m 5^q 2^-d
                m += -(-(least - m) // 2**d) * 2**d
                if m < min(2**53, (10**17 << d) // 5**q):
                    found.append(m / 2.0 ** (d + q))
    return found


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("-inf")])
def test_a_non_finite_scalar_is_refused(value):
    for emit in (cli._fmt_float, _emit_json, lambda v: _emit_json({"x": [1.0, v]})):
        with pytest.raises(ValueError, match="^non-finite value in artifact$"):
            emit(value)


@pytest.mark.parametrize("obj, name", [(object(), "object"), ({"x": {1.0}}, "set")])
def test_an_unknown_type_is_refused_by_name(obj, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        _emit_json(obj)


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

    # hard inputs for the vectorised kernel: random bit patterns (subnormals
    # included), every power of ten with its neighbours 1 and 2 ulp away,
    # ties and near ties, decade edges, and lengths around its 4096-value passes
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers, -powers]
    for direction in (-np.inf, np.inf):
        once = np.nextafter(powers, direction)
        near += [once, np.nextafter(once, direction)]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 9.9999999999999998e-13,
             1211978372661273.75, 1e18, 1e21, 1e-100, 1e-305]
    hard = np.concatenate((edges, _near_ties(), bits[np.isfinite(bits)], *near))
    assert _emit_json(hard) == "[" + ",".join("%.17g" % x for x in hard.tolist()) + "]"
    for n in (4095, 4096, 4097):
        assert _emit_json(hard[:n]) == "[" + ",".join("%.17g" % x for x in hard[:n].tolist()) + "]"
        cplx = hard[:n] + 1j * hard[n:2 * n]
        pairs = ("[%.17g,%.17g]" % (z.real, z.imag) for z in cplx.tolist())
        assert _emit_json(cplx) == "[" + ",".join(pairs) + "]"
    table = hard[:3 * 1367].reshape(-1, 3)
    nested = ("[" + ",".join("%.17g" % x for x in row) + "]" for row in table.tolist())
    assert _emit_json(table) == "[" + ",".join(nested) + "]"
    lines = ("%.17g,%.17g,%.17g\n" % tuple(row) for row in table.tolist())
    assert _emit_csv(("a", "b", "c"), table) == "a,b,c\n" + "".join(lines)


def test_wavefunction_csv_rows_equal_the_per_point_formula(capsys):
    assert run_cli("wavefunction", "--family", "squeezed", "--s", "1.3",
                   "--alpha", "0.1", "--points", "20001") == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for line in lines:
        _, re, im, abs2 = line.split(",")
        v = np.complex128(complex(float(re), float(im)))
        assert abs2 == "%.17g" % float(abs(v) ** 2)


def _reference_fmt_array(arr, seps, head, end):
    """The per-element "%.17g" formatting that the vectorised kernel
    replaced, behind the kernel's signature."""
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value in artifact")
    if np.iscomplexobj(arr):
        arr = np.stack((arr.real, arr.imag), axis=-1)
    values = np.asarray(arr, dtype=float).ravel().tolist()
    text = ("%.17g".join(["", *seps]) * (len(values) // len(seps))) % tuple(values)
    return head + text[:len(text) - len(seps[-1])] + end


SWEEP = ["sweep", "--family", "squeezed", "--param", "r", "--start", "0.1", "--stop", "0.9",
         "--steps", "200", "--dim", "16"]
REFERENCE_CASES = {
    **{f"state-{family}-{fmt}": ["state", "--family", family, *args, "--format", fmt]
       for family, (args, _) in FAMILY_CASES.items() for fmt in ("json", "csv")},
    "wavefunction-20001": ["wavefunction", "--family", "squeezed", "--s", "0.975",
                           "--alpha", "-0.49+0.13j", "--points", "20001"],
    "state-squeezed-512": ["state", "--family", "squeezed", "--r", "1", "--dim", "512"],
    "sweep-json": SWEEP + ["--format", "json"],
    "sweep-csv": SWEEP + ["--format", "csv"],
    "verify-json": ["verify", "--suite", "coherent", "--format", "json"],
    "verify-csv": ["verify", "--suite", "coherent", "--format", "csv"],
}


@pytest.mark.parametrize("argv", list(REFERENCE_CASES.values()), ids=list(REFERENCE_CASES))
def test_artifacts_match_the_per_element_reference(argv, tmp_path, monkeypatch):
    kernel, reference = tmp_path / "kernel", tmp_path / "reference"
    assert run_main(*argv, "--out", str(kernel)).code == 0
    monkeypatch.setattr(cli, "_fmt_array", _reference_fmt_array)
    assert run_main(*argv, "--out", str(reference)).code == 0
    assert kernel.read_bytes() == reference.read_bytes()


def test_a_2d_array_is_formatted_in_one_kernel_call(monkeypatch, capsys):
    shapes = []
    kernel = cli._fmt_array
    monkeypatch.setattr(cli, "_fmt_array", lambda arr, *rest: shapes.append(arr.shape) or
                        kernel(arr, *rest))
    assert run_cli(*SWEEP, "--format", "json") == 0
    assert shapes == [(200, 6)]
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 200


def test_wavefunction_rows_are_emitted_within_twice_their_size():
    # the kernel works in passes of about 4096 values, so its index arrays
    # stay a fraction of the text; one pass over all 80,004 floats would not
    args = _build_parser()[0].parse_args(
        ["wavefunction", "--family", "squeezed", "--s", "1.3", "--alpha", "0.1",
         "--points", "20001"])
    cli._apply_defaults(args)
    header, rows = cli.run_wavefunction(args)[2]()
    assert rows.shape == (20001, 4)
    _emit_csv(header, rows[:8])  # the tables built on first use are not counted
    tracemalloc.start()
    try:
        text = _emit_csv(header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text)


def test_wavefunction_json_is_emitted_within_three_times_its_size():
    # the JSON twin of the rows test: the complex values are read through a
    # float view, not copied, and the payload dict grows one text; what is
    # left above the text is one pass's working set, about 0.9 MB here
    args = _build_parser()[0].parse_args(
        ["wavefunction", "--family", "squeezed", "--s", "1.3", "--alpha", "0.1",
         "--points", "20001"])
    cli._apply_defaults(args)
    payload = {"schema": cli.SCHEMA_VERSION, "command": "wavefunction",
               **cli.run_wavefunction(args)[1]}
    _emit_json(payload["values"][:8])  # the tables built on first use are not counted
    tracemalloc.start()
    try:
        text = _emit_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    assert peak <= 3 * len(text)
