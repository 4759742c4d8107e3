"""Command line front end: state export, verification suites, parameter
sweeps and coordinate-space wavefunctions.

Artifacts are deterministic: floats are printed with 17 significant
digits, complex amplitudes as [re, im] pairs, JSON carries no whitespace
that could vary between runs, and files are written atomically (temp
file plus rename).  Wall-clock timings go to stderr only so that two
runs with the same inputs produce byte-identical outputs.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coherent as co
from . import phase as ph
from . import sqm
from . import squeezing as sq
from . import su11
from .fock import FockState, quadrature_report
from .verify import SUITES, run_suite

__all__ = ["main"]

SCHEMA_VERSION = 1
BUILTIN_DIM = 64
MODAL_LEVELS = 12
COMPLEX_PARAMS = ("alpha", "zeta", "xi", "z")


class UsageError(Exception):
    pass


# -------------------------------------------------------------- formatting


def _fmt_float(x) -> str:
    xf = float(x)
    if math.isnan(xf) or math.isinf(xf):
        raise ValueError("non-finite value in artifact")
    return "%.17g" % xf


def _fmt_array(arr: np.ndarray, cell: str, sep: str) -> str:
    """Every float of a real or complex array (a complex entry as re, im)
    put through `cell`, a template of "%.17g" fields, joined by `sep`."""
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value in artifact")
    if np.iscomplexobj(arr):
        arr = np.stack((arr.real, arr.imag), axis=-1)
    values = np.asarray(arr, dtype=float).ravel().tolist()
    return sep.join([cell] * (len(values) // cell.count("%"))) % tuple(values)


def _emit_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True or (isinstance(obj, np.bool_) and bool(obj)):
        return "true"
    if obj is False or isinstance(obj, np.bool_):
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return _emit_json([obj.real, obj.imag])
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ":" + _emit_json(v) for k, v in obj.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1:
        cell = "[%.17g,%.17g]" if np.iscomplexobj(obj) else "%.17g"
        return "[" + _fmt_array(obj, cell, ",") + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_csv(header, rows) -> str:
    """CSV text; `rows` is a sequence of rows or a 2-d float array."""
    if isinstance(rows, np.ndarray):
        cell = ",".join(["%.17g"] * rows.shape[1])
        return ",".join(header) + "\n" + _fmt_array(rows, cell, "\n") + "\n"
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (int, np.integer)) and not isinstance(cell, bool):
                cells.append(str(int(cell)))
            elif isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(_fmt_float(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_text(path, text) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fockbench-")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _param_value(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


# ------------------------------------------------------------ CLI parsing


def _complex_arg(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite complex number: {text!r}")
    return value


def _float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and for each subcommand its actions by destination."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, default=None, help="Fock truncation")
    common.add_argument("--config", default=None, help="key=value file with defaults")
    common.add_argument("--out", default=None, help="output path (stdout if omitted)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    for name in ("r", "phi", "theta", "s", "k", "lam"):
        common.add_argument(f"--{name}", type=_float_arg, default=None)
    for name in COMPLEX_PARAMS:
        common.add_argument(f"--{name}", type=_complex_arg, default=None)
    for name in ("q", "m"):
        common.add_argument(f"--{name}", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="fockbench",
        description="states, sweeps and verification suites for the "
        "truncated bosonic oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", parents=[common], help="export one state")
    p_state.add_argument("--family", choices=FAMILIES, default=None)

    p_verify = sub.add_parser("verify", parents=[common], help="run a named suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default=None)
    p_verify.add_argument("--tol-scale", type=_float_arg, default=None, dest="tol_scale")

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep one parameter")
    p_sweep.add_argument("--family", choices=FAMILIES, default=None)
    p_sweep.add_argument("--param", default=None)
    p_sweep.add_argument("--start", type=_float_arg, default=None)
    p_sweep.add_argument("--stop", type=_float_arg, default=None)
    p_sweep.add_argument("--steps", type=int, default=None)

    p_wave = sub.add_parser(
        "wavefunction", parents=[common], help="coordinate-space profile"
    )
    p_wave.add_argument("--family", choices=FAMILIES, default=None)
    p_wave.add_argument("--x-min", type=_float_arg, default=None, dest="x_min")
    p_wave.add_argument("--x-max", type=_float_arg, default=None, dest="x_max")
    p_wave.add_argument("--points", type=int, default=None)
    options = {name: {a.dest: a for a in p._actions} for name, p in sub.choices.items()}
    return parser, options


def _config_value(action: argparse.Action, text: str, where: str):
    """A config value converted exactly as its flag would convert it."""
    try:
        value = text if action.type is None else action.type(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{where}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where}: invalid {action.type.__name__} value: {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise UsageError(f"{where}: invalid choice: {value!r} (choose from {choices})")
    return value


def _apply_config(args: argparse.Namespace, options: dict) -> None:
    """Fill unset options from a key=value file; flags always win.

    `options` maps each destination of the subcommand to its argparse
    action, so every value gets the type and choices of its flag.
    """
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{args.config}:{lineno}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip()
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config"):
            raise UsageError(f"{args.config}:{lineno}: unknown key {key!r}")
        value = _config_value(options[attr], text.strip(), f"{args.config}:{lineno}: {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _apply_defaults(args: argparse.Namespace) -> None:
    # record what the user pinned before defaults flow in; the verify
    # suites use their own tuned dimensions unless a value was pinned
    args.pinned = {
        name
        for name in ("dim", "alpha", "theta", "lam")
        if getattr(args, name, None) is not None
    }
    if args.dim is None:
        env = os.environ.get("FOCKBENCH_DIM")
        if env is not None:
            try:
                args.dim = int(env)
            except ValueError as exc:
                raise UsageError(f"FOCKBENCH_DIM is not an integer: {env!r}") from exc
            args.pinned.add("dim")
        else:
            args.dim = BUILTIN_DIM
    if args.dim < 2:
        raise UsageError("dimension must be at least 2")
    if getattr(args, "phi", None) is None:
        args.phi = 0.0
    if getattr(args, "tol_scale", None) is None and hasattr(args, "tol_scale"):
        args.tol_scale = 1.0
    if args.format is None:
        args.format = "csv" if args.command in ("sweep", "wavefunction") else "json"


def _require(args: argparse.Namespace, names) -> dict:
    values = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(f"family {args.family!r} needs --{name}")
        values[name] = value
    return values


# ------------------------------------------------------- family pieces


def _modal_levels(dim: int) -> int:
    return min(dim, MODAL_LEVELS)


def _quadrature(state: FockState, warn: bool = True) -> dict:
    rep = quadrature_report(state)
    entries = {
        "quadrature_report": {
            "mean_x": rep.mean_x,
            "mean_p": rep.mean_p,
            "var_x": rep.var_x,
            "var_p": rep.var_p,
            "product": rep.product,
        }
    }
    if warn and rep.tail_warning:
        entries["tail_warning"] = True
    return entries


def _modal_quadrature(state: FockState) -> dict:
    # the modal builders enforce their own level budget; the Fock-space
    # tail heuristic does not apply to them
    return _quadrature(state, warn=False)


def _noise(state) -> dict:
    return {"quadrature_report": sq.two_mode_noise_report(state)}


def _sweep_squeezed_r(value: float, args) -> list:
    spec = sq.SqueezeSpec(value, args.phi, args.dim)
    state = sq.squeezed_vacuum(spec)
    rep = quadrature_report(state)
    fid = state.fidelity(sq.squeezed_vacuum_closed_form(spec))
    return [value, rep.mean_n, rep.var_x, rep.var_p, rep.product, fid]


def _sweep_coherent_t(value: float, args) -> list:
    if args.alpha is None:
        raise UsageError("sweep over coherent needs --alpha")
    state = co.evolve_coherent(co.EvolutionSpec(args.alpha, value), args.dim)
    rep = quadrature_report(state)
    return [value, rep.mean_x, rep.mean_p, rep.mean_n]


def _sweep_theta_vacuum(value: float, args) -> list:
    state = sq.theta_vacuum(value, args.dim)
    rep = quadrature_report(state)
    resid = sq.theta_vacuum_residual(value, args.dim)
    return [value, rep.mean_n, rep.var_x, rep.var_p, rep.product, resid]


def _sweep_two_mode(value: float, args) -> list:
    noise = sq.two_mode_noise_report(sq.two_mode_theta_vacuum(value, (args.dim, args.dim)))
    return [
        value,
        noise["cross_x"],
        noise["cross_p"],
        noise["cross_product"],
        noise["margin"],
    ]


def _coherent_profile(args, grid):
    p = _require(args, ("alpha",))
    return co.coherent_wavefunction(p["alpha"], grid(math.sqrt(2.0) * p["alpha"].real, 12.0))


def _squeezed_profile(args, grid):
    p = _require(args, ("s",))
    alpha = args.alpha or 0j
    x0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    half = max(10.0, 8.0 * p["s"] + 2.0)
    return sq.squeezed_wavefunction(p["s"], x0, p0, grid(x0, half))


def _lambda_coherent_state(p, dim):
    sqm.check_deformation(p["lam"])
    return FockState(sqm.modal_coherent_coeffs(p["z"], _modal_levels(dim)))


def _lambda_squeezed_state(p, dim):
    sqm.check_deformation(p["lam"])
    return FockState(sqm.modal_squeezed_coeffs(p["xi"], p["z"], _modal_levels(dim)))


def _lambda_coherent_profile(args, grid):
    p = _require(args, ("lam", "z"))
    fam = sqm.build_family(p["lam"], grid(0.0, sqm.GRID_MAX))
    return sqm.lambda_coherent(p["z"], fam, _modal_levels(args.dim))


def _lambda_squeezed_profile(args, grid):
    p = _require(args, ("lam", "xi", "z"))
    fam = sqm.build_family(p["lam"], grid(0.0, sqm.GRID_MAX))
    return sqm.lambda_squeezed(p["xi"], p["z"], fam, _modal_levels(args.dim))


# ------------------------------------------------------- family registry


@dataclass(frozen=True)
class Sweep:
    param: str
    header: tuple[str, ...]
    row: Callable  # (value, args) -> one row of floats


@dataclass(frozen=True)
class Family:
    """Everything the CLI knows about one state family.

    Its callables reach package functions through their module at call
    time (`co.coherent_ladder`), never as stored function objects, so that
    a wrapper put on the module attribute sees every call.
    """

    params: tuple[str, ...]  # in the order of the artifact's "parameters"
    build: Callable  # (params, dim) -> FockState or TwoModeState
    report: Callable | None  # state -> payload entries; None: no report
    profile: Callable | None = None  # (args, grid) -> GridWavefunction
    sweep: Sweep | None = None


FAMILIES = {
    "coherent": Family(
        ("alpha",),
        lambda p, dim: co.coherent_ladder(co.CoherentSpec(p["alpha"], dim)),
        _quadrature,
        profile=_coherent_profile,
        sweep=Sweep("t", ("t", "mean_x", "mean_p", "mean_n"), _sweep_coherent_t),
    ),
    "squeezed": Family(
        ("r", "phi"),
        lambda p, dim: sq.squeezed_vacuum(sq.SqueezeSpec(p["r"], p["phi"], dim)),
        _quadrature,
        profile=_squeezed_profile,
        sweep=Sweep(
            "r",
            ("r", "mean_n", "var_x", "var_p", "product", "closed_form_fidelity"),
            _sweep_squeezed_r,
        ),
    ),
    "theta-vacuum": Family(
        ("theta",),
        lambda p, dim: sq.theta_vacuum(p["theta"], dim),
        _quadrature,
        sweep=Sweep(
            "theta",
            ("theta", "mean_n", "var_x", "var_p", "product", "annihilation_residual"),
            _sweep_theta_vacuum,
        ),
    ),
    "two-mode": Family(
        ("theta",),
        lambda p, dim: sq.two_mode_theta_vacuum(p["theta"], (dim, dim)),
        _noise,
        sweep=Sweep(
            "theta",
            ("theta", "cross_x", "cross_p", "cross_product", "margin"),
            _sweep_two_mode,
        ),
    ),
    "pair": Family(
        ("zeta", "q"),
        lambda p, dim: su11.pair_coherent(su11.PairCoherentSpec(p["zeta"], p["q"], dim)),
        _noise,
    ),
    # the ladder index is a weight label, not a photon number, so no
    # quadrature report applies
    "perelomov": Family(
        ("k", "xi"),
        lambda p, dim: su11.perelomov_state(su11.SU11Rep(p["k"], dim), p["xi"]),
        None,
    ),
    "parity-pair": Family(
        ("zeta", "q"),
        lambda p, dim: su11.parity_pair_state(p["zeta"], p["q"], dim),
        _noise,
    ),
    "phase-squeezed": Family(
        ("r", "m", "phi"),
        lambda p, dim: ph.phase_squeezed_vacuum(p["r"], p["phi"], p["m"], dim),
        _quadrature,
    ),
    "lambda-coherent": Family(
        ("lam", "z"),
        _lambda_coherent_state,
        _modal_quadrature,
        profile=_lambda_coherent_profile,
    ),
    "lambda-squeezed": Family(
        ("lam", "xi", "z"),
        _lambda_squeezed_state,
        _modal_quadrature,
        profile=_lambda_squeezed_profile,
    ),
}


# ----------------------------------------------------------------- state


def _state_payload(args: argparse.Namespace) -> dict:
    family = FAMILIES[args.family]
    params = _require(args, family.params)
    state = family.build(params, args.dim)
    shape = state.amps.shape
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "state",
        "family": args.family,
        "parameters": {k: _param_value(v) for k, v in params.items()},
        "dim": shape[0] if len(shape) == 1 else list(shape),
        "amplitudes": state.amps.ravel(),
        "photon_distribution": (np.abs(state.amps) ** 2).ravel(),
        "quadrature_report": None,
    }
    if family.report is not None:
        payload.update(family.report(state))
    return payload


def _state_csv(payload: dict) -> str:
    probs = payload["photon_distribution"]
    dim = payload["dim"]
    if isinstance(dim, list):
        d1, d2 = dim
        rows = [(n1, n2, probs[n1 * d2 + n2]) for n1 in range(d1) for n2 in range(d2)]
        return _emit_csv(("n1", "n2", "probability"), rows)
    return _emit_csv(("n", "probability"), list(enumerate(probs)))


def run_state(args: argparse.Namespace) -> int:
    if args.family is None:
        raise UsageError("state needs --family")
    payload = _state_payload(args)
    if args.format == "csv":
        _write_text(args.out, _state_csv(payload))
    else:
        _write_text(args.out, _emit_json(payload))
    return 0


# ---------------------------------------------------------------- verify


def run_verify(args: argparse.Namespace) -> int:
    if args.suite is None:
        raise UsageError("verify needs --suite")
    cfg = {name: getattr(args, name) for name in args.pinned}
    report = run_suite(args.suite, cfg, tol_scale=args.tol_scale)
    print(
        f"# suite {report.suite}: wall time {report.wall_time_s:.3f} s",
        file=sys.stderr,
    )
    for check in report.checks:
        if not check.passed:
            print(
                f"# FAIL {check.name}: {check.measured:.6e} > {check.bound:.6e}",
                file=sys.stderr,
            )
    if args.format == "csv":
        rows = [
            (c.name, c.measured, c.bound, int(c.passed)) for c in report.checks
        ]
        text = _emit_csv(("check", "measured", "bound", "passed"), rows)
    else:
        text = _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "command": "verify",
                "suite": report.suite,
                "tol_scale": args.tol_scale,
                "passed": report.passed,
                "checks": [
                    {
                        "name": c.name,
                        "measured": c.measured,
                        "bound": c.bound,
                        "passed": c.passed,
                    }
                    for c in report.checks
                ],
            }
        )
    _write_text(args.out, text)
    return 0 if report.passed else 1


# ----------------------------------------------------------------- sweep


def run_sweep(args: argparse.Namespace) -> int:
    for name in ("family", "param", "start", "stop", "steps"):
        if getattr(args, name, None) is None:
            raise UsageError(f"sweep needs --{name.replace('_', '-')}")
    sweep = FAMILIES[args.family].sweep
    if sweep is None or sweep.param != args.param:
        pairs = sorted((f, e.sweep.param) for f, e in FAMILIES.items() if e.sweep)
        supported = ", ".join(f"{f}/{p}" for f, p in pairs)
        raise UsageError(
            f"unsupported sweep {args.family}/{args.param} (supported: {supported})"
        )
    if args.steps < 1:
        raise UsageError("sweep needs at least one step")
    values = np.linspace(args.start, args.stop, args.steps)
    rows = [sweep.row(float(v), args) for v in values]
    if args.format == "json":
        text = _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "command": "sweep",
                "family": args.family,
                "param": args.param,
                "columns": list(sweep.header),
                "rows": [[float(c) for c in row] for row in rows],
            }
        )
    else:
        text = _emit_csv(sweep.header, rows)
    _write_text(args.out, text)
    return 0


# --------------------------------------------------------- wavefunction


def run_wavefunction(args: argparse.Namespace) -> int:
    if args.family is None:
        raise UsageError("wavefunction needs --family")
    points = args.points or 2001
    if points < 2:
        raise UsageError("wavefunction needs at least two points")

    def grid(center, half):
        lo = args.x_min if args.x_min is not None else center - half
        hi = args.x_max if args.x_max is not None else center + half
        if hi <= lo:
            raise UsageError("x-max must exceed x-min")
        return np.linspace(lo, hi, points)

    profile = FAMILIES[args.family].profile
    if profile is None:
        raise UsageError(f"no coordinate profile for family {args.family!r}")
    wf = profile(args, grid)
    xs = wf.xs
    if args.format == "json":
        text = _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "command": "wavefunction",
                "family": args.family,
                "x_min": float(xs[0]),
                "dx": float(wf.dx),
                "values": wf.values,
            }
        )
    else:
        real, imag = wf.values.real, wf.values.imag
        # hypot, then pow: np.abs and squaring by x*x can differ in the last bit
        rows = np.column_stack((xs, real, imag, np.float_power(np.hypot(real, imag), 2)))
        text = _emit_csv(("x", "re", "im", "abs2"), rows)
    _write_text(args.out, text)
    return 0


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser, options = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-0.7+0.3j" for an option: attach it to its flag
    flags = {f"--{name}" for name in COMPLEX_PARAMS}
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in flags and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args, options[args.command])
        _apply_defaults(args)
        handler = {
            "state": run_state,
            "verify": run_verify,
            "sweep": run_sweep,
            "wavefunction": run_wavefunction,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
