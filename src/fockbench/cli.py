"""Command line front end: state export, verification suites, parameter
sweeps and coordinate-space wavefunctions.

Artifacts are deterministic: floats are printed with 17 significant
digits, complex amplitudes as [re, im] pairs, JSON carries no whitespace
that could vary between runs, and files are written atomically (temp
file plus rename).  Wall-clock timings go to stderr only so that two
runs with the same inputs produce byte-identical outputs.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error: any ValueError, ArithmeticError or MemoryError on the way.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import io
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
from .fock import FockState, number_moments, quadrature_report
from .verify import INPUTS, SUITES, run_suite

SCHEMA_VERSION = 1
BUILTIN_DIM = 64


# -------------------------------------------------------------- formatting


def _fmt_float(x) -> str:
    xf = float(x)
    if math.isnan(xf) or math.isinf(xf):
        raise ValueError("non-finite value in artifact")
    return "%.17g" % xf


# A value is spelled from its alphabet row: digit i of its 17 at _DIGIT - i,
# exponent digit i (units first) at _EXP + i, the suffix of its place from
# _AFFIX on.  Column 0 and unused bytes stay 0; 0 bytes are dropped.
_SIGN, _DIGIT, _POINT, _E, _ESIGN, _EXP, _ZERO, _AFFIX = 1, 18, 19, 20, 21, 22, 26, 27
_Q0 = -292  # the least power of ten a value is scaled by: 10^(16 - 308)
_CHUNK = 4096  # values per pass: bounds the index arrays, not the output


@functools.lru_cache(maxsize=None)
def _tables():
    """Rows filled on first sight: 10^q, q = _Q0 + row, as (hi + lo) 2^shift
    (`_spell`) and the alphabet columns of each class (`_layout`); built at
    once: 0 ... 9999 as four digits, units first."""
    two = np.frombuffer("".join(f"{i % 10}{i // 10}" for i in range(100)).encode(), np.uint16)
    four = np.stack(np.broadcast_arrays(two, two[:, None]), axis=2)  # 100 h + l: l's, h's
    return (np.zeros(633), np.zeros(633), np.zeros(633, np.intp), four.view(np.uint32).ravel(),
            np.zeros((23 * 17, 24), np.intp))


def _two_product(a, b):
    """p, e with p + e = a b exactly (Dekker 1971; numpy has no fma)."""
    # Veltkamp: t - (t - u) with t = (2^27 + 1) u is the high 26 bits of u
    ah, bh = (t - (t - u) for u in (a, b) for t in [134217729.0 * u])
    al, bl = a - ah, b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _layout(c: int) -> tuple:
    """The alphabet columns that spell a value of class c = 17 k + s - 1:
    k 0 ... 20 prints fixed point with exponent k - 4, k 21 and 22 an
    exponent of two and three digits; s significant digits.  17 * 4 spells 0."""
    k, s = divmod(c, 17)
    whole = k - 3 if 4 <= k <= 20 else 1  # digits before the point
    digits = [_DIGIT - i for i in range(max(s + 1, whole))]  # ddd00: N's trailing zeros
    body = digits[:whole] + ([_POINT] + digits[whole:] if s >= whole else [])
    if k < 4:  # 0.000ddd
        body = [_ZERO, _POINT] + [_ZERO] * (3 - k) + digits
    elif k > 20:  # d.ddde-XX
        body += [_E, _ESIGN] + [_EXP + i for i in range(k - 20, -1, -1)]
    return (_SIGN, *body) + (0,) * (23 - len(body))


def _spell(v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Write each nonzero float of `v`, rounded half to even to 17 digits
    N 10^(X - 16), into its alphabet row; return the class of each."""
    hi, lo, shift, quads, _ = _tables()
    a = abs(v)
    f, e = np.frexp(a)
    m = f * 2.0**53
    # floor(log10 a) is X except right next to a power of ten, where the
    # product below falls outside [10^16, 10^17)
    x = np.floor(np.log10(a)).astype(np.intp)
    i = 16 - x - _Q0
    for row in set(i[hi.take(i) == 0].tolist()):  # first sight: 10^q 2^1200, q = row + _Q0
        big = (10**max(row + _Q0, 0) << 1200) // 10**max(-row - _Q0, 0)
        t = big.bit_length() - 106  # cut to (hi + lo) 2^(t - 1200) with hi < 2^53, lo < 1
        hi[row], lo[row], shift[row] = big >> t + 53, (big >> t & (2**53 - 1)) / 2**53, t - 1200
    p, err = _two_product(m, hi.take(i))
    scale = ((e + shift.take(i) + 1023) << 52).view(np.float64)  # 2^k, k in [-52, -48]
    y = p * scale  # a 10^(16 - x) = y + z to 1e-14; y is an integer
    z = (err + m * lo.take(i)) * scale
    r = np.rint(z)
    num = y.astype(np.int64) + r.astype(np.int64)
    hard = (abs(z - r) > 0.5 - 1e-9) | ((y - 1e16) + z < 1) | ((y - 1e17) + z > -1)
    for j in np.flatnonzero(hard).tolist():  # take CPython's correctly rounded digits
        text = "%.16e" % a[j]
        num[j], x[j] = int(text[0] + text[2:18]), int(text[19:])
    high = num // 10**8
    lead = high // 10**8
    eights = np.stack((num - high * 10**8, high - lead * 10**8), axis=1)
    fours = np.stack((eights - eights // 10**4 * 10**4, eights // 10**4), axis=2)
    alpha[:, _DIGIT - 16:_DIGIT] = quads.take(fours.reshape(-1, 4)).view(np.uint8)
    alpha[:, _DIGIT] = 48 + lead
    alpha[:, _SIGN] = np.signbit(v).view(np.uint8) * 45
    alpha[:, _ESIGN] = 43 + 2 * (x < 0).view(np.uint8)
    alpha[:, _EXP:_EXP + 4] = quads.take(abs(x))[:, None].view(np.uint8)
    zeros = np.argmax(alpha[:, _DIGIT - 16:_DIGIT + 1] != 48, axis=1)
    k = np.where((x >= -4) & (x <= 16), x + 4, np.where(abs(x) < 100, 21, 22))
    return 17 * k + 16 - zeros


def _fmt_array(arr: np.ndarray, seps: list, head: str, end: str) -> str:
    """`head`, then every float of a real or complex array (a complex entry
    as re, im) printed exactly as "%.17g", each followed by the separator of
    its place in the repeating `seps`; `end` replaces the last one."""
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value in artifact")
    kind = complex if np.iscomplexobj(arr) else float  # complex: re, im as a view, no copy
    values = np.ascontiguousarray(arr, dtype=kind).view(float).ravel()
    seps = [sep.encode() for sep in seps]
    width = _AFFIX + max(map(len, seps))
    blank = np.zeros((len(seps), width), np.uint8)
    blank[:, [_DIGIT, _POINT, _E, _ZERO]] = np.frombuffer(b"0.e0", np.uint8)
    blank[:, _AFFIX:] = np.frombuffer(b"".join(s.ljust(width - _AFFIX, b"\0") for s in seps),
                                      np.uint8).reshape(len(seps), -1)
    shared = np.tile(blank, (2, 1))  # a zero reads the "0" or "-0" row of its place
    shared[len(seps):, _SIGN] = ord("-")
    phase = np.tile(np.arange(len(seps)), -(-min(_CHUNK, values.size) // len(seps)))
    known = _tables()[4]  # a built row starts at the sign column, 1
    layouts = np.zeros((len(known), 24 + width - _AFFIX), np.intp)
    layouts[:, :24], layouts[:, 24:] = known, range(_AFFIX, width)
    text = head
    for start in range(0, values.size, phase.size):
        v = values[start:start + phase.size]
        nonzero = np.flatnonzero(v)
        row = phase[:v.size] + len(seps) * np.signbit(v)
        row[nonzero] = len(shared) + np.arange(nonzero.size)
        alpha = np.concatenate((shared, blank.take(phase[nonzero], axis=0)))
        cls = np.concatenate(([17 * 4] * len(shared), _spell(v[nonzero], alpha[len(shared):])))
        for c in set(cls[layouts[:, 0].take(cls) == 0].tolist()):
            layouts[c, :24] = known[c] = _layout(c)
        index = layouts.take(cls, axis=0)
        index += np.arange(0, alpha.size, width)[:, None]
        out = alpha.ravel().take(index).take(row, axis=0)
        del index  # the largest array of a pass: free it before the bytes are cut
        part = out[out != 0].tobytes().decode("ascii")
        if start + phase.size >= values.size:
            part = part[:len(part) - len(seps[-1])] + end
        text += part  # grows in place: no second copy of the output
    return text


def _json_seps(shape) -> list:
    """`_fmt_array` separators for the items, of `shape`, of a JSON array."""
    seps = [","]
    for d in reversed(shape):
        seps = seps * d
        seps[-1] = "]" + seps[-1] + "["
    return seps


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
    if isinstance(obj, dict):  # one text grown in place, as in _fmt_array
        text = "{"
        for k, v in obj.items():
            text += "," * (len(text) > 1) + json.dumps(str(k)) + ":" + _emit_json(v)
        return text + "}"
    if isinstance(obj, np.ndarray) and obj.ndim and obj.size:
        inner = obj.shape[1:] + ((2,) if np.iscomplexobj(obj) else ())
        return _fmt_array(obj, _json_seps(inner), "[" * (len(inner) + 1), "]" * (len(inner) + 1))
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_csv(header, rows) -> str:
    """CSV text; `rows` is a 2-d float array, or rows of names and numbers
    (a name is quoted when it holds a comma)."""
    if isinstance(rows, np.ndarray):
        seps = [","] * (rows.shape[1] - 1) + ["\n"]
        return _fmt_array(rows, seps, ",".join(header) + "\n", "\n")
    import csv  # verify alone writes name rows; cold state and sweep commands skip it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    # "%.17g" prints an integer such as the passed flag 1 as "1"
    writer.writerows([c if isinstance(c, str) else _fmt_float(c) for c in row] for row in rows)
    return out.getvalue()


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
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict, frozenset]:
    """The parser, for each subcommand its actions by destination, and the
    flags that take a number; built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, default=None, help="Fock truncation")
    common.add_argument("--config", default=None, help="key=value file with defaults")
    common.add_argument("--out", default=None, help="output path (stdout if omitted)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    for name in ("r", "phi", "theta", "s", "k", "lam"):
        common.add_argument(f"--{name}", type=_float_arg, default=None)
    for name in ("alpha", "zeta", "xi", "z"):
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
    numeric = (int, _float_arg, _complex_arg)
    flags = frozenset(
        flag
        for actions in options.values()
        for action in actions.values()
        if action.type in numeric
        for flag in action.option_strings
    )
    return parser, options, flags


def _config_value(action: argparse.Action, text: str, where: str):
    """A config value converted exactly as its flag would convert it."""
    try:
        value = text if action.type is None else action.type(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: invalid {action.type.__name__} value: {text!r}") from exc
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"{where}: invalid choice: {value!r} (choose from {choices})")
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
        raise ValueError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{args.config}:{lineno}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip()
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config"):
            raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
        value = _config_value(options[attr], text.strip(), f"{args.config}:{lineno}: {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _apply_defaults(args: argparse.Namespace) -> None:
    if args.dim is None:
        env = os.environ.get("FOCKBENCH_DIM")
        if env is not None:
            try:
                args.dim = int(env)
            except ValueError as exc:
                raise ValueError(f"FOCKBENCH_DIM is not an integer: {env!r}") from exc
        elif args.command != "verify":
            # an unpinned dim leaves each verify suite its own tuned one
            args.dim = BUILTIN_DIM
    if args.dim is not None and args.dim < 2:
        raise ValueError("dimension must be at least 2")
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
            raise ValueError(f"family {args.family!r} needs --{name}")
        values[name] = value
    return values


# ------------------------------------------------------- family pieces


def _modal_levels(dim: int) -> int:
    return min(dim, sqm.MAX_LEVELS)


def _quadrature(state: FockState) -> dict:
    entries = {"quadrature_report": quadrature_report(state)}
    if state.tail_mass(0.1) > 1e-8:
        entries["tail_warning"] = True
    return entries


def _modal_quadrature(state: FockState) -> dict:
    # the modal builders enforce their own level budget; the Fock-space
    # tail heuristic does not apply to them
    return {"quadrature_report": quadrature_report(state)}


def _noise(state) -> dict:
    return {"quadrature_report": sq.two_mode_noise_report(state)}


def _sweep_squeezed_r(value: float, args) -> list:
    state = sq.squeezed_vacuum(value, args.phi, args.dim)
    rep = quadrature_report(state)
    fid = state.fidelity(sq.squeezed_vacuum_closed_form(value, args.phi, args.dim))
    return [value, number_moments(state)[0], rep["var_x"], rep["var_p"], rep["product"], fid]


def _sweep_coherent_t(value: float, args) -> list:
    if args.alpha is None:
        raise ValueError("sweep over coherent needs --alpha")
    state = co.evolve_coherent(args.alpha, value, args.dim)
    rep = quadrature_report(state)
    return [value, rep["mean_x"], rep["mean_p"], number_moments(state)[0]]


def _sweep_theta_vacuum(value: float, args) -> list:
    state = sq.squeezed_vacuum_closed_form(value, 0.0, args.dim)
    rep = quadrature_report(state)
    with np.errstate(over="raise", invalid="raise"):  # its norm overflows from |theta| ~ 356
        try:
            resid = sq.theta_vacuum_residual(value, args.dim)
        except FloatingPointError:
            raise ValueError(f"theta {_fmt_float(value)}: the residual overflows") from None
    return [value, number_moments(state)[0], rep["var_x"], rep["var_p"], rep["product"], resid]


def _sweep_two_mode(value: float, args) -> list:
    noise = sq.two_mode_noise_report(sq.two_mode_theta_vacuum(value, (args.dim, args.dim)))
    return [
        value,
        noise["cross_x"],
        noise["cross_p"],
        noise["cross_product"],
        noise["margin"],
    ]


def _check_profile_grid(xs: np.ndarray, step: float, p0: float, alpha: complex) -> None:
    """Refuse a grid that does not resolve a profile: its steps may not exceed
    `step` (2s for a Gaussian of width s), and dx |p0| <= pi resolves the
    momentum p0 (Nyquist)."""
    dx = float(xs[1] - xs[0])
    if not dx <= step:
        raise ValueError(
            f"--points {xs.size}: grid steps of {dx:g} over [{xs[0]:g}, {xs[-1]:g}] "
            f"exceed {step:g}"
        )
    if dx * abs(p0) > math.pi:
        raise ValueError(f"--alpha {alpha}: momentum {p0:g} aliases on grid steps of {dx:g}")


def _coherent_profile(args, grid):
    alpha = _require(args, ("alpha",))["alpha"]
    xs = grid(math.sqrt(2.0) * alpha.real, 12.0, 2.0, math.sqrt(2.0) * alpha.imag)
    # the exponent adds terms of size |alpha|^2: its roundoff, about
    # 4 eps |alpha|^2, stays below 1e-7 here and overflows exp near 2e9
    if not abs(alpha) <= 1e4:
        raise ValueError(f"--alpha {alpha}: out of the range |alpha| <= 1e4")
    return co.coherent_wavefunction(alpha, xs)


def _squeezed_profile(args, grid):
    s = _require(args, ("s",))["s"]
    if not 1e-150 <= s <= 1e150:  # s^2 and (x - x0)^2 over [x0 - 8s, x0 + 8s] stay normal
        raise ValueError(f"--s {s:g} is out of the range 1e-150 <= s <= 1e150")
    alpha = args.alpha or 0j
    x0 = math.sqrt(2.0) * alpha.real
    p0 = math.sqrt(2.0) * alpha.imag
    xs = grid(x0, max(10.0, 8.0 * s + 2.0), 2.0 * s, p0)
    return sq.squeezed_wavefunction(s, x0, p0, xs)


def _lambda_coherent_state(p, dim):
    sqm.check_deformation(p["lam"])
    return FockState(sqm.modal_coherent_coeffs(p["z"], _modal_levels(dim)))


def _lambda_squeezed_state(p, dim):
    sqm.check_deformation(p["lam"])
    return FockState(sqm.modal_squeezed_coeffs(p["xi"], p["z"], _modal_levels(dim)))


def _modal_profile(args, grid):
    """A lambda family's own `build` output laid out on its deformed basis."""
    family = FAMILIES[args.family]
    p = _require(args, family.params)
    fam = sqm.build_family(p["lam"], grid(0.0, sqm.GRID_MAX, sqm.GRID_STEP))
    return sqm.assemble(fam, family.build(p, args.dim).amps)


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
        lambda p, dim: co.coherent_ladder(p["alpha"], dim),
        _quadrature,
        profile=_coherent_profile,
        sweep=Sweep("t", ("t", "mean_x", "mean_p", "mean_n"), _sweep_coherent_t),
    ),
    "squeezed": Family(
        ("r", "phi"),
        lambda p, dim: sq.squeezed_vacuum(p["r"], p["phi"], dim),
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
        lambda p, dim: sq.squeezed_vacuum_closed_form(p["theta"], 0.0, dim),
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
        lambda p, dim: su11.pair_coherent(p["zeta"], p["q"], dim),
        _noise,
    ),
    # the ladder index is a weight label, not a photon number, so no
    # quadrature report applies
    "perelomov": Family(
        ("k", "xi"),
        lambda p, dim: su11.perelomov_state(p["k"], p["xi"], dim),
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
        profile=_modal_profile,
    ),
    "lambda-squeezed": Family(
        ("lam", "xi", "z"),
        _lambda_squeezed_state,
        _modal_quadrature,
        profile=_modal_profile,
    ),
}


# ----------------------------------------------------------------- state


def run_state(args: argparse.Namespace) -> tuple[int, dict, Callable]:
    family = FAMILIES[args.family]
    params = _require(args, family.params)
    state = family.build(params, args.dim)
    shape = state.amps.shape
    probs = (np.abs(state.amps) ** 2).ravel()
    payload = {
        "family": args.family,
        "parameters": params,
        "dim": shape[0] if len(shape) == 1 else list(shape),
        "amplitudes": state.amps.ravel(),
        "photon_distribution": probs,
        "quadrature_report": None,
    }
    if family.report is not None:
        payload.update(family.report(state))

    def table():
        index = np.arange(probs.size)
        if len(shape) == 2:
            n1, n2 = np.divmod(index, shape[1])
            return ("n1", "n2", "probability"), np.column_stack((n1, n2, probs))
        return ("n", "probability"), np.column_stack((index, probs))

    return 0, payload, table


# ---------------------------------------------------------------- verify


def run_verify(args: argparse.Namespace) -> tuple[int, dict, Callable]:
    # a negative scale would fail every check; 0 forces every nonzero one to fail
    if args.tol_scale < 0:
        raise ValueError(f"--tol-scale {args.tol_scale:g} must be nonnegative")
    cfg = {name: getattr(args, name) for name in INPUTS[args.suite]}
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
    payload = {
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
    header = ("check", "measured", "bound", "passed")
    rows = [(c.name, c.measured, c.bound, int(c.passed)) for c in report.checks]
    return (0 if report.passed else 1), payload, lambda: (header, rows)


# ----------------------------------------------------------------- sweep


def run_sweep(args: argparse.Namespace) -> tuple[int, dict, Callable]:
    sweep = FAMILIES[args.family].sweep
    if sweep is None or sweep.param != args.param:
        pairs = sorted((f, e.sweep.param) for f, e in FAMILIES.items() if e.sweep)
        supported = ", ".join(f"{f}/{p}" for f, p in pairs)
        raise ValueError(
            f"unsupported sweep {args.family}/{args.param} (supported: {supported})"
        )
    if args.steps < 1:
        raise ValueError("sweep needs at least one step")
    # over a finite span only the last step can overflow, and linspace writes stop there
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(args.start, args.stop, args.steps)
    if not np.isfinite(values).all():
        raise ValueError(
            f"--start {args.start:g} to --stop {args.stop:g} spans past the float range")
    rows = np.array([sweep.row(float(v), args) for v in values], dtype=float)
    payload = {
        "family": args.family,
        "param": args.param,
        "columns": list(sweep.header),
        "rows": rows,
    }
    return 0, payload, lambda: (sweep.header, rows)


# --------------------------------------------------------- wavefunction


def run_wavefunction(args: argparse.Namespace) -> tuple[int, dict, Callable]:
    points = 2001 if args.points is None else args.points
    if points < 2:
        raise ValueError("wavefunction needs at least two points")

    def grid(center, half, step, p0=0.0):
        """The grid over [center - half, center + half] unless --x-min or
        --x-max say otherwise, refused unless it resolves `step` and p0."""
        lo = args.x_min if args.x_min is not None else center - half
        hi = args.x_max if args.x_max is not None else center + half
        if 0.0 < hi - lo < math.inf:
            # linspace forms k (hi - lo) / (points - 1), which can round past
            # the float range for a span near it
            with np.errstate(over="raise"):
                try:
                    xs = np.linspace(lo, hi, points)
                except FloatingPointError:
                    pass
                else:
                    _check_profile_grid(xs, step, p0, args.alpha)
                    return xs
        raise ValueError("x-max must exceed x-min by a grid span within the float range")

    profile = FAMILIES[args.family].profile
    if profile is None:
        raise ValueError(f"no coordinate profile for family {args.family!r}")
    wf = profile(args, grid)
    xs = wf.xs
    payload = {
        "family": args.family,
        "x_min": float(xs[0]),
        "dx": float(wf.dx),
        "values": wf.values,
    }

    def table():
        real, imag = wf.values.real, wf.values.imag
        # hypot, then pow: np.abs and squaring by x*x can differ in the last bit
        rows = np.column_stack((xs, real, imag, np.float_power(np.hypot(real, imag), 2)))
        return ("x", "re", "im", "abs2"), rows

    return 0, payload, table


# ------------------------------------------------------------------ main

# each subcommand's handler and the flags it cannot run without; a handler
# returns its exit code, its JSON payload, which `main` stamps with schema
# and command, and a thunk of its CSV header and rows
COMMANDS = {
    "state": (run_state, ("family",)),
    "verify": (run_verify, ("suite",)),
    "sweep": (run_sweep, ("family", "param", "start", "stop", "steps")),
    "wavefunction": (run_wavefunction, ("family",)),
}


def main(argv=None) -> int:
    parser, options, flags = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-0.7+0.3j" or "-1e-1" for an option: attach it to its flag
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
        handler, required = COMMANDS[args.command]
        for name in required:
            if getattr(args, name) is None:
                raise ValueError(f"{args.command} needs --{name}")
        code, payload, table = handler(args)
        if args.format == "csv":
            text = _emit_csv(*table())
        else:
            text = _emit_json({"schema": SCHEMA_VERSION, "command": args.command, **payload})
        _write_text(args.out, text)
        return code
    except (ValueError, ArithmeticError) as exc:
        # exit 1 means a failed check, so an overflow on the way is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # exit 1 means a failed check, so an input too large to hold is a usage error
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
