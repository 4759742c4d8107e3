"""Workload definitions: the command items, their argv, and the checks on
their artifacts.

Every item draws its parameters from a fixed pool captured in
`reference.json` (see `capture_reference.py`); a run's seed only chooses a
pool point per item and the order of commands.  The expected artifact
values for every pool point were captured at the seed commit, so any seed
can be checked.  Closed forms below are written from the formulas, not
imported from `fockbench`, so the check does not share code with the
program under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

# roundoff tolerances, fixed before any measurement was taken:
# value comparisons against the captured reference, and against closed forms
REF_ATOL = 1e-9
REF_RTOL = 1e-9
CLOSED_TOL = 1e-9

FINGERPRINT_PHASE = 0.37


def cplx(z) -> str:
    """A complex parameter as the CLI parses it; pools store [re, im]."""
    z = complex(*z) if isinstance(z, list) else complex(z)
    sign = "+" if math.copysign(1.0, z.imag) > 0 else ""
    return f"{z.real!r}{sign}{z.imag!r}j"


@dataclass
class Item:
    """One kind of command: how to build its argv from a pool point, and
    which closed form (if any) its artifact must match."""

    id: str
    kind: str  # state, state-csv, wavefunction, sweep, verify, usage
    build: callable
    closed: callable | None = None
    expect_rc: int = 0


@dataclass
class Command:
    item: Item
    params: dict
    summary: dict
    argv: list
    env: dict = field(default_factory=dict)
    config: str | None = None


# ------------------------------------------------------------ closed forms


def _normalized(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def coherent_closed(alpha, dim):
    alpha = complex(alpha)
    ns = np.arange(dim)
    if alpha == 0:
        return _normalized(ns == 0)
    log_mod = ns * math.log(abs(alpha)) - 0.5 * gammaln(ns + 1.0)
    return _normalized(np.exp(log_mod - log_mod.max()) * np.exp(1j * ns * np.angle(alpha)))


def _even_ket(ratio: complex, dim):
    """Amplitudes c_{2j} = ratio^j sqrt((2j)!) / j!, renormalized."""
    out = np.zeros(dim, dtype=complex)
    js = np.arange((dim + 1) // 2)
    if ratio == 0:
        out[0] = 1.0
        return out
    log_mod = js * math.log(abs(ratio)) + 0.5 * gammaln(2.0 * js + 1.0) - gammaln(js + 1.0)
    out[2 * js] = np.exp(log_mod - log_mod.max()) * np.exp(1j * js * np.angle(ratio))
    return _normalized(out)


def squeezed_closed(r, phi, dim):
    return _even_ket(math.tanh(r) / 2.0 * np.exp(1j * phi), dim)


def theta_vacuum_closed(theta, dim):
    return _even_ket(complex(math.tanh(theta) / 2.0), dim)


def phase_squeezed_closed(r, phi, m, dim):
    out = np.zeros(dim, dtype=complex)
    ks = np.arange(0, dim, m) // m
    out[::m] = (math.tanh(r) * np.exp(1j * phi)) ** ks
    return _normalized(out)


def perelomov_closed(k, xi, dim):
    xi = complex(xi)
    js = np.arange(dim)
    kappa = xi * math.tanh(abs(xi)) / abs(xi) if xi != 0 else 0j
    if kappa == 0:
        return _normalized(js == 0)
    log_mod = (
        0.5 * (gammaln(js + 2.0 * k) - gammaln(js + 1.0) - gammaln(2.0 * k))
        + js * math.log(abs(kappa))
    )
    return _normalized(np.exp(log_mod - log_mod.max()) * np.exp(1j * js * np.angle(kappa)))


def _sector(coeffs, q, levels):
    amps = np.zeros((levels + q, levels), dtype=complex)
    amps[np.arange(levels) + q, np.arange(levels)] = coeffs
    return _normalized(amps.ravel())


def _pair_coeffs(zeta, q, levels):
    zeta = complex(zeta)
    ns = np.arange(levels)
    if zeta == 0:
        return (ns == 0).astype(complex)
    log_mod = ns * math.log(abs(zeta)) - 0.5 * (gammaln(ns + 1.0) + gammaln(ns + q + 1.0))
    return np.exp(log_mod - log_mod.max()) * np.exp(1j * ns * np.angle(zeta))


def pair_closed(zeta, q, levels):
    return _sector(_pair_coeffs(zeta, q, levels), q, levels)


def parity_pair_closed(zeta, q, levels):
    ns = np.arange(levels)
    signs = np.where((ns * (ns - 1) // 2) % 2 == 0, 1.0, -1.0)
    return _sector(signs * _pair_coeffs(zeta, q, levels), q, levels)


def two_mode_closed(theta, dim):
    amps = np.zeros((dim, dim), dtype=complex)
    amps[np.arange(dim), np.arange(dim)] = math.tanh(theta) ** np.arange(dim)
    return _normalized(amps.ravel())


def gaussian_closed(xs, x0, p0, s):
    psi = np.exp(-((xs - x0) ** 2) / (2.0 * s * s) + 1j * p0 * xs)
    return psi / math.sqrt(np.sum(np.abs(psi) ** 2) * (xs[1] - xs[0]))


def coherent_wave_closed(xs, alpha):
    alpha = complex(alpha)
    psi = np.exp(
        -xs * xs / 2.0 + math.sqrt(2.0) * alpha * xs - alpha * alpha / 2.0 - abs(alpha) ** 2 / 2.0
    )
    return psi / math.sqrt(np.sum(np.abs(psi) ** 2) * (xs[1] - xs[0]))


def truncated_moments(amps):
    """mean_n, var_x, var_p of a single-mode state, with x and p formed
    from the truncated ladder matrix exactly as the artifact defines them,
    evaluated in O(dim) from <a>, <a^2>, <a a+> and <a+ a>."""
    c = np.asarray(amps, dtype=complex)
    n = np.arange(c.size)
    probs = np.abs(c) ** 2
    a1 = np.sum(np.conj(c[:-1]) * np.sqrt(n[1:]) * c[1:])
    a2 = np.sum(np.conj(c[:-2]) * np.sqrt(n[1:-1] * n[2:]) * c[2:])
    num = float(probs @ n)
    anti = float(probs[:-1] @ (n[:-1] + 1.0))
    mx = math.sqrt(2.0) * a1.real
    mp = math.sqrt(2.0) * a1.imag
    xx = (2.0 * a2.real + num + anti) / 2.0
    pp = (-2.0 * a2.real + num + anti) / 2.0
    return num, xx - mx * mx, pp - mp * mp


def sweep_closed_rows(p, dim):
    rows = []
    for r in np.linspace(p["start"], p["stop"], p["steps"]):
        mean_n, vx, vp = truncated_moments(squeezed_closed(float(r), 0.0, dim))
        rows.append([float(r), mean_n, vx, vp, vx * vp, 1.0])
    return rows


# ------------------------------------------------------------- artifacts


def _weights(n):
    return np.cos(1.0 + FINGERPRINT_PHASE * np.arange(n))


def _fingerprint(v):
    v = np.asarray(v)
    fp = complex(np.sum(_weights(v.size) * v))
    return [fp.real, fp.imag]


def parse_artifact(kind: str, text: str) -> tuple[dict, object]:
    """Summary values of an artifact, and the array a closed form is
    compared with (amplitudes, wavefunction values or sweep rows)."""
    if kind == "verify":
        payload = json.loads(text)
        checks = [[c["name"], c["measured"], c["bound"], c["passed"]] for c in payload["checks"]]
        return {"passed": payload["passed"], "checks": checks}, None
    if kind == "state":
        payload = json.loads(text)
        amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        probs = np.array(payload["photon_distribution"])
        if np.abs(probs - np.abs(amps) ** 2).max() > REF_ATOL:
            raise ValueError("photon distribution disagrees with the amplitudes")
        report = payload["quadrature_report"]
        summary = {
            "dim": payload["dim"],
            "norm2": float(probs.sum()),
            "mean_index": float(probs @ np.arange(probs.size)),
            "amplitudes": _fingerprint(amps),
            "report": None if report is None else [report[k] for k in sorted(report)],
            "tail_warning": bool(payload.get("tail_warning", False)),
        }
        return summary, amps
    table = list(csv.reader(io.StringIO(text)))
    header, body = table[0], np.array(table[1:], dtype=float)
    if kind == "state-csv":
        probs = body[:, -1]
        return {
            "header": header,
            "rows": len(body),
            "norm2": float(probs.sum()),
            "mean_index": float(probs @ np.arange(probs.size)),
            "probabilities": _fingerprint(probs),
        }, None
    if kind == "wavefunction":
        xs, values = body[:, 0], body[:, 1] + 1j * body[:, 2]
        if np.abs(body[:, 3] - np.abs(values) ** 2).max() > REF_ATOL:
            raise ValueError("abs2 column disagrees with re, im")
        dx = float(xs[1] - xs[0])
        summary = {
            "header": header,
            "points": len(xs),
            "x_min": float(xs[0]),
            "x_max": float(xs[-1]),
            "norm2": float(np.sum(body[:, 3]) * dx),
            "values": _fingerprint(values),
        }
        return summary, (xs, values)
    if kind == "sweep":
        return {"header": header, "rows": body.tolist()}, body
    raise ValueError(f"unknown artifact kind {kind!r}")


def _close(got, want) -> bool:
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= REF_ATOL + REF_RTOL * abs(want)


def compare_summary(got: dict, want: dict) -> str | None:
    for key in want:
        if key not in got or not _close(got[key], want[key]):
            return f"{key}: {got.get(key)!r} differs from the reference {want[key]!r}"
    return None


def check_verify(summary: dict, reference: dict | None) -> str | None:
    failed = [c[0] for c in summary["checks"] if not (c[1] <= c[2] and c[3])]
    if failed or not summary["passed"]:
        return f"checks failed: {failed}"
    if reference is not None:
        return compare_summary(summary, reference)
    return None


def check_artifact(cmd: Command, text: str) -> str | None:
    """None when the artifact parses, matches the reference and, where one
    exists, its closed form; otherwise a one-line reason."""
    summary, array = parse_artifact(cmd.item.kind, text)
    if cmd.item.kind == "verify":
        return check_verify(summary, cmd.summary)
    problem = compare_summary(summary, cmd.summary)
    if problem or cmd.item.closed is None:
        return problem
    expected = cmd.item.closed(cmd.params)
    if cmd.item.kind == "wavefunction":
        xs, values = array
        gap = np.abs(values - expected(xs)).max()
    elif cmd.item.kind == "sweep":
        gap = np.abs((array - np.array(expected)) / np.maximum(1.0, np.abs(expected))).max()
    else:
        gap = np.abs(array - expected).max()
    if not gap <= CLOSED_TOL:
        return f"differs from its closed form by {gap:.3e}"
    return None


def outputs_of(cmd: Command) -> int:
    """Delivered results: a state, a sweep row, a wavefunction, a check."""
    kind = cmd.item.kind
    if kind == "sweep":
        return cmd.params["steps"]
    if kind == "usage":
        return 0
    if kind == "verify":
        return len(cmd.summary["checks"])
    return 1


# ------------------------------------------------------------------ items


def _state(family, dim, *names, fmt=None):
    def build(p):
        argv = ["state", f"--family={family}"]
        if dim is not None:
            argv.append(f"--dim={dim}")
        for name in names:
            value = p[name]
            argv.append(f"--{name}=" + (cplx(value) if isinstance(value, list) else repr(value)))
        if fmt:
            argv.append(f"--format={fmt}")
        return argv

    return build


def _z(p, name):
    re, im = p[name]
    return complex(re, im)


CLI_DIM = 64
CLI_PAIR_LEVELS = 32

CLI_ITEMS = [
    # dim comes from FOCKBENCH_DIM (see command_for)
    Item("state-coherent", "state", _state("coherent", None, "alpha"),
         lambda p: coherent_closed(_z(p, "alpha"), CLI_DIM)),
    # r, phi and dim come from a --config file
    Item("state-squeezed", "state", _state("squeezed", None),
         lambda p: squeezed_closed(p["r"], p["phi"], CLI_DIM)),
    Item("state-theta-vacuum", "state", _state("theta-vacuum", 48, "theta"),
         lambda p: theta_vacuum_closed(p["theta"], 48)),
    Item("state-two-mode", "state", _state("two-mode", CLI_PAIR_LEVELS, "theta"),
         lambda p: two_mode_closed(p["theta"], CLI_PAIR_LEVELS)),
    Item("state-pair", "state", _state("pair", CLI_PAIR_LEVELS, "zeta", "q"),
         lambda p: pair_closed(_z(p, "zeta"), p["q"], CLI_PAIR_LEVELS)),
    # k, xi and dim come from a --config file
    Item("state-perelomov", "state", _state("perelomov", None),
         lambda p: perelomov_closed(p["k"], _z(p, "xi"), 48)),
    Item("state-parity-pair", "state", _state("parity-pair", CLI_PAIR_LEVELS, "zeta", "q"),
         lambda p: parity_pair_closed(_z(p, "zeta"), p["q"], CLI_PAIR_LEVELS)),
    Item("state-phase-squeezed", "state", _state("phase-squeezed", CLI_DIM, "r", "m", "phi"),
         lambda p: phase_squeezed_closed(p["r"], p["phi"], p["m"], CLI_DIM)),
    Item("state-lambda-coherent", "state", _state("lambda-coherent", CLI_DIM, "lam", "z"),
         lambda p: coherent_closed(_z(p, "z"), 12)),
    Item("state-lambda-squeezed", "state-csv",
         _state("lambda-squeezed", CLI_DIM, "lam", "xi", "z", fmt="csv")),
    Item("wave-coherent", "wavefunction",
         lambda p: ["wavefunction", "--family=coherent", f"--alpha={cplx(_z(p, 'alpha'))}"],
         lambda p: lambda xs: coherent_wave_closed(xs, _z(p, "alpha"))),
    Item("wave-squeezed", "wavefunction",
         lambda p: ["wavefunction", "--family=squeezed", f"--s={p['s']!r}",
                    f"--alpha={cplx(_z(p, 'alpha'))}"],
         lambda p: lambda xs: gaussian_closed(
             xs, math.sqrt(2.0) * p["alpha"][0], math.sqrt(2.0) * p["alpha"][1], p["s"])),
    Item("wave-lambda-coherent", "wavefunction",
         lambda p: ["wavefunction", "--family=lambda-coherent", f"--lam={p['lam']!r}",
                    f"--z={cplx(_z(p, 'z'))}"]),
    Item("sweep-squeezed", "sweep",
         lambda p: ["sweep", "--family=squeezed", "--param=r", f"--start={p['start']!r}",
                    f"--stop={p['stop']!r}", f"--steps={p['steps']}", f"--dim={CLI_DIM}"],
         lambda p: sweep_closed_rows(p, CLI_DIM)),
    Item("verify-coherent", "verify", lambda p: ["verify", "--suite=coherent"]),
    Item("verify-time-evolution", "verify", lambda p: ["verify", "--suite=time-evolution"]),
    Item("usage-pair-without-q", "usage",
         lambda p: ["state", "--family=pair", f"--zeta={cplx(_z(p, 'zeta'))}"], expect_rc=2),
    Item("usage-wave-without-s", "usage",
         lambda p: ["wavefunction", "--family=squeezed", f"--alpha={cplx(_z(p, 'alpha'))}"],
         expect_rc=2),
]

LARGE_ITEMS = [
    Item("state-squeezed-512", "state", _state("squeezed", 512, "r", "phi"),
         lambda p: squeezed_closed(p["r"], p["phi"], 512)),
    Item("sweep-squeezed-256", "sweep",
         lambda p: ["sweep", "--family=squeezed", "--param=r", f"--start={p['start']!r}",
                    f"--stop={p['stop']!r}", f"--steps={p['steps']}", "--dim=256"],
         lambda p: sweep_closed_rows(p, 256)),
    Item("state-phase-squeezed-256", "state", _state("phase-squeezed", 256, "r", "m", "phi"),
         lambda p: phase_squeezed_closed(p["r"], p["phi"], p["m"], 256)),
    Item("state-two-mode-96", "state", _state("two-mode", 96, "theta"),
         lambda p: two_mode_closed(p["theta"], 96)),
    Item("state-pair-96", "state", _state("pair", 96, "zeta", "q"),
         lambda p: pair_closed(_z(p, "zeta"), p["q"], 96)),
    Item("wave-squeezed-20001", "wavefunction",
         lambda p: ["wavefunction", "--family=squeezed", f"--s={p['s']!r}",
                    f"--alpha={cplx(_z(p, 'alpha'))}", "--points=20001"],
         lambda p: lambda xs: gaussian_closed(
             xs, math.sqrt(2.0) * p["alpha"][0], math.sqrt(2.0) * p["alpha"][1], p["s"])),
]

ITEMS = {"cli-cold": CLI_ITEMS, "large-dim": LARGE_ITEMS}

SUITE_NAMES = (
    "ho-algebra", "coherent", "time-evolution", "pair", "phase",
    "single-squeeze", "two-squeeze", "factorization", "sqm",
)


def command_for(item: Item, point: dict) -> Command:
    """argv, environment and config text of one pool point."""
    params = point["params"]
    cmd = Command(item, params, point.get("summary"), item.build(params))
    if item.id == "state-coherent":
        cmd.env = {"FOCKBENCH_DIM": str(CLI_DIM)}
    elif item.id == "state-squeezed":
        cmd.config = f"r={params['r']!r}\nphi={params['phi']!r}\ndim={CLI_DIM}\n"
    elif item.id == "state-perelomov":
        cmd.config = f"# pinned through the config file\nk={params['k']!r}\nxi={cplx(_z(params, 'xi'))}\ndim=48\n"
    return cmd
