"""Regenerate `reference.json`: the parameter pools of every workload item
and the artifact values the program produced for each pool point.

Run it only at a commit whose outputs are trusted (it was run at the
commit that introduced the benchmark), from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/capture_reference.py

Each pool point is drawn inside its family's tight truncation region, and
for families built by an operator exponential, further inside it so that
the truncated exponential and the closed form agree to roundoff.  The
script refuses to write a reference in which an artifact misses its
closed form by more than the benchmark's tolerance.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fockbench import cli, verify  # noqa: E402

import workloads as wl  # noqa: E402

POOL_SEED = 200408829
POOL_SIZES = {"cli-cold": 16, "large-dim": 8}


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _disc(rng, lo, hi):
    rho, ang = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
    return [round(rho * math.cos(ang), 6), round(rho * math.sin(ang), 6)]


DRAWS = {
    "state-coherent": lambda g: {"alpha": _disc(g, 0.5, 3.0)},
    "state-squeezed": lambda g: {"r": _u(g, 0.1, 0.4), "phi": _u(g, 0.0, 6.28)},
    "state-theta-vacuum": lambda g: {"theta": _u(g, -1.0, 1.0)},
    "state-two-mode": lambda g: {"theta": _u(g, 0.2, 0.9)},
    "state-pair": lambda g: {"zeta": _disc(g, 0.5, 3.0), "q": g.randint(0, 3)},
    "state-perelomov": lambda g: {"k": _u(g, 0.5, 2.0), "xi": _disc(g, 0.1, 0.8)},
    "state-parity-pair": lambda g: {"zeta": _disc(g, 0.5, 2.0), "q": g.randint(0, 2)},
    "state-phase-squeezed": lambda g: {"r": _u(g, 0.1, 0.4), "m": g.randint(1, 2),
                                       "phi": _u(g, 0.0, 6.28)},
    "state-lambda-coherent": lambda g: {"lam": _u(g, 0.5, 5.0), "z": _disc(g, 0.2, 1.2)},
    "state-lambda-squeezed": lambda g: {"lam": _u(g, 0.5, 5.0), "xi": _disc(g, 0.1, 0.6),
                                        "z": _disc(g, 0.2, 0.8)},
    "wave-coherent": lambda g: {"alpha": _disc(g, 0.5, 3.0)},
    "wave-squeezed": lambda g: {"s": _u(g, 0.5, 2.0), "alpha": _disc(g, 0.0, 1.5)},
    "wave-lambda-coherent": lambda g: {"lam": _u(g, 0.5, 5.0), "z": _disc(g, 0.2, 1.2)},
    "sweep-squeezed": lambda g: {"start": _u(g, 0.05, 0.2), "stop": _u(g, 0.3, 0.4),
                                 "steps": 3},
    "verify-coherent": lambda g: {},
    "verify-time-evolution": lambda g: {},
    "usage-pair-without-q": lambda g: {"zeta": _disc(g, 0.5, 3.0)},
    "usage-wave-without-s": lambda g: {"alpha": _disc(g, 0.0, 1.5)},
    # large-dim ranges are narrow so that the work does not depend on the
    # seed: every dense expm of an item takes the same Pade order and number
    # of squarings, and r changes how many subnormal entries the squarings
    # meet (r in [0.75, 1.25] spread the dim-512 expm by about 20%)
    "state-squeezed-512": lambda g: {"r": _u(g, 1.0, 1.1), "phi": _u(g, 0.0, 6.28)},
    "sweep-squeezed-256": lambda g: {"start": _u(g, 0.38, 0.42), "stop": _u(g, 0.96, 1.0),
                                     "steps": 4},
    "state-phase-squeezed-256": lambda g: {"r": _u(g, 0.45, 0.55), "m": 2,
                                           "phi": _u(g, 0.0, 6.28)},
    "state-two-mode-96": lambda g: {"theta": _u(g, 0.6, 0.8)},
    "state-pair-96": lambda g: {"zeta": _disc(g, 3.0, 4.0), "q": 1},
    "wave-squeezed-20001": lambda g: {"s": _u(g, 0.9, 1.1), "alpha": _disc(g, 0.5, 0.8)},
}


def capture_point(item, params, workdir):
    cmd = wl.command_for(item, {"params": params})
    argv = list(cmd.argv)
    if cmd.config is not None:
        path = os.path.join(workdir, "config.txt")
        with open(path, "w") as fh:
            fh.write(cmd.config)
        argv.append(f"--config={path}")
    out = os.path.join(workdir, "artifact")
    if os.path.exists(out):
        os.unlink(out)
    saved = {k: os.environ.get(k) for k in cmd.env}
    os.environ.update(cmd.env)
    try:
        rc = cli.main(argv + [f"--out={out}"])
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    if rc != item.expect_rc:
        raise SystemExit(f"{item.id} {params}: exit code {rc}, expected {item.expect_rc}")
    if item.kind == "usage":
        return {"exit_code": rc}
    with open(out) as fh:
        text = fh.read()
    summary, _ = wl.parse_artifact(item.kind, text)
    cmd.summary = summary
    problem = wl.check_artifact(cmd, text)
    if problem:
        raise SystemExit(f"{item.id} {params}: {problem}")
    return summary


def main():
    reference = {"pool_seed": POOL_SEED}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for workload, items in wl.ITEMS.items():
            rng = random.Random(f"{POOL_SEED}-{workload}")
            pools = {}
            for item in items:
                points = []
                for _ in range(POOL_SIZES[workload]):
                    params = DRAWS[item.id](rng)
                    points.append({"params": params,
                                   "summary": capture_point(item, params, workdir)})
                pools[item.id] = points
                print(f"{workload} {item.id}: {len(points)} points", file=sys.stderr)
            reference[workload] = pools
    suites = {}
    for name in wl.SUITE_NAMES:
        report = verify.run_suite(name)
        suites[name] = {
            "passed": bool(report.passed),
            "checks": [[c.name, c.measured, c.bound, bool(c.passed)] for c in report.checks],
        }
        if not report.passed:
            raise SystemExit(f"suite {name} fails at this commit")
    reference["verify-suites"] = suites
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
