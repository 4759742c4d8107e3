"""Set-up of an in-process workload: import the package and make the first
call of each kernel, so lazy imports and first-use costs inside scipy land
in the set-up time and not in the first timed pass.

    python3 bench/warmup.py WORKLOAD WORKDIR

As a script it is one set-up probe in a fresh interpreter: it prints the
interpreter start-up time (from the spawn time the parent puts in
FOCKBENCH_BENCH_SPAWN), the time of the package import and the wall-clock
time at which the set-up ended, as one JSON line.  It imports nothing but
the package under test, so the probe times the program and not the
benchmark.  `run.py` imports `set_up` for its own process.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SPAWN_VAR = "FOCKBENCH_BENCH_SPAWN"


def import_package():
    """Seconds to import `fockbench.cli` and `fockbench.verify`."""
    t0 = time.perf_counter()
    import fockbench.cli  # noqa: F401
    import fockbench.verify  # noqa: F401

    return time.perf_counter() - t0


def set_up(workload, workdir):
    from fockbench import cli, verify

    if workload == "verify-suites":
        for suite in ("time-evolution", "coherent", "pair"):
            verify.run_suite(suite)
        return
    warm = os.path.join(workdir, "warm")
    for argv in (["state", "--family=squeezed", "--r=0.5", "--dim=32"],
                 ["sweep", "--family=squeezed", "--param=r", "--start=0.1",
                  "--stop=0.2", "--steps=2", "--dim=32"],
                 ["state", "--family=phase-squeezed", "--r=0.3", "--m=2", "--dim=32"],
                 ["state", "--family=two-mode", "--theta=0.5", "--dim=8"],
                 ["state", "--family=pair", "--zeta=1", "--q=1", "--dim=8"],
                 ["wavefunction", "--family=squeezed", "--s=1", "--points=101"]):
        if cli.main(argv + [f"--out={warm}"]) != 0:
            raise RuntimeError(f"warm-up command failed: {argv}")


def main(workload, workdir):
    import_s = import_package()
    set_up(workload, workdir)
    print(json.dumps({
        "interpreter_s": STARTED - float(os.environ[SPAWN_VAR]),
        "import_cli_s": import_s,
        "ready": time.time(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
