"""Traced launcher for one `fockbench` command in a fresh interpreter.

    python3 bench/launch.py TRACE_JSON [fockbench arguments...]

Behaves like the `fockbench` console script (same arguments, same exit
code) and also writes TRACE_JSON: the interpreter start-up time (from the
spawn time the parent puts in FOCKBENCH_BENCH_SPAWN), the time of
`import fockbench.cli`, and the layer spans of the command.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    interpreter_s = STARTED - float(os.environ["FOCKBENCH_BENCH_SPAWN"])
    t0 = time.perf_counter()
    import fockbench.cli

    import_cli_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = fockbench.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(
            {
                "interpreter_s": interpreter_s,
                "import_cli_s": import_cli_s,
                "root_s": tracer.root_time(),
                "layers": tracer.layers(),
                "spans": tracer.spans,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
