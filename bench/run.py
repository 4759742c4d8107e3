"""fockbench benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {cli-cold,verify-suites,large-dim} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop with one
client; the seed picks every item's parameters from the captured pools in
`reference.json` and the order of the commands.  Every artifact is checked
against the reference values and, where one exists, a closed form.

`--trace 0` prints the end-to-end metrics and `--trace 1` the per-layer
metrics, each with its unit, as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Lines before it start with '#' and record the environment, the sample
counts and the error rate.  See bench/README.md for what each metric means
on each workload.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from warmup import SPAWN_VAR, import_package, set_up

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# one BLAS thread: with two threads on two cores a verify-suites pass
# spread about 15% (IQR over median) against about 6% with one
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# set-ups per run; setup_s is the fastest of them
SETUPS = 11
WORKLOADS = ("cli-cold", "verify-suites", "large-dim")
CONSOLE_SCRIPT = "import sys; from fockbench.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_p50_s": "s",
    "cli_tail_s": "s",
    "verify_pass_s": "s",
    "states_per_s": "1/s",
}

_TIMED = (
    "fock.matrix_exponential", "expm_multiply", "squeezing.disentangle_identity_residual",
    "fock.quadrature_report", "squeezing.two_mode_noise_report",
    "fock.build_ladder", "fock.build_quadratures", "twomode.ladders_sparse",
    "phase.build_R_ops", "phase.build_omega_ops",
    "coherent.coherent_ladder", "squeezing.squeezed_vacuum_closed_form",
    "su11.pair_coherent", "su11.perelomov_state", "sqm.chi_states", "sqm.spectral_check",
    "cli.main", "cli.emit", "cli.write",
)
SUITES = ("ho-algebra", "coherent", "time-evolution", "pair", "phase",
          "single-squeeze", "two-squeeze", "factorization", "sqm")

PER_LAYER = {}
for _name in _TIMED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "fock.matrix_exponential.n3": "count",
    "fock.matrix_exponential.bytes": "B",
    "expm_multiply.nnz": "count",
    "cli.emit.bytes": "B",
    # the dense 576^2 expm inside the splitting residual; its self time
    # above is the two nilpotent series and the block comparison
    "squeezing.disentangle_identity_residual.expm_s": "s",
})
for _suite in SUITES:
    PER_LAYER[f"verify.{_suite}.self_s"] = "s"
PER_LAYER.update({
    "verify.two-squeeze.share": "ratio",
    "proc.interpreter_s": "s",
    "proc.import_cli_s": "s",
    "proc.scipy_integrate_share": "ratio",
    "proc.first_expm_s": "s",
    "proc.next_expm_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
})


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k != "FOCKBENCH_DIM"}
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def tail(samples):
    """Highest percentile with at least ten samples beyond it, never
    below the median; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11
    if k < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


class Run:
    """Inputs, output paths and the correctness tally of one run."""

    def __init__(self, workload, seed, workdir):
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(seed)
        with open(os.path.join(BENCH, "reference.json")) as fh:
            self.reference = json.load(fh)
        self.configs = {}
        self.commands = self._commands()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def _commands(self):
        wl = self.wl
        if self.workload == "verify-suites":
            cmds = [wl.Command(wl.Item(s, "verify", None), {}, self.reference["verify-suites"][s], [s])
                    for s in wl.SUITE_NAMES]
        else:
            pools = self.reference[self.workload]
            cmds = []
            for item in wl.ITEMS[self.workload]:
                pool = pools[item.id]
                cmds.append(wl.command_for(item, pool[self.rng.randrange(len(pool))]))
        self.rng.shuffle(cmds)
        for i, cmd in enumerate(cmds):
            cmd.out = os.path.join(self.workdir, f"out{i}")
            if cmd.config is not None:
                path = os.path.join(self.workdir, f"config{i}.txt")
                self.configs[path] = cmd.config
                cmd.argv = cmd.argv + [f"--config={path}"]
            if self.workload != "verify-suites":
                cmd.argv = cmd.argv + [f"--out={cmd.out}"]
        return cmds

    def write_configs(self):
        for path, text in self.configs.items():
            with open(path, "w") as fh:
                fh.write(text)

    def record(self, index, cmd, rc, text, stderr=""):
        """Check one command's outcome; a failure is counted, not raised."""
        try:
            if rc != cmd.item.expect_rc:
                problem = f"exit code {rc}, expected {cmd.item.expect_rc}: {stderr.strip()[-200:]}"
            elif cmd.item.kind == "usage":
                lines = stderr.strip().splitlines()
                problem = (None if len(lines) == 1 and lines[0].startswith("error: ")
                           else f"expected a one-line error message, got {stderr!r}")
            else:
                problem = self.repeated(index, text) or self.wl.check_artifact(cmd, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable artifact: {exc}"
        self.tally(cmd.item.id, problem)

    def repeated(self, index, text):
        """A reason when a repeated command's output differs from its first."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            return "repeated command produced different bytes"
        return None

    def tally(self, name, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{name}: {problem}")


# ------------------------------------------------------------- cli-cold


def spawn(argv, env, stderr_path):
    """Run one child to completion; returns (seconds, exit code).  The
    wait blocks: `Popen.wait(timeout)` polls in steps of up to 50 ms, which
    would round every latency up to that grid, so a watchdog thread kills
    a child that runs too long instead."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killed = []
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, lambda: killed.append(proc.kill()))
        watchdog.start()
        rc = proc.wait()
        elapsed = time.perf_counter() - t0
        watchdog.cancel()
        watchdog.join()
    if killed:
        rc = f"killed after {COMMAND_TIMEOUT_S} s"
    return elapsed, rc


def run_cli_command(run, index, cmd, traced):
    """One `fockbench` command in a fresh interpreter, checked."""
    err_path = os.path.join(run.workdir, "stderr")
    trace_path = os.path.join(run.workdir, "launch.json")
    if os.path.exists(cmd.out):
        os.unlink(cmd.out)
    if traced:
        argv = [sys.executable, os.path.join(BENCH, "launch.py"), trace_path] + cmd.argv
    else:
        argv = [sys.executable, "-c", CONSOLE_SCRIPT] + cmd.argv
    env = child_env(dict(cmd.env, **{SPAWN_VAR: repr(time.time())}))
    elapsed, rc = spawn(argv, env, err_path)
    with open(err_path) as fh:
        stderr = fh.read()
    text = ""
    if os.path.exists(cmd.out):
        with open(cmd.out) as fh:
            text = fh.read()
    run.record(index, cmd, rc, text, stderr)
    launch = None
    if traced and os.path.exists(trace_path):
        with open(trace_path) as fh:
            launch = json.load(fh)
        os.unlink(trace_path)
    return elapsed, launch


def setup_cli_cold(run):
    """Seconds to write the config files and run one cold command (the
    same item for every seed), timed around the program only."""
    t0 = time.perf_counter()
    run.write_configs()
    seconds = time.perf_counter() - t0
    index = next(i for i, c in enumerate(run.commands) if c.item.id == "state-coherent")
    elapsed, _ = run_cli_command(run, index, run.commands[index], traced=False)
    return seconds + elapsed


def probe_when_due(res, probe, seconds, deadline):
    """Run the next set-up probe once its share of the run has passed, so
    that the probes spread over the whole run; the time a probe takes is
    added to the deadline, not to the measured time."""
    measured = seconds - (deadline - time.perf_counter())
    if len(res.probes) < SETUPS and measured >= seconds * len(res.probes) / SETUPS:
        t0 = time.perf_counter()
        res.probes.append(probe())
        deadline += time.perf_counter() - t0
    return deadline


def measure_cli_cold(run, seconds, trace, probe):
    """Commands in the seeded order, one at a time, until the time is up
    and at least one whole pass is done.  With tracing, each command runs
    untraced and then traced, and only the traced runs give layers."""
    n = len(run.commands)
    res = Result("commands", run)
    pass_time = traced_time = 0.0
    layers = defaultdict(float)
    roots, marks, pass_roots = [], defaultdict(list), []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        # the first probe also writes the config files the commands read
        deadline = probe_when_due(res, probe, seconds, deadline)
        cmd = run.commands[i % n]
        elapsed, _ = run_cli_command(run, i % n, cmd, traced=False)
        res.add(i % n, elapsed)
        pass_time += elapsed
        if trace:
            t_elapsed, launch = run_cli_command(run, i % n, cmd, traced=True)
            traced_time += t_elapsed
            if launch is not None:
                for key, value in launch["layers"].items():
                    layers[key] += value
                for key in ("interpreter_s", "import_cli_s"):
                    marks[f"proc.{key}"].append(launch[key])
                roots.append(launch["interpreter_s"] + launch["import_cli_s"] + launch["root_s"])
                res.spans.append({"op": i, "command": cmd.item.id, "spans": launch["spans"]})
        i += 1
        if i % n == 0:
            res.passes.append(pass_time)
            res.traced_passes.append(traced_time)
            # the layers of whole passes only
            res.layers = dict(layers)
            pass_roots.append(sum(roots))
            pass_time = traced_time = 0.0
            roots = []
        if time.perf_counter() >= deadline and res.passes:
            break
    # the largest child waited for: a fockbench command
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if trace:
        res.layers = {k: v / len(res.passes) for k, v in res.layers.items()}
        res.extra = {k: statistics.median(v) for k, v in marks.items()}
        res.roots = pass_roots
    return res


# ------------------------------------------------------- in-process loops


def run_in_process_command(run, index, cmd):
    from fockbench import cli, verify

    if run.workload == "verify-suites":
        t0 = time.perf_counter()
        try:
            report = verify.run_suite(cmd.argv[0])
        except Exception as exc:  # a crash is a failed operation, and the loop goes on
            report, problem = None, f"exception {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if report is not None:
            summary = {"passed": bool(report.passed),
                       "checks": [[c.name, c.measured, c.bound, bool(c.passed)]
                                  for c in report.checks]}
            problem = (run.repeated(index, json.dumps(summary))
                       or run.wl.check_verify(summary, cmd.summary))
        run.tally(cmd.item.id, problem)
        return elapsed
    if os.path.exists(cmd.out):
        os.unlink(cmd.out)
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(cmd.argv))
    except Exception as exc:  # a crash is a failed operation, and the loop goes on
        rc = f"exception {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    text = ""
    if os.path.exists(cmd.out):
        with open(cmd.out) as fh:
            text = fh.read()
    run.record(index, cmd, rc, text)
    return elapsed


def measure_in_process(run, seconds, trace, probe):
    """Whole passes over the seeded command order until the time is up.
    With tracing, passes alternate untraced and traced."""
    from tracer import Tracer

    res = Result("passes", run)
    layers = defaultdict(float)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        deadline = probe_when_due(res, probe, seconds, deadline)
        tracer = Tracer() if trace and k % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        total = 0.0
        try:
            for i, cmd in enumerate(run.commands):
                if tracer is not None:
                    tracer.op = k * len(run.commands) + i
                elapsed = run_in_process_command(run, i, cmd)
                total += elapsed
                if tracer is None:
                    res.add(i, elapsed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            res.passes.append(total)
        else:
            res.traced_passes.append(total)
            res.roots.append(tracer.root_time())
            for key, value in tracer.layers().items():
                layers[key] += value
            layers["squeezing.disentangle_identity_residual.expm_s"] += tracer.time_in(
                "fock.matrix_exponential", parent="squeezing.disentangle_identity_residual")
            layers["verify.two-squeeze.share"] += (
                tracer.time_in("verify.two-squeeze") / tracer.root_time())
            res.spans.append({"pass": k, "spans": tracer.spans})
        k += 1
        if time.perf_counter() >= deadline and res.passes and (res.traced_passes or not trace):
            break
    res.requests = res.passes
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.layers = {key: v / max(1, len(res.traced_passes)) for key, v in layers.items()}
    return res


class Result:
    """What one measured run saw; `requests` are the latency samples."""

    def __init__(self, unit, run):
        self.unit = unit
        self.per_command = defaultdict(list)
        self.requests = []
        self.passes = []
        self.outputs_per_pass = sum(run.wl.outputs_of(c) for c in run.commands)
        self.peak_rss_mb = 0.0
        self.traced_passes = []
        self.roots = []
        self.layers = {}
        self.extra = {}
        self.spans = []
        self.probes = []

    def add(self, index, elapsed):
        self.per_command[index].append(elapsed)
        if self.unit == "commands":
            self.requests.append(elapsed)


IMPORT_PROBE = """
import json, time
import numpy as np
import fockbench.cli
from scipy.linalg import expm
ladder = np.diag(np.sqrt(np.arange(1.0, 64.0)), 1).astype(complex)
times = []
for _ in range(2):
    t0 = time.perf_counter()
    expm(0.5 * (ladder.T - ladder))
    times.append(time.perf_counter() - t0)
print(json.dumps(times))
"""


def import_probe():
    """The scipy.integrate share of `import fockbench.cli` (from
    -X importtime) and the first and second dense expm at dim 64."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    first, following = json.loads(proc.stdout)
    return {
        "proc.scipy_integrate_share":
            cumulative.get("scipy.integrate", 0) / cumulative["fockbench.cli"],
        "proc.first_expm_s": first,
        "proc.next_expm_s": following,
    }


# ---------------------------------------------------------------- report


def environment(workload, seed, trace):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "host_probe_ms": host_probe(),
    }


def host_probe():
    """Fastest of 30 runs of a fixed pure-Python loop and of a fixed 256^2
    matrix product, in ms: they move with the machine, not with fockbench,
    so they show whether two runs saw the same machine speed."""
    import numpy

    def fastest(fn):
        times = []
        for _ in range(30):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(1000.0 * min(times), 4)

    matrix = numpy.random.default_rng(0).standard_normal((256, 256))
    return {"python": fastest(lambda: sum(i * i for i in range(100000))),
            "blas": fastest(lambda: matrix @ matrix)}


def git_commit():
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_probe(args, workdir):
    """One in-process set-up in a fresh interpreter, from its spawn to the
    end of the warm-up; returns (seconds, interpreter and import marks)."""
    argv = [sys.executable, os.path.join(BENCH, "warmup.py"), args.workload, workdir]
    spawned = time.time()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env({SPAWN_VAR: repr(spawned)}),
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
    marks = json.loads(proc.stdout.strip().splitlines()[-1])
    return marks.pop("ready") - spawned, marks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockbench", "cli.py")):
        print(f"error: no fockbench sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(BENCH, "reference.json")):
        print("error: bench/reference.json is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    in_process = args.workload != "cli-cold"
    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(args.workload, args.seed, workdir)
        # the first import or cold command fills the bytecode caches of a
        # fresh checkout; setup_s is the fastest probe, so that cost is not in it
        if in_process:
            import_package()
            set_up(args.workload, workdir)
            probe = lambda: setup_probe(args, workdir)  # noqa: E731
            result = measure_in_process(run, args.seconds, args.trace, probe)
        else:
            probe = lambda: (setup_cli_cold(run), {})  # noqa: E731
            result = measure_cli_cold(run, args.seconds, args.trace, probe)
        while len(result.probes) < SETUPS:  # a run too short for all of them
            result.probes.append(probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + json.dumps(environment(args.workload, args.seed, args.trace)))
    error_rate = run.failed / run.attempted
    print(f"# error_rate {error_rate:.6g} 1  ({run.failed} of {run.attempted} operations failed)")
    for problem in run.problems:
        print(f"# failure {problem}")
    if args.trace:
        metrics = per_layer_metrics(args, result, result.probes)
    else:
        metrics = end_to_end_metrics(result, result.probes)
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(res, probes):
    value, pct = tail(res.requests)
    # slow spells of the machine only ever make a sample slower, so a pass
    # is the sum of each command's fastest time and set-up the fastest one
    pass_s = sum(min(v) for v in res.per_command.values())
    print(f"# setup_s is the fastest of {len(probes)} set-ups: "
          + ", ".join(f"{p[0]:.3f}" for p in probes))
    what = (f"p{pct:.0f}" if pct > 50 else
            f"the median: {len(res.requests)} {res.unit} are too few for a tail")
    print(f"# cli_p50_s and cli_tail_s over {len(res.requests)} {res.unit}; cli_tail_s is {what};"
          f" verify_pass_s sums the fastest of"
          f" {min(len(v) for v in res.per_command.values())} or more samples of each command")
    values = {
        "setup_s": min(p[0] for p in probes),
        "peak_rss_mb": res.peak_rss_mb,
        "cli_p50_s": statistics.median(res.requests),
        "cli_tail_s": value,
        "verify_pass_s": pass_s,
        "states_per_s": res.outputs_per_pass / pass_s,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer_metrics(args, res, probes):
    values = defaultdict(float, res.layers)
    values["proc.interpreter_s"] = statistics.median(p[1].get("interpreter_s", 0.0) for p in probes)
    values["proc.import_cli_s"] = statistics.median(p[1].get("import_cli_s", 0.0) for p in probes)
    values.update(res.extra)
    values.update(import_probe())
    untraced = statistics.median(res.passes)
    traced = statistics.median(res.traced_passes)
    overhead = traced - untraced
    values["trace.untraced_s"] = untraced
    values["trace.traced_s"] = traced
    values["trace.overhead_s"] = overhead
    values["trace.accounted_share"] = (statistics.median(res.roots) - overhead) / untraced
    path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": res.spans}, fh)
    print(f"# spans written to {os.path.relpath(path, ROOT)}; per-layer values are per pass,"
          f" from {len(res.traced_passes)} traced passes")
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
