"""The artifact battery: a fixed list of CLI commands and a record of what
each one printed, so that "byte-identical" is a test and not a claim.

Each record holds the command's exit code, the sha256 of its stdout, the
sha256 of its stdout with every number replaced by one placeholder (its
layout), its stderr lines without the suite wall-time line, and its
warnings.  The numbers of every stdout, in order, are kept beside it as
xz-compressed float64 values.  `test_artifacts.py` runs the list in
process.  On the numpy build and OpenBLAS the records were made with, it
compares bytes; elsewhere it compares layouts and exit codes exactly and
every number within 1e-12 max(1, |v|).

To rewrite the records after a change that is meant to alter artifacts,
run from the repository root

    PYTHONPATH=src python tests/artifact_battery.py

It prints each command whose record changed, with the largest difference
of its numbers, for the change's description.
"""

import hashlib
import json
import lzma
import re
import sys
from pathlib import Path

import numpy as np

from test_cli import run_main

HERE = Path(__file__).parent
DIGESTS = HERE / "artifact_digests.json"
NUMBERS = HERE / "artifact_numbers.f64.xz"
RTOL = 1e-12

# a number is a token that no letter, digit, underscore or point precedes,
# so that the digits of names such as "n1" are not read as values
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

FAMILIES = {
    "coherent": ["--alpha", "1.5+0.5j"],
    "squeezed": ["--r", "0.6", "--phi", "0.4"],
    "theta-vacuum": ["--theta", "0.7"],
    "two-mode": ["--theta", "0.5"],
    "pair": ["--zeta", "0.8+0.3j", "--q", "2"],
    "perelomov": ["--k", "0.75", "--xi", "0.4+0.2j"],
    "parity-pair": ["--zeta", "1.2", "--q", "1"],
    "phase-squeezed": ["--r", "0.5", "--m", "2", "--phi", "0.3"],
    "lambda-coherent": ["--lam", "1", "--z", "0.7+0.2j"],
    "lambda-squeezed": ["--lam", "1", "--xi", "0.3", "--z", "0.5"],
}
SUITES = ["coherent", "factorization", "ho-algebra", "pair", "phase", "single-squeeze", "sqm",
          "time-evolution", "two-squeeze"]
SWEEPS = {
    "coherent": ["--param", "t", "--start", "0", "--stop", "3", "--steps", "5",
                 "--alpha", "1+0.5j"],
    "squeezed": ["--param", "r", "--start", "0.1", "--stop", "0.9", "--steps", "5"],
    "theta-vacuum": ["--param", "theta", "--start", "-0.8", "--stop", "0.8", "--steps", "5"],
    "two-mode": ["--param", "theta", "--start", "0", "--stop", "1.5", "--steps", "7"],
}
PROFILES = {
    "coherent": ["--alpha", "1+1j"],
    "squeezed": ["--s", "0.7", "--alpha", "0.5"],
    "lambda-coherent": ["--lam", "1", "--z", "0.5"],
    "lambda-squeezed": ["--lam", "1", "--xi", "0.3", "--z", "0.5"],
}
# exit-2 routes through argparse, the dispatcher, the config file, a
# builder's own refusal, a suite's input record, a grid and an overflow
USAGE_ERRORS = [
    ["state"],
    ["state", "--family", "coherent"],
    ["state", "--family", "nonsense"],
    ["state", "--family", "coherent", "--alpha", "--dim", "8"],
    ["state", "--family", "coherent", "--alpha=nan", "--dim", "4"],
    ["state", "--family", "squeezed", "--r", "inf"],
    ["state", "--family", "coherent", "--alpha", "1+"],
    ["state", "--family", "squeezed", "--r", "0.5", "--dim", "1"],
    ["state", "--family", "squeezed", "--r", "-1", "--dim", "8"],
    ["state", "--family", "pair", "--zeta", "1", "--q", "-1", "--dim", "8"],
    ["state", "--family", "parity-pair", "--zeta", "1", "--q", "-1", "--dim", "8"],
    ["state", "--family", "perelomov", "--k", "0", "--xi", "0.3", "--dim", "8"],
    ["state", "--family", "perelomov", "--k", "1", "--xi", "20", "--dim", "8"],
    ["state", "--family", "squeezed", "--r", "1e308", "--dim", "8"],
    ["state", "--family", "phase-squeezed", "--r", "1e308", "--m", "1", "--dim", "8"],
    ["state", "--family", "perelomov", "--k", "1e306", "--xi", "0.3", "--dim", "8"],
    ["state", "--family", "lambda-coherent", "--lam", "1", "--z", "3"],
    ["state", "--family", "lambda-coherent", "--lam", "-0.5", "--z", "0.2"],
    ["state", "--family", "coherent", "--alpha", "1", "--config", "no-such-dir/fockbench.cfg"],
    ["verify"],
    ["verify", "--suite", "nonsense"],
    ["verify", "--suite", "coherent", "--tol-scale", "-1"],
    ["verify", "--suite", "sqm", "--lam", "0"],
    ["verify", "--suite", "coherent", "--alpha", "1e200"],
    ["verify", "--suite", "phase", "--dim", "11"],
    ["sweep", "--family", "coherent", "--param", "r", "--start", "0", "--stop", "1",
     "--steps", "3"],
    ["sweep", "--family", "squeezed", "--param", "r", "--start", "0", "--stop", "1",
     "--steps", "0"],
    ["sweep", "--family", "squeezed", "--param", "r", "--start", "-0.2", "--stop", "0.2",
     "--steps", "3", "--dim", "8"],
    ["sweep", "--family", "coherent", "--param", "t", "--start", "0", "--stop", "1",
     "--steps", "3"],
    ["sweep", "--family", "squeezed", "--start", "0", "--stop", "1", "--steps", "3"],
    ["wavefunction"],
    ["wavefunction", "--family", "pair", "--zeta", "1", "--q", "0"],
    ["wavefunction", "--family", "squeezed", "--s", "1", "--points", "0"],
    ["wavefunction", "--family", "squeezed", "--s", "1e200"],
    ["wavefunction", "--family", "squeezed", "--s", "1", "--x-min", "2", "--x-max", "1"],
    ["wavefunction", "--family", "coherent", "--alpha", "2e4", "--points", "64"],
    ["wavefunction", "--family", "coherent", "--alpha", "0", "--x-min", "0",
     "--x-max", "1.7976931348623157e308", "--points", "7"],
    ["nonsense"],
]


def commands() -> list[list[str]]:
    """The battery, in its recorded order."""
    out = []
    for family, params in FAMILIES.items():
        for dim in ("16", "21"):  # every ladder chain even, then one odd chain at least
            for fmt in ("json", "csv"):
                out.append(["state", "--family", family, *params, "--dim", dim, "--format", fmt])
    for theta in ("3", "100"):
        for fmt in ("json", "csv"):
            out.append(["state", "--family", "two-mode", "--theta", theta, "--dim", "16",
                        "--format", fmt])
    for dim in ("2", "3", "33", "96"):
        out.append(["state", "--family", "two-mode", "--theta", "0.5", "--dim", dim])
    out += [
        ["state", "--family", "coherent", "--alpha", "1"],
        ["state", "--family", "perelomov", "--k", "1", "--xi", "-0.45", "--dim", "12"],
        ["state", "--family", "perelomov", "--k", "150.5", "--xi", "0.3+0.4j", "--dim", "33"],
        ["state", "--family", "squeezed", "--r", "1.2", "--dim", "96"],
        # the tail_warning case, the three pinned misses of the tail rule,
        # and three more truncated states that carry no warning
        ["state", "--family", "coherent", "--alpha", "2", "--dim", "12"],
        ["state", "--family", "squeezed", "--r", "2", "--dim", "8"],
        ["state", "--family", "phase-squeezed", "--r", "3", "--m", "16", "--dim", "64"],
        ["state", "--family", "phase-squeezed", "--r", "1", "--m", "3", "--dim", "12"],
        ["state", "--family", "two-mode", "--theta", "2", "--dim", "8"],
        ["state", "--family", "pair", "--zeta", "5", "--q", "0", "--dim", "6"],
        ["state", "--family", "perelomov", "--k", "0.5", "--xi", "2", "--dim", "16"],
        ["state", "--family", "coherent", "--alpha", "40", "--dim", "16"],
    ]
    for suite in SUITES:
        out += [["verify", "--suite", suite], ["verify", "--suite", suite, "--format", "csv"],
                ["verify", "--suite", suite, "--tol-scale", "0"]]
    out += [
        ["verify", "--suite", "time-evolution", "--alpha", "0"],
        ["verify", "--suite", "two-squeeze", "--theta", "0"],
        ["verify", "--suite", "two-squeeze", "--dim", "8"],
    ]
    for family, params in SWEEPS.items():
        for fmt in ("csv", "json"):
            out.append(["sweep", "--family", family, *params, "--dim", "16", "--format", fmt])
    out.append(["sweep", "--family", "two-mode", "--param", "theta", "--start", "-1",
                "--stop", "3", "--steps", "9", "--dim", "33"])
    for family, params in PROFILES.items():
        for fmt in ("csv", "json"):
            out.append(["wavefunction", "--family", family, *params, "--format", fmt])
    out.append(["wavefunction", "--family", "squeezed", "--s", "1.3", "--points", "20001",
                "--format", "json"])
    out.append(["wavefunction", "--family", "coherent", "--alpha", "0.5", "--x-min", "-9",
                "--x-max", "10", "--points", "301"])
    return out + USAGE_ERRORS


def platform() -> dict:
    """What the recorded bits depend on: the numpy build, its bundled
    OpenBLAS and the SIMD extensions its kernels dispatch to here."""
    config = np.show_config(mode="dicts")
    return {
        "numpy": np.__version__,
        "openblas": config["Build Dependencies"]["blas"]["version"],
        "simd": config["SIMD Extensions"]["found"],
    }


def _numbers(text: str) -> tuple[str, np.ndarray]:
    """`text` with each number replaced by "#", and its numbers in order."""
    values = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), np.array(values, dtype=float)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str], parse: bool = True) -> tuple[dict, np.ndarray | None]:
    """One command's record and the numbers of its stdout; without `parse`,
    the record has no layout and the numbers are None."""
    result = run_main(*argv)
    record = {
        "argv": argv,
        "exit": result.code,
        "stdout": _sha(result.out),
        "stderr": [line for line in result.err if "wall time" not in line],
        "warnings": result.warnings,
    }
    if not parse:
        return record, None
    layout, values = _numbers(result.out)
    return dict(record, layout=_sha(layout), numbers=values.size), values


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want))))


def _lines_close(got: list[str], want: list[str]) -> bool:
    """Lines equal but for numbers, and their numbers within tolerance."""
    if len(got) != len(want):
        return False
    pairs = [(_numbers(g), _numbers(w)) for g, w in zip(got, want)]
    return all(g[0] == w[0] and _close(g[1], w[1]) for g, w in pairs)


def compare(want: dict, want_values: np.ndarray, got: dict, got_values: np.ndarray,
            exact: bool) -> list[str]:
    """What differs between a record and a fresh run: exit codes, stdout
    bytes, stderr and warnings when `exact`; else exit codes and layouts
    exactly, and the numbers of stdout, stderr and warnings within tolerance."""
    if exact:
        return [key for key in ("exit", "stdout", "stderr", "warnings") if want[key] != got[key]]
    diffs = [key for key in ("exit", "layout") if want[key] != got[key]]
    if not _close(got_values, want_values):
        diffs.append("numbers")
    diffs += [key for key in ("stderr", "warnings") if not _lines_close(got[key], want[key])]
    return diffs


def load() -> tuple[dict, list[tuple[dict, np.ndarray]]]:
    """The recorded platform, and each record with its numbers."""
    data = json.loads(DIGESTS.read_text())
    flat = np.frombuffer(lzma.decompress(NUMBERS.read_bytes()), dtype="<f8")
    records, start = [], 0
    for record in data["commands"]:
        records.append((record, flat[start:start + record["numbers"]]))
        start += record["numbers"]
    if start != flat.size:
        raise ValueError(f"{NUMBERS.name} holds {flat.size} numbers, the records {start}")
    return data["platform"], records


def write(records: list[tuple[dict, np.ndarray]]) -> None:
    lines = ",\n".join(json.dumps(record) for record, _ in records)
    DIGESTS.write_text(f'{{"platform": {json.dumps(platform())},\n"commands": [\n{lines}\n]}}\n')
    flat = np.concatenate([values for _, values in records]).astype("<f8")
    NUMBERS.write_bytes(lzma.compress(flat.tobytes(), preset=9 | lzma.PRESET_EXTREME))


def main() -> int:
    fresh = [run(argv) for argv in commands()]
    old = {}
    if DIGESTS.exists():
        old = {tuple(r["argv"]): (r, v) for r, v in load()[1]}
    for record, values in fresh:
        before = old.get(tuple(record["argv"]))
        if before is None:
            print("new:", " ".join(record["argv"]))
        elif diffs := compare(*before, record, values, exact=True):
            delta = (float(np.abs(values - before[1]).max())
                     if values.shape == before[1].shape and values.size else None)
            print(f"changed {','.join(diffs)} (max |delta| {delta}):", " ".join(record["argv"]))
    write(fresh)
    print(f"{len(fresh)} commands recorded in {DIGESTS.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
