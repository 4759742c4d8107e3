"""Spans around calls into fockbench's layers, recorded from outside the
package: wrappers are put on the module attributes while a traced pass
runs and taken off afterwards.  The package itself is never edited.

A span is [name, start, end, parent index, op id].  Spans stay in memory
and are written out when the run ends.  A layer's self time is its
spans' durations minus the time covered by their direct children.

This module imports nothing heavy, so a launcher can time
`import fockbench.cli` after importing it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _count_expm(counts, args, out):
    d = out.shape[0]
    counts["fock.matrix_exponential.n3"] += d**3
    # complex128 generator in, exponential out
    counts["fock.matrix_exponential.bytes"] += 2 * 16 * d * d


def _count_expm_multiply(counts, args, out):
    a = args[0]
    counts["expm_multiply.nnz"] += a.nnz if hasattr(a, "nnz") else int((a != 0).sum())


def _count_emit(counts, args, out):
    counts["cli.emit.bytes"] += len(out)


# (span name, defining module, attribute, counter); every binding of the
# same function object in any fockbench module is wrapped under that name
TARGETS = [
    ("fock.matrix_exponential", "fockbench.fock", "matrix_exponential", _count_expm),
    ("expm_multiply", "scipy.sparse.linalg", "expm_multiply", _count_expm_multiply),
    ("squeezing.disentangle_identity_residual", "fockbench.squeezing",
     "disentangle_identity_residual", None),
    ("fock.quadrature_report", "fockbench.fock", "quadrature_report", None),
    ("squeezing.two_mode_noise_report", "fockbench.squeezing", "two_mode_noise_report", None),
    ("fock.build_ladder", "fockbench.fock", "build_ladder", None),
    ("fock.build_quadratures", "fockbench.fock", "build_quadratures", None),
    ("twomode.ladders_sparse", "fockbench.twomode", "ladders_sparse", None),
    ("phase.build_R_ops", "fockbench.phase", "build_R_ops", None),
    ("phase.build_omega_ops", "fockbench.phase", "build_omega_ops", None),
    ("coherent.coherent_ladder", "fockbench.coherent", "coherent_ladder", None),
    ("squeezing.squeezed_vacuum_closed_form", "fockbench.squeezing",
     "squeezed_vacuum_closed_form", None),
    ("su11.pair_coherent", "fockbench.su11", "pair_coherent", None),
    ("su11.perelomov_state", "fockbench.su11", "perelomov_state", None),
    ("sqm.chi_states", "fockbench.sqm", "chi_states", None),
    ("sqm.spectral_check", "fockbench.sqm", "spectral_check", None),
    ("cli.main", "fockbench.cli", "main", None),
    ("cli.emit", "fockbench.cli", "_emit_json", _count_emit),
    ("cli.emit", "fockbench.cli", "_emit_csv", _count_emit),
    ("cli.write", "fockbench.cli", "_write_text", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = defaultdict(int)
        self._patched = []

    def wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            # a layer calling itself (the recursive JSON emitter) is one span
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of each target, and each verify suite."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "fockbench" or n.startswith("fockbench.")) and m is not None]
        for name, owner, attr, count in TARGETS:
            original = getattr(sys.modules.get(owner), attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapped)
        verify = sys.modules.get("fockbench.verify")
        if verify is not None:
            suites = verify.SUITES
            for suite, fn in list(suites.items()):
                self._patched.append((suites, suite, fn))
                suites[suite] = self.wrap(f"verify.{suite}", fn)

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patched.clear()

    def layers(self):
        """calls and self_s per span name, plus the exact counts."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
        out.update(self.counts)
        return dict(out)

    def root_time(self):
        """Time covered by top-level spans: the sum of all self times."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def time_in(self, name, parent=None):
        """Total duration of the spans called `name`, optionally only
        those directly under a span called `parent`."""
        spans = self.spans
        return sum(end - start for n, start, end, p, _ in spans
                   if n == name and (parent is None or p >= 0 and spans[p][0] == parent))
