"""Outside-in layer trace: spans around calls into obslab's public functions.

The program is not changed.  `install` replaces each listed function with a
wrapper in every obslab module that bound it by name (`from .spectral import
decompose_hamiltonian` makes a separate binding in each importer), and wraps
the numpy kernels every layer calls.  A span records its name, start, end
and parent; spans stay in memory until the workload process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module, functions).  A layer metric "<span name>_s" is the
# self time of its spans: their duration minus that of their child spans.
LAYERS = [
    ("cli.self", "obslab.cli", ["run"]),
    ("cli.load_config", "obslab.cli", ["load_config"]),
    ("cli.emit", "obslab.cli", ["emit_series", "emit_field"]),
    ("hamiltonian.dense_matrix", "obslab.hamiltonian", ["dense_matrix"]),
    ("hamiltonian.dilation_generator", "obslab.hamiltonian",
     ["dilation_generator"]),
    ("spectral.decompose_hamiltonian", "obslab.spectral",
     ["decompose_hamiltonian"]),
    ("spectral.decompose_dilation", "obslab.spectral", ["decompose_dilation"]),
    ("estimate.gram_operator_norm", "obslab.estimate", ["gram_operator_norm"]),
    ("propagate.evolve", "obslab.propagate", ["evolve"]),
    ("propagate.evolve_series", "obslab.propagate", ["evolve_series"]),
    ("propagate.evolve_backward", "obslab.propagate", ["evolve_backward"]),
    ("propagate.engine_cross_check", "obslab.propagate",
     ["engine_cross_check"]),
    ("grid.mass", "obslab.grid", ["mass_in_region", "boundary_shell_mass"]),
    ("grid.concentrate", "obslab.grid", ["concentrate"]),
    ("inequality.enss_decay", "obslab.inequality", ["enss_decay"]),
    ("inequality.sharpness_sequence", "obslab.inequality",
     ["sharpness_sequence"]),
    ("inequality.uncertainty", "obslab.inequality",
     ["uncertainty_scan", "uncertainty_norm", "uncertainty_norm_dense"]),
    ("inequality.observability_ratio", "obslab.inequality",
     ["observability_ratio"]),
    ("inequality.minimal_velocity_decay", "obslab.inequality",
     ["minimal_velocity_decay"]),
    ("control.solve", "obslab.control", ["solve_impulse_control"]),
    ("control.adjoint_defect", "obslab.control", ["adjoint_defect"]),
    ("control.verify_control", "obslab.control", ["verify_control"]),
    ("commutator.momentum_pair", "obslab.commutator", ["momentum_pair"]),
    ("commutator.commutator_norm", "obslab.commutator", ["commutator_norm"]),
    ("commutator.scaling_fit", "obslab.commutator", ["scaling_fit"]),
    ("commutator.derivative_bump_scaling", "obslab.commutator",
     ["derivative_bump_scaling"]),
    ("kernel.eigh", "numpy.linalg", ["eigh"]),
    ("kernel.svd", "numpy.linalg", ["svd"]),
    ("kernel.fft", "numpy.fft", ["fft", "ifft", "fftn", "ifftn", "rfft",
                                 "irfft", "rfftn", "irfftn", "fft2", "ifft2"]),
]


def _n3(args):
    shape = getattr(args[0], "shape", ())
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch * m * n * min(m, n)


def _count_power(counters, result):
    counters["estimate.calls"] += 1
    counters["estimate.power_iterations"] += result.iterations
    counters["estimate.converged"] += bool(result.converged)


def _count_cg(counters, result):
    counters["control.calls"] += 1
    counters["control.cg_iterations"] += result.iterations
    counters["control.converged"] += bool(result.converged)


# Counts read from positional arguments before the call:
# span name -> [(counter, fn(args) -> increment)].
_BEFORE = {
    "propagate.evolve": [("propagate.evolve.calls", lambda a: 1)],
    "kernel.eigh": [("kernel.eigh.calls", lambda a: 1),
                    ("kernel.eigh.n3", _n3)],
    "kernel.svd": [("kernel.svd.calls", lambda a: 1),
                   ("kernel.svd.n3", _n3)],
    "kernel.fft": [("kernel.fft.calls", lambda a: 1),
                   ("kernel.fft.points", lambda a: getattr(a[0], "size", 0))],
}

# Counts read from return values.
_AFTER = {
    "estimate.gram_operator_norm": _count_power,
    "control.solve": _count_cg,
}


class Tracer:
    """Nested spans on time.perf_counter, plus named counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        before = _BEFORE.get(name, ())
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for counter, measure in before:
                counters[counter] += measure(args)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        for attr in ("cache_info", "cache_clear"):  # keep lru_cache's API
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self):
        """Wrap every LAYERS function wherever an obslab module bound it."""
        bindings = [m for n, m in list(sys.modules.items())
                    if n == "obslab" or n.startswith("obslab.")]
        for name, module_name, functions in LAYERS:
            home = importlib.import_module(module_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                traced = self.wrap(name, original)
                for module in bindings + [home]:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)


def self_times(spans) -> dict:
    """Total self time per span name: duration minus child durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for (name, start, end, _), inner in zip(spans, child):
        out[name] += (end - start) - inner
    return dict(out)
