"""Spans and counters around the public functions of each loopcorrect layer.

The tracer replaces, in every loaded ``loopcorrect`` module, each attribute
that refers to one of the traced functions, so calls made by ``cli`` and by
the other modules both go through a wrapper.  Each call records a span
``[name, start, end, parent, op]``; spans stay in memory until the run ends.
A span's self time is its duration minus the time covered by its direct
children, so the self times of the layers and of the enclosing op span add
up to the op's wall time.

In memory mode the calls into MEMORY_LAYERS also record the tracemalloc
peak they reach above the traced memory they started with; nested calls fold
their peak into the caller's, so the figure is right at every level of
nesting.  Tracing memory slows allocation several times over, so tracemalloc
runs only while such a call is open, and only for the first top-level call of
each name in an op.
"""

from __future__ import annotations

import math
import sys
import time
import tracemalloc
from collections import Counter


def _count_loops(c, args, result):
    c["graph.loops_out"] += len(result)


def _count_cycles(c, args, result):
    c["graph.cycles_out"] += len(result)


def _count_z(c, args, result):
    c["loopseries.terms"] += len(result.terms)
    signed = abs(result.total)
    if signed > 0.0:
        ratio = math.fsum(abs(r) for _, r in result.terms) / signed
        c["loopseries.cancel_ratio"] = max(c["loopseries.cancel_ratio"], ratio)


def _count_marg(c, args, result):
    c["loopseries.terms"] += len(result.terms)


def _count_iters_pairwise(c, args, result):
    c["lbp.iters_pairwise"] += result.iterations


def _count_iters_factor(c, args, result):
    c["lbp.iters_factor"] += result.iterations


def _count_states(c, args, result):
    model = args[0]
    n = model.node_count if hasattr(model, "node_count") else model.variable_count
    c["exact.states"] += 1 << n


def _coeff_bits(c, coeffs):
    bits = max((abs(v).bit_length() for v in coeffs), default=0)
    c["poly.max_coeff_bits"] = max(c["poly.max_coeff_bits"], bits)


def _count_theta(c, args, result):
    c["poly.theta_terms"] += len(result.poly.coeffs)
    _coeff_bits(c, result.poly.coeffs.values())


def _count_omega(c, args, result):
    _coeff_bits(c, result.poly.coeffs.values())


MEMORY_LAYERS = ("loopseries.", "exact.", "graphpoly.")

# (module, function) -> (span name, counter hook or None)
TRACED = {
    ("graph", "enumerate_generalized_loops"): ("graph.loops", _count_loops),
    ("graph", "enumerate_disjoint_cycles"): ("graph.cycles", _count_cycles),
    ("graph", "parse_edge_list"): ("model.parse", None),
    ("model", "model_from_json"): ("model.parse", None),
    ("model", "absorb_node_potentials"): ("model.absorb", None),
    ("loopseries", "coefficients_from_beliefs"): ("loopseries.coeff", None),
    ("loopseries", "factor_coefficients"): ("loopseries.coeff", None),
    ("loopseries", "loop_series_z"): ("loopseries.z", _count_z),
    ("loopseries", "loop_series_z_factor"): ("loopseries.z", _count_z),
    ("loopseries", "loop_series_marginal"): ("loopseries.marg", _count_marg),
    ("loopseries", "loop_series_marginal_factor"): ("loopseries.marg", _count_marg),
    ("lbp", "run_lbp"): ("lbp.run", _count_iters_pairwise),
    ("lbp", "run_lbp_factor"): ("lbp.run", _count_iters_factor),
    ("lbp", "bethe_log_z"): ("lbp.bethe", None),
    ("lbp", "bethe_log_z_factor"): ("lbp.bethe", None),
    ("exact", "brute_force"): ("exact.oracle", _count_states),
    ("graphpoly", "theta_direct"): ("graphpoly.theta_direct", _count_theta),
    ("graphpoly", "theta_contraction_deletion"): ("graphpoly.theta_cd", _count_theta),
    ("graphpoly", "theta_at_beta1"): ("graphpoly.bound", None),
    ("graphpoly", "golden_ratio_value"): ("graphpoly.bound", None),
    ("graphpoly", "loop_count_bound"): ("graphpoly.bound", None),
    ("graphpoly", "omega"): ("graphpoly.omega", _count_omega),
    ("graphpoly", "omega_determinant_form"): ("graphpoly.det", None),
    ("poly", "exact_divide"): ("poly.exact_divide", None),
}


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peak_mb: Counter = Counter()  # span name -> largest per-call peak
        self.op = -1
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []  # [start bytes, peak bytes, span]
        self._mem_seen: set = set()  # (op, span name) already measured
        self._undo: list[tuple] = []

    def _tracks_memory(self, name: str) -> bool:
        """Memory layers only, and of the top-level calls only the first of
        each name in an op: compare repeats the marginal series once per
        node, and tracemalloc would slow every repeat several times over."""
        if not (self.memory and name.startswith(MEMORY_LAYERS)):
            return False
        if self._mem_stack:
            return True
        key = (self.op, name)
        if key in self._mem_seen:
            return False
        self._mem_seen.add(key)
        return True

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        if self._tracks_memory(name):
            if not self._mem_stack:
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([cur, cur, idx])
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if self._mem_stack and self._mem_stack[-1][2] == idx:
            _, peak = tracemalloc.get_traced_memory()
            start, top, _ = self._mem_stack.pop()
            top = max(top, peak)
            name = self.spans[idx][0]
            self.peak_mb[name] = max(self.peak_mb[name], (top - start) / 2**20)
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer[1] = max(outer[1], top)
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts[name + "_calls"] += 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every loopcorrect module attribute that names a traced
        function; uninstall() puts the originals back."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "loopcorrect" or name.startswith("loopcorrect.")
        }
        wrappers = {}
        for (mod_name, fn_name), (span, hook) in TRACED.items():
            fn = getattr(mods["loopcorrect." + mod_name], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(fn, span, hook))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def self_times(self) -> Counter:
        """Span name -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return out
