"""Span tracing of qlslab's public functions, installed from outside the package.

``pipeline`` and ``preprocess`` bind names such as ``apply_circuit`` and
``qpe_gates`` with ``from .sim import ...``, so patching the defining module
alone would miss those calls. ``Tracer.install`` therefore replaces every
binding of each original function object in every loaded ``qlslab`` module.

Each call records a span ``[function index, start, end, parent span, op id]``;
spans stay in memory until the run writes them out. Counts are taken in the
same wrappers.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (layer, function): the layer is the qlslab module that defines the function
TRACED = (
    ("qlsp", "generate_n2"),
    ("qlsp", "generate_n4"),
    ("qlsp", "evolution_unitary"),
    ("qlsp", "classical_solution"),
    ("sim", "apply_circuit"),
    ("sim", "sample"),
    ("sim", "postselect"),
    ("sim", "inject_noise"),
    ("sim", "gate_report"),
    ("sim", "marginal_probabilities"),
    ("sim", "state_preparation_matrix"),
    ("preprocess", "iterative_t0"),
    ("preprocess", "fixed_t0"),
    ("preprocess", "run_preprocessing"),
    ("preprocess", "build_qpe_circuit"),
    ("preprocess", "qpe_gates"),
    ("preprocess", "qpe_grid_probabilities"),
    ("preprocess", "qpe_histogram"),
    ("preprocess", "estimates_from_probabilities"),
    ("inversion", "plan_canonical"),
    ("inversion", "plan_hybrid"),
    ("inversion", "plan_enhanced"),
    ("inversion", "build_inversion_circuit"),
    ("pipeline", "run"),
    ("pipeline", "assemble_hhl"),
    ("pipeline", "projection_fidelity"),
    ("pipeline", "swap_test_fidelity"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn in TRACED)
LAYERS = ("qlsp", "sim", "preprocess", "inversion", "pipeline")

def _count_apply(counts, result, state, circuit):
    gates = len(circuit.gates)
    counts["sim.gates"] += gates
    counts["sim.amp_updates"] += gates << circuit.num_qubits
    counts["sim.max_qubits"] = max(counts["sim.max_qubits"], circuit.num_qubits)


def _count_qpe(counts, result, qlsp, bit_width, t0, *rest, **kwargs):
    counts[("qpe", id(qlsp), int(bit_width), float(t0))] += 1


def _count_plan(counts, plan, *args, **kwargs):
    counts["inversion.rotations"] += len(plan.rotations)
    counts["inversion.clamp_events"] += plan.clamp_events


HOOKS = {
    "sim.apply_circuit": _count_apply,
    "preprocess.qpe_grid_probabilities": _count_qpe,
    "preprocess.qpe_histogram": _count_qpe,
    "inversion.plan_canonical": _count_plan,
    "inversion.plan_hybrid": _count_plan,
    "inversion.plan_enhanced": _count_plan,
}


class Tracer:
    """Records spans and counts while installed; restores qlslab on removal."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # id of the op in progress; -1 outside ops
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "qlslab" or name.startswith("qlslab.")
        ]
        for index, (layer, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"qlslab.{layer}"], fn)
            wrapper = self._wrap(index, original, HOOKS.get(NAMES[index]))
            for module in modules:
                bound = [attr for attr, value in vars(module).items() if value is original]
                for attr in bound:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, index, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def summarize(self, first: int, last: int, op_seconds: float) -> dict:
        """Per-layer metrics over spans[first:last] and the current counts.

        Self time is a span's duration minus the time its child spans cover.
        ``op_seconds`` is the benchmark's own wall time of the ops.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        total = [0.0] * len(NAMES)
        self_time = [0.0] * len(NAMES)
        calls = [0] * len(NAMES)
        in_ops = 0.0
        for i, (name, start, end, _, op) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
            if op >= 0:
                in_ops += end - start - child[i]

        def inclusive(*names):
            return sum(total[NAMES.index(n)] for n in names)

        def count(name):
            return calls[NAMES.index(name)]

        layer_self = {
            layer: sum(s for n, s in zip(NAMES, self_time) if n.startswith(layer + "."))
            for layer in LAYERS
        }
        qpe_sims = count("preprocess.qpe_grid_probabilities") + count("preprocess.qpe_histogram")
        distinct_qpe = sum(1 for key in self.counts if isinstance(key, tuple))
        apply_s = inclusive("sim.apply_circuit")
        amp_updates = self.counts["sim.amp_updates"]
        return {
            "sim.apply_s": apply_s,
            "sim.apply_calls": count("sim.apply_circuit"),
            "sim.gates": self.counts["sim.gates"],
            "sim.amp_updates": amp_updates,
            "sim.ns_per_amp": 1e9 * apply_s / amp_updates if amp_updates else 0.0,
            "sim.sample_s": inclusive("sim.sample"),
            "sim.postselect_s": inclusive("sim.postselect"),
            "sim.inject_noise_s": inclusive("sim.inject_noise"),
            "sim.gate_report_s": inclusive("sim.gate_report"),
            "sim.max_qubits": self.counts["sim.max_qubits"],
            "sim.self_s": layer_self["sim"],
            "preprocess.qpe_sims": qpe_sims,
            "preprocess.qpe_dup_ratio": qpe_sims / distinct_qpe if distinct_qpe else 0.0,
            "preprocess.qpe_blocks": count("preprocess.qpe_gates"),
            "preprocess.t0_search_s": inclusive("preprocess.iterative_t0"),
            "preprocess.t0_searches": count("preprocess.iterative_t0"),
            "preprocess.self_s": layer_self["preprocess"],
            "inversion.self_s": layer_self["inversion"],
            "inversion.rotations": self.counts["inversion.rotations"],
            "inversion.clamp_events": self.counts["inversion.clamp_events"],
            "pipeline.self_s": layer_self["pipeline"],
            "pipeline.assemble_s": inclusive("pipeline.assemble_hhl"),
            "pipeline.readout_s": inclusive(
                "pipeline.projection_fidelity", "pipeline.swap_test_fidelity"
            ),
            "qlsp.build_s": inclusive("qlsp.generate_n2", "qlsp.generate_n4"),
            "qlsp.evolution_unitary_calls": count("qlsp.evolution_unitary"),
            "qlsp.self_s": layer_self["qlsp"],
            "trace.coverage": in_ops / op_seconds,
            "calls": dict(zip(NAMES, calls)),
        }

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"name": NAMES[name], "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
