"""Per-layer tracing from outside the program.

While a :class:`Tracer` is installed, the public functions of each
``descriptorsim`` module are replaced by wrappers that record a span (name,
start, end, parent, experiment id) around every call.  A module function is
imported by name into other modules (``bell.foliate``, ``cli.run_bell``,
...), so every binding of it in every loaded ``descriptorsim`` module is
patched, not only the defining one; methods are patched on their class.
Leaving the ``with`` block restores every original, so the untraced run
measures the unmodified program.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute path) for every traced callable; a dotted
# attribute path names a method patched on its class
TARGETS = (
    ("operators.matmul", "operators", "Operator.__matmul__"),
    ("operators.validate", "operators", "Operator.is_hermitian"),
    ("operators.validate", "operators", "Operator.is_unitary"),
    ("operators.validate", "operators", "Operator.is_involution"),
    ("operators.validate", "operators", "Operator.is_projector"),
    ("operators.validate", "operators", "Operator.commutes_with"),
    ("operators.embed", "operators", "embed_matrix"),
    ("gates.embedded", "gates", "Network.embedded"),
    ("engine.advance", "engine", "NetworkEvolution.advance"),
    ("engine.functional_form", "engine", "functional_form"),
    ("engine.sharpness", "engine", "is_sharp"),
    ("foliation.foliate", "foliation", "foliate"),
    ("foliation.refine", "foliation", "Foliation.refine"),
    ("foliation.branch_sum", "foliation", "Foliation.branch_sum"),
    ("oracle.simulate", "oracle", "simulate_statevector"),
    ("oracle.marginal", "oracle", "joint_outcome_distribution"),
    ("oracle.marginal", "oracle", "reduced_density_matrix"),
    ("bell.run_bell", "bell", "run_bell"),
    ("bell.build", "bell", "build_bell_network"),
    ("bell.experiment", "bell", "run_wigner_undo"),
    ("bell.experiment", "bell", "nonisomorphism_witness"),
    ("chsh.strategy", "chsh", "chsh_win_rate"),
    ("chsh.strategy", "chsh", "quantum_distribution"),
    ("chsh.enumerate", "chsh", "enumerate_classical"),
    ("cli.execute", "cli", "execute_and_report"),
)

# span name -> workloads on which it must fire at least once
FIRES_ON = {
    "operators.matmul": ("copy_chain", "decohered_seeds"),
    "operators.validate": ("copy_chain", "decohered_seeds"),
    "operators.embed": ("bell_sweep",),
    "gates.embedded": ("bell_sweep",),
    "engine.advance": ("copy_chain", "decohered_seeds"),
    "engine.functional_form": ("copy_chain", "decohered_seeds"),
    "engine.sharpness": ("copy_chain",),
    "foliation.foliate": ("copy_chain",),
    "foliation.refine": ("copy_chain",),
    "foliation.branch_sum": ("copy_chain",),
    "oracle.simulate": ("bell_sweep", "decohered_seeds"),
    "oracle.marginal": ("bell_sweep", "decohered_seeds"),
    "bell.run_bell": ("bell_sweep",),
    "bell.build": ("bell_sweep",),
    "bell.experiment": ("bell_sweep",),
    "chsh.strategy": ("bell_sweep",),
    "chsh.enumerate": ("bell_sweep",),
    "cli.execute": ("bell_sweep", "copy_chain", "decohered_seeds"),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move
    on: str  # the workload(s) where it should show


LAYER_METRICS = (
    LayerMetric("operators.matmul_calls", "count", "lower", "throughput_eps", "copy_chain, decohered_seeds"),
    LayerMetric("operators.matmul_s", "s", "lower", "latency_p50_ms", "copy_chain, decohered_seeds"),
    LayerMetric("operators.matmul_gflop_computed", "GFLOP", "lower", "throughput_eps", "copy_chain, decohered_seeds"),
    LayerMetric("operators.max_dim", "dim", "lower", "peak_rss_mb", "copy_chain"),
    LayerMetric("operators.validate_calls", "count", "lower", "throughput_eps", "copy_chain, decohered_seeds"),
    LayerMetric("operators.validate_s", "s", "lower", "latency_p50_ms", "copy_chain, decohered_seeds"),
    LayerMetric("operators.embed_calls", "count", "lower", "latency_p50_ms", "bell_sweep"),
    LayerMetric("operators.embed_s", "s", "lower", "latency_p50_ms", "bell_sweep"),
    LayerMetric("gates.embedded_calls", "count", "lower", "latency_p50_ms", "bell_sweep"),
    LayerMetric("gates.embedded_s", "s", "lower", "latency_p50_ms", "bell_sweep"),
    LayerMetric("engine.advance_calls", "count", "lower", "throughput_eps", "copy_chain"),
    LayerMetric("engine.advance_s", "s", "lower", "throughput_eps", "copy_chain, decohered_seeds"),
    LayerMetric("engine.functional_form_s", "s", "lower", "throughput_eps", "copy_chain, decohered_seeds"),
    LayerMetric("engine.conjugate_s", "s", "lower", "throughput_eps", "copy_chain, decohered_seeds"),
    LayerMetric("engine.sharpness_s", "s", "lower", "throughput_eps", "copy_chain"),
    LayerMetric("foliation.foliate_s", "s", "lower", "latency_p50_ms", "copy_chain"),
    LayerMetric("foliation.refine_s", "s", "lower", "latency_p50_ms", "copy_chain"),
    LayerMetric("foliation.branch_sum_s", "s", "lower", "latency_tail_ms", "copy_chain"),
    LayerMetric("foliation.validate_s", "s", "lower", "latency_tail_ms", "copy_chain"),
    LayerMetric("oracle.simulate_calls", "count", "lower", "latency_p50_ms", "bell_sweep, decohered_seeds"),
    LayerMetric("oracle.simulate_s", "s", "lower", "latency_p50_ms", "bell_sweep, decohered_seeds"),
    LayerMetric("oracle.marginal_s", "s", "lower", "latency_p50_ms", "bell_sweep, decohered_seeds"),
    LayerMetric("bell.run_bell_calls", "count", "lower", "throughput_eps", "bell_sweep"),
    LayerMetric("bell.build_s", "s", "lower", "throughput_eps", "bell_sweep"),
    LayerMetric("bell.self_s", "s", "lower", "throughput_eps", "bell_sweep"),
    LayerMetric("chsh.self_s", "s", "lower", "latency_tail_ms", "bell_sweep"),
    LayerMetric("chsh.enumerate_s", "s", "lower", "latency_tail_ms", "bell_sweep"),
    LayerMetric("cli.self_s", "s", "lower", "latency_p50_ms", "bell_sweep"),
    LayerMetric("trace.overhead_pct", "%", "lower", "none", "all"),
)

_MARK = "__perfbench_span__"


def _package_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "descriptorsim" or name.startswith("descriptorsim."))
    ]


def _resolve(module: str, path: str) -> tuple[object, str]:
    """(owner whose attribute is patched, attribute name)."""
    owner = sys.modules[f"descriptorsim.{module}"]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def find_wrappers() -> list[str]:
    """Every installed wrapper still reachable from the package: module
    bindings and traced class attributes."""
    found = [
        f"{module.__name__}.{name}"
        for module in _package_modules()
        for name, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
    for _, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        if isinstance(owner, type) and hasattr(vars(owner).get(attr), _MARK):
            found.append(f"{module}.{path}")
    return found


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        # (span id, parent id or -1, experiment id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.experiment = 0
        self.gflop_computed = 0.0
        self.max_dim = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns
        count_product = name == "operators.matmul"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_product:
                n = args[0].layout.total_dim
                self.gflop_computed += 8 * n**3 / 1e9
                self.max_dim = max(self.max_dim, n)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.experiment, name, start, end))

        setattr(traced, _MARK, name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        if find_wrappers():
            raise RuntimeError("another tracer is installed")
        try:
            for name, module, path in TARGETS:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                self._originals.append(original)
                for m in _package_modules():
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, binding, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """While installed: every module binding of a traced function that
        still holds the original."""
        return [
            f"{m.__name__}.{name}"
            for original in self._originals
            for m in _package_modules()
            for name, value in vars(m).items()
            if value is original
        ]

    # -- results ----------------------------------------------------------

    def _by_name(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds and self seconds.
        The self seconds also hold ``foliation.validate``: validation spans
        with a foliation span among their ancestors."""
        children = defaultdict(int)
        names = {}
        parents = {}
        for span_id, parent, _, name, start, end in self.spans:
            names[span_id] = name
            parents[span_id] = parent
            if parent >= 0:
                children[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for span_id, parent, _, name, start, end in self.spans:
            calls[name] += 1
            inclusive[name] += (end - start) / 1e9
            own[name] += (end - start - children[span_id]) / 1e9
            if name == "operators.validate":
                ancestor = parent
                while ancestor >= 0 and not names[ancestor].startswith("foliation."):
                    ancestor = parents[ancestor]
                if ancestor >= 0:
                    own["foliation.validate"] += (end - start - children[span_id]) / 1e9
        return calls, inclusive, own

    def counts(self) -> dict[str, float]:
        """The figures that must repeat exactly for one seed."""
        calls, _, _ = self._by_name()
        return {**{f"{name}.calls": calls[name] for name in sorted(calls)},
                "operators.max_dim": self.max_dim,
                "operators.matmul_gflop_computed": self.gflop_computed}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_pct``."""
        calls, inclusive, own = self._by_name()
        return {
            "operators.matmul_calls": calls["operators.matmul"],
            "operators.matmul_s": own["operators.matmul"],
            "operators.matmul_gflop_computed": self.gflop_computed,
            "operators.max_dim": self.max_dim,
            "operators.validate_calls": calls["operators.validate"],
            "operators.validate_s": own["operators.validate"],
            "operators.embed_calls": calls["operators.embed"],
            "operators.embed_s": own["operators.embed"],
            "gates.embedded_calls": calls["gates.embedded"],
            "gates.embedded_s": own["gates.embedded"],
            "engine.advance_calls": calls["engine.advance"],
            "engine.advance_s": inclusive["engine.advance"],
            "engine.functional_form_s": own["engine.functional_form"],
            "engine.conjugate_s": own["engine.advance"],
            "engine.sharpness_s": own["engine.sharpness"],
            "foliation.foliate_s": own["foliation.foliate"],
            "foliation.refine_s": own["foliation.refine"],
            "foliation.branch_sum_s": own["foliation.branch_sum"],
            "foliation.validate_s": own["foliation.validate"],
            "oracle.simulate_calls": calls["oracle.simulate"],
            "oracle.simulate_s": own["oracle.simulate"],
            "oracle.marginal_s": own["oracle.marginal"],
            "bell.run_bell_calls": calls["bell.run_bell"],
            "bell.build_s": own["bell.build"],
            "bell.self_s": own["bell.run_bell"] + own["bell.experiment"],
            "chsh.self_s": own["chsh.strategy"],
            "chsh.enumerate_s": own["chsh.enumerate"],
            "cli.self_s": own["cli.execute"],
        }

    def silent(self, workload: str) -> list[str]:
        """Span names mapped to ``workload`` that never fired."""
        fired = {span[3] for span in self.spans}
        return [name for name, on in FIRES_ON.items() if workload in on and name not in fired]

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, experiment, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
