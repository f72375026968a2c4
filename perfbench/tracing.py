"""Per-layer spans recorded from outside the package.

Each layer is one module of sparsetrees, timed by wrapping calls into its
public functions.  The modules bind names with `from .x import y`, so a
wrapper replaces the original in every loaded sparsetrees module that
holds it; `PhaseReducer.reduce` is a method, so patching the class covers
every caller.  Spans nest: a layer's self time is its span's duration
minus the time its child spans cover.  Spans are timed in process CPU
time, like the end-to-end metrics (see run.py).  `uninstall` puts every
original back, so untraced passes run the unmodified code.

`jacobi` sits on no CLI path and stays unmeasured.
"""

import sys
from time import process_time

# The op span around `cli.run`; its self time is everything the module
# layers do not cover: config parsing, validation, payload building.
CLI = "cli"

# Per-pass metrics a traced pass yields: span call counts and self times
# (seconds), plus the counters the spans add.
PASS_METRICS = (
    "phase.reduce.calls",
    "phase.reduce.self_s",
    "phase.reducers_built",
    "transfer.efgp_run.calls",
    "transfer.efgp_run.self_s",
    "trees.sample_omega_tree.self_s",
    "trees.make_gamma_tree.calls",
    "trees.make_gamma_tree.self_s",
    "spectral.mc_exponent.self_s",
    "spectral.coverage.self_s",
    "operators.assemble.self_s",
    "operators.eig_dense.calls",
    "operators.eig_dense.rows",
    "operators.eig_dense.self_s",
    "operators.eig_dense.flops_est",
    "operators.eig_tridiag.calls",
    "operators.eig_tridiag.rows",
    "operators.eig_tridiag.self_s",
    "decomposition.truncated_block.calls",
    "decomposition.truncated_block.self_s",
    "decomposition.verify.self_s",
    "reports.emit.self_s",
    "reports.bytes",
    "cli.self_s",
)


class Tracer:
    """Span and counter totals for the passes run while it is installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, after=None):
        """Wrap fn in a span.

        name is a string, or a function of the call's arguments that
        returns one; after(name, args, result) may add counters.
        """
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = process_time() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            label = name if isinstance(name, str) else name(args)
            self.calls[label] = self.calls.get(label, 0) + 1
            self.self_s[label] = self.self_s.get(label, 0.0) + elapsed - child
            if after is not None:
                after(label, args, result)
            return result

        return traced

    def _replace(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "sparsetrees":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from sparsetrees import decomposition, operators, reports, spectral, transfer, trees
        from sparsetrees.phase import PhaseReducer

        def eig_layer(args) -> str:
            if args[0].is_tridiagonal():
                return "operators.eig_tridiag"
            return "operators.eig_dense"

        def eig_work(label, args, result) -> None:
            rows = args[0].size
            self.count(label + ".rows", rows)
            if label == "operators.eig_dense":
                # Computed, not measured: the usual 4/3 n^3 for a
                # symmetric tridiagonal reduction.
                self.count("operators.eig_dense.flops_est", 4.0 / 3.0 * rows**3)

        def emitted(label, args, result) -> None:
            self.count("reports.bytes", len(result))

        spans = [
            (transfer.efgp_run, "transfer.efgp_run", None),
            (trees.sample_omega_tree, "trees.sample_omega_tree", None),
            (trees.make_gamma_tree, "trees.make_gamma_tree", None),
            (spectral.mc_exponent, "spectral.mc_exponent", None),
            (spectral.essential_spectrum_coverage, "spectral.coverage", None),
            (operators.assemble_delta, "operators.assemble", None),
            (operators.assemble_delta_tilde, "operators.assemble", None),
            (operators.eigenvalues_sym, eig_layer, eig_work),
            (decomposition.truncated_block, "decomposition.truncated_block", None),
            (decomposition.verify_decomposition, "decomposition.verify", None),
            (reports.emit, "reports.emit", emitted),
        ]
        for fn, name, after in spans:
            self._replace(fn, self.span(name, fn, after))

        reduce = PhaseReducer.__dict__["reduce"]
        self._patch_method(PhaseReducer, "reduce", self.span("phase.reduce", reduce))
        init = PhaseReducer.__dict__["__init__"]

        def counted_init(reducer, *args, **kwargs):
            self.count("phase.reducers_built")
            init(reducer, *args, **kwargs)

        self._patch_method(PhaseReducer, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_self_total(self) -> float:
        """Self time of every module layer, the op span excluded."""
        return sum(t for name, t in self.self_s.items() if name != CLI)

    def pass_metrics(self) -> dict[str, float]:
        """PASS_METRICS for what ran since the last reset; 0 for layers not used."""
        values = dict(self.counters)
        for name, calls in self.calls.items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = self.self_s[name]
        return {name: values.get(name, 0) for name in PASS_METRICS}
