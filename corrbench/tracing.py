"""Span recording for the traced run, and the per-layer metrics derived from it.

Each traced function is rebound in every ``corrdyn`` module (and in every
dict a module holds, such as ``checks.CHECKS``) where the original object
appears: ``from .hilbert import embed_matrix`` copies the binding, so
patching ``corrdyn.hilbert`` alone would miss most calls.  The library is
not edited.  Private helpers (``_product_over_blocks``,
``_bare_partition_sum``, ``_HierarchyPlan``) are deliberately not traced;
their cost shows as self time of their public callers.

Spans (label, parent, start, end, work) live in flat in-memory arrays and
are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _partition_count(args, out) -> float:
    return len(out)


def _embed_bytes(args, out) -> float:
    """Computed bytes of the embedded complex128 matrix: 16 * side**2."""
    return 16.0 * out.shape[0] ** 2


def _commutator_flops(args, out) -> float:
    """Computed real flops of two complex side-N products: 16 * N**3."""
    return 16.0 * args[0].shape[0] ** 3


# (module, attribute path, work function); the label is "<module>.<path>"
TRACED = (
    ("combinatorics", "set_partitions", _partition_count),
    ("combinatorics", "cluster_partitions", _partition_count),
    ("combinatorics", "nonempty_subsets", None),
    ("combinatorics", "mobius_weight", None),
    ("combinatorics", "block_labels", None),
    ("hilbert", "embed_matrix", _embed_bytes),
    ("hilbert", "partial_trace_matrix", None),
    ("hilbert", "trace_norm", None),
    ("hamiltonian", "commutator_generator", _commutator_flops),
    ("hamiltonian", "hamiltonian_matrix", None),
    ("hamiltonian", "block_propagator", None),
    ("hamiltonian", "block_hamiltonian", None),
    ("hamiltonian", "evolve_blocks", None),
    ("hamiltonian", "evolve_group", None),
    ("hamiltonian", "EvolutionCache.eigensystem", None),
    ("hamiltonian", "EvolutionCache.propagator", None),
    ("correlations", "density_to_correlations", None),
    ("correlations", "correlations_to_density", None),
    ("correlations", "cluster_correlation_matrix", None),
    ("correlations", "clusterize", None),
    ("correlations", "von_neumann_rhs", None),
    ("correlations", "generalized_rhs", None),
    ("correlations", "integrate_hierarchy", None),
    ("bbgky", "cumulant_apply", None),
    ("bbgky", "marginal_from_clusters", None),
    ("bbgky", "marginals_from_correlations", None),
    ("bbgky", "solve_bbgky_series", None),
    ("bbgky", "bbgky_rhs", None),
    ("bbgky", "solve_series_time_derivative", None),
    ("bbgky", "chaos_cluster_solution", None),
    ("bbgky", "cumulant_norm_bound_check", None),
    ("checks", "run_checks", None),
    ("config", "load_scenario", None),
    ("report", "render_jsonl", None),
    ("report", "render_table", None),
)

CHECK_NAMES = (
    "mobius_roundtrip",
    "hierarchy_residual",
    "cumulant_zero_time",
    "cumulant_free",
    "bbgky_residual",
    "definition_consistency",
    "solution_vs_integrator",
    "norm_bound",
    "symmetry_preservation",
)

EIGH = "numpy.linalg.eigh"
EIGENSYSTEM = "hamiltonian.EvolutionCache.eigensystem"
PARTITIONERS = ("combinatorics.set_partitions", "combinatorics.cluster_partitions")


class SpanRecorder:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._open: list[int] = []
        self._undo: list = []

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _begin(self, label_id: int) -> int:
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.work.append(0.0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, label: str, fn, work=None):
        label_id = self._label_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(label_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if work is not None:
                self.work[idx] = work(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        """Record one span around the block, used for the op root."""
        idx = self._begin(self._label_id(label))
        try:
            yield
        finally:
            self._finish(idx)

    def _rebind(self, orig, new) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "corrdyn" and not name.startswith("corrdyn."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append(functools.partial(setattr, mod, key, orig))
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = new
                            self._undo.append(functools.partial(val.__setitem__, k2, orig))

    def install(self) -> None:
        for module, path, work in TRACED:
            mod = importlib.import_module(f"corrdyn.{module}")
            label = f"{module}.{path}"
            if "." in path:  # a method: rebind it on its class
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self.wrap(label, orig, work))
                self._undo.append(functools.partial(setattr, cls, meth, orig))
            else:
                orig = getattr(mod, path)
                self._rebind(orig, self.wrap(label, orig, work))
        oracles = importlib.import_module("corrdyn.oracles")
        for key, val in list(vars(oracles).items()):
            if inspect.isfunction(val) and val.__module__ == oracles.__name__ and not key.startswith("_"):
                self._rebind(val, self.wrap(f"oracles.{key}", val))
        checks = importlib.import_module("corrdyn.checks")
        for name, fn in list(checks.CHECKS.items()):
            self._rebind(fn, self.wrap(f"checks.{name}", fn))
        orig_eigh = np.linalg.eigh
        np.linalg.eigh = self.wrap(EIGH, orig_eigh)
        self._undo.append(functools.partial(setattr, np.linalg, "eigh", orig_eigh))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            work=np.frombuffer(self.work),
        )


def layer_metrics(rec: SpanRecorder, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op call counts, self times (span minus child spans) and computed
    work for each corrdyn module, derived from the recorded spans."""
    label = np.frombuffer(rec.label, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    work = np.frombuffer(rec.work)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    parent_label = np.where(nested, label[np.maximum(parent, 0)], -1)
    ids = {name: i for i, name in enumerate(rec.labels)}

    def mask(*names: str) -> np.ndarray:
        return np.isin(label, [ids[n] for n in names if n in ids])

    def prefix(layer: str) -> np.ndarray:
        return mask(*(n for n in rec.labels if n.startswith(layer + ".")))

    def calls(*names: str) -> tuple[float, str]:
        return float(mask(*names).sum()) / ops, "count"

    def self_s(m: np.ndarray) -> tuple[float, str]:
        return float(self_time[m].sum()) / ops, "s"

    def incl_s(*names: str) -> tuple[float, str]:
        return float(dur[mask(*names)].sum()) / ops, "s"

    def total(m: np.ndarray, unit: str) -> tuple[float, str]:
        return float(work[m].sum()) / ops, unit

    outermost_partitions = mask(*PARTITIONERS) & ~np.isin(parent_label, [ids[n] for n in PARTITIONERS if n in ids])
    eigh_in_cache = mask(EIGH) & (parent_label == ids.get(EIGENSYSTEM, -2))

    out = {
        "combinatorics.partitions": total(outermost_partitions, "count"),
        "combinatorics.self_s": self_s(prefix("combinatorics")),
        "hilbert.embed_calls": calls("hilbert.embed_matrix"),
        "hilbert.embed_self_s": self_s(mask("hilbert.embed_matrix")),
        "hilbert.embed_bytes": total(mask("hilbert.embed_matrix"), "B"),
        "hilbert.partial_trace_calls": calls("hilbert.partial_trace_matrix"),
        "hilbert.partial_trace_self_s": self_s(mask("hilbert.partial_trace_matrix")),
        "hilbert.trace_norm_calls": calls("hilbert.trace_norm"),
        "hilbert.trace_norm_self_s": self_s(mask("hilbert.trace_norm")),
        "hamiltonian.commutator_calls": calls("hamiltonian.commutator_generator"),
        "hamiltonian.commutator_self_s": self_s(mask("hamiltonian.commutator_generator")),
        "hamiltonian.commutator_flops": total(mask("hamiltonian.commutator_generator"), "flop"),
        "hamiltonian.eigh_calls": (float(eigh_in_cache.sum()) / ops, "count"),
        "hamiltonian.eigensystem_calls": calls(EIGENSYSTEM),
        "hamiltonian.block_propagator_calls": calls("hamiltonian.block_propagator"),
        "hamiltonian.block_propagator_self_s": self_s(mask("hamiltonian.block_propagator")),
        "hamiltonian.hamiltonian_matrix_self_s": self_s(mask("hamiltonian.hamiltonian_matrix")),
        "correlations.density_to_correlations_self_s": self_s(mask("correlations.density_to_correlations")),
        "correlations.correlations_to_density_self_s": self_s(mask("correlations.correlations_to_density")),
        "correlations.cluster_correlation_calls": calls("correlations.cluster_correlation_matrix"),
        "correlations.cluster_correlation_self_s": self_s(mask("correlations.cluster_correlation_matrix")),
        "correlations.integrate_self_s": self_s(mask("correlations.integrate_hierarchy")),
        "correlations.von_neumann_rhs_self_s": self_s(mask("correlations.von_neumann_rhs")),
        "bbgky.cumulant_calls": calls("bbgky.cumulant_apply"),
        "bbgky.cumulant_self_s": self_s(mask("bbgky.cumulant_apply")),
        "bbgky.marginal_self_s": self_s(mask("bbgky.marginal_from_clusters", "bbgky.marginals_from_correlations")),
        "bbgky.series_calls": calls("bbgky.solve_bbgky_series"),
        "bbgky.series_self_s": self_s(mask("bbgky.solve_bbgky_series")),
        "bbgky.chain_rhs_self_s": self_s(mask("bbgky.bbgky_rhs", "bbgky.solve_series_time_derivative")),
        "oracles.self_s": self_s(prefix("oracles")),
    }
    for name in CHECK_NAMES:
        out[f"checks.{name}_s"] = incl_s(f"checks.{name}")
    out["config.load_s"] = incl_s("config.load_scenario")
    out["report.render_s"] = incl_s("report.render_jsonl", "report.render_table")
    out["trace.spans"] = (float(len(dur)) / ops, "count")
    return out
