"""Per-layer measurement for the traced runs.

Two sources feed the per-layer metrics:

* the spans the program already records (``repro.obs``) and the
  ``PerfCounters`` snapshot a flow returns in ``details["perf"]``;
* wrappers installed here, from outside ``src/``, around the public
  functions of layers that record no spans of their own.  Each wrapper
  replaces the name its caller looks up (``repro.mapping.structural``
  imports ``algebraic_script`` into its own namespace, so that binding is
  the one patched) and opens an ``obs`` span, so self time falls out of
  the same span tree as the program's own phases.

Every ``*_s`` metric built from a span is its self time
(:attr:`repro.obs.Span.self_seconds`), except the two wrappers whose
children are reported on their own lines: ``opt.algebraic_script_s``
and ``mapping.structural_decompose_s`` are inclusive wall time.
``bdd.build_s`` is the HYDE flows' global BDD build; the structural flow
builds only per-node BDDs, inside ``structural_decompose``.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (metric, unit, better) for every per-layer metric, in print order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("bdd.build_s", "s", "lower"),
    ("bdd.apply_calls", "count", "lower"),
    ("bdd.ite_calls", "count", "lower"),
    ("bdd.cofactor_calls", "count", "lower"),
    ("bdd.apply_hit_rate", "ratio", "higher"),
    ("bdd.nodes", "count", "lower"),
    ("fastpath.selects.cold", "count", "lower"),
    ("fastpath.selects.warm", "count", "lower"),
    ("fastpath.fallbacks.cold", "count", "lower"),
    ("fastpath.fallbacks.warm", "count", "lower"),
    ("fastpath.global_hits.cold", "count", "higher"),
    ("fastpath.global_hits.warm", "count", "higher"),
    ("fastpath.global_misses.cold", "count", "lower"),
    ("fastpath.global_misses.warm", "count", "lower"),
    ("fastpath.cold_start_entries", "count", "lower"),
    ("fastpath.cold_maps_checked", "count", "higher"),
    ("decompose.varpart_s", "s", "lower"),
    ("decompose.classes_s", "s", "lower"),
    ("decompose.encode_s", "s", "lower"),
    ("decompose.encode_draft_s", "s", "lower"),
    ("decompose.encode_varpart_s", "s", "lower"),
    ("decompose.column_sets_s", "s", "lower"),
    ("decompose.row_sets_s", "s", "lower"),
    ("decompose.chart_s", "s", "lower"),
    ("decompose.image_rebuild_s", "s", "lower"),
    ("decompose.recurse_s", "s", "lower"),
    ("decompose.recurse_calls", "count", "lower"),
    ("decompose.cofactor_enumerations", "count", "lower"),
    ("decompose.oracle_hits", "count", "higher"),
    ("decompose.oracle_misses", "count", "lower"),
    ("decompose.oracle_bypasses", "count", "lower"),
    ("hyper.groups", "count", "lower"),
    ("hyper.hyper_kept", "count", "higher"),
    ("mapping.cluster_s", "s", "lower"),
    ("mapping.splice_s", "s", "lower"),
    ("mapping.cleanup_s", "s", "lower"),
    ("mapping.cost_s", "s", "lower"),
    ("network.verify_s", "s", "lower"),
    ("mapping.structural_decompose_s", "s", "lower"),
    ("opt.algebraic_script_s", "s", "lower"),
    ("opt.extract_kernels_s", "s", "lower"),
    ("opt.factor_node_s", "s", "lower"),
    ("opt.extract_kernels_calls", "count", "lower"),
    ("opt.factor_node_calls", "count", "lower"),
    ("service.wire_ms", "ms", "lower"),
    ("service.map_ms", "ms", "lower"),
    ("service.sheds", "count", "lower"),
    ("service.deadline_rejects", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("store.lookups", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.hit_rate", "ratio", "higher"),
    ("store.rejected_rows", "count", "lower"),
    ("store.lock_retries", "count", "lower"),
    ("store.rows", "count", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.put_ms", "ms", "lower"),
    ("store.get_calls", "count", "lower"),
    ("store.put_calls", "count", "lower"),
    ("pool.acquire_ms", "ms", "lower"),
    ("pool.acquire_calls", "count", "lower"),
    ("pool.recycles", "count", "lower"),
    ("pool.creation_failures", "count", "lower"),
    ("mix.fresh_share", "ratio", "higher"),
    ("mix.repeat_share", "ratio", "higher"),
    ("mix.renamed_share", "ratio", "higher"),
    ("mix.fresh_count", "count", "higher"),
    ("mix.repeat_count", "count", "higher"),
    ("mix.renamed_count", "count", "higher"),
    ("fleet.blif_variants", "count", "lower"),
    ("fleet.blif_digests", "count", "higher"),
    ("obs.overhead_s", "ref_s", "lower"),
    ("obs.spans", "count", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("wall.map_cold_s", "s", "lower"),
    ("wall.map_warm_s", "s", "lower"),
    ("wall.req_p50_ms", "ms", "lower"),
    ("machine.kernel_us", "us", "lower"),
]

#: Span name -> per-layer metric built from its self time.
SELF_TIME = {
    "bdd_build": "bdd.build_s",
    "cluster": "mapping.cluster_s",
    "cleanup": "mapping.cleanup_s",
    "cost": "mapping.cost_s",
    "verify": "network.verify_s",
    "splice": "mapping.splice_s",
    "bench.splice": "mapping.splice_s",
    "recurse": "decompose.recurse_s",
    "step.varpart": "decompose.varpart_s",
    "step.classes": "decompose.classes_s",
    "step.encode": "decompose.encode_s",
    "encode.draft": "decompose.encode_draft_s",
    "encode.varpart": "decompose.encode_varpart_s",
    "encode.column_sets": "decompose.column_sets_s",
    "encode.row_sets": "decompose.row_sets_s",
    "encode.chart": "decompose.chart_s",
    "encode.image_rebuild": "decompose.image_rebuild_s",
    "opt.extract_kernels": "opt.extract_kernels_s",
    "opt.factor_node": "opt.factor_node_s",
}
#: Span name -> metric built from its inclusive wall time.
TOTAL_TIME = {
    "opt.algebraic_script": "opt.algebraic_script_s",
    "structural_decompose": "mapping.structural_decompose_s",
}
#: Span name -> metric counting how often it opened.
CALLS = {
    "recurse": "decompose.recurse_calls",
    "opt.extract_kernels": "opt.extract_kernels_calls",
    "opt.factor_node": "opt.factor_node_calls",
}
#: PerfCounters slot -> per-layer metric (summed over maps).
PERF_SLOTS = {
    "apply_calls": "bdd.apply_calls",
    "ite_calls": "bdd.ite_calls",
    "cofactor_calls": "bdd.cofactor_calls",
    "cofactor_enumerations": "decompose.cofactor_enumerations",
    "oracle_hits": "decompose.oracle_hits",
    "oracle_misses": "decompose.oracle_misses",
    "oracle_bypasses": "decompose.oracle_bypasses",
}
#: PerfCounters slot -> fastpath metric stem, split by cache state.
FASTPATH_SLOTS = {
    "fastpath_selects": "fastpath.selects",
    "fastpath_fallbacks": "fastpath.fallbacks",
    "fastpath_global_hits": "fastpath.global_hits",
    "fastpath_global_misses": "fastpath.global_misses",
}


class LayerTotals:
    """Per-layer sums for one process; thread-safe, merged across processes."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.spans: Dict[str, List[float]] = {}  # name -> [count, total, self]
        self._lock = threading.Lock()

    def add(self, metric: str, amount: float) -> None:
        with self._lock:
            self.values[metric] = self.values.get(metric, 0) + amount

    def add_spans(self, roots: Iterable) -> None:
        """Fold a span forest (``repro.obs.Span`` roots) into the totals."""
        rows: Dict[str, List[float]] = {}
        for root in roots:
            for span_, _ in root.walk():
                if span_.end is None or span_.end == span_.start:
                    continue  # open span or zero-length event
                row = rows.setdefault(span_.name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += span_.total_seconds
                row[2] += span_.self_seconds
        self._fold_rows(rows)

    def _fold_rows(self, rows: Dict[str, List[float]]) -> None:
        with self._lock:
            for name, (count, total, own) in rows.items():
                row = self.spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += count
                row[1] += total
                row[2] += own

    def add_perf(self, perf: Dict[str, object], state: str) -> None:
        """Fold a ``PerfCounters.snapshot()`` dict; ``state`` is cold/warm."""
        for slot, metric in PERF_SLOTS.items():
            self.add(metric, int(perf.get(slot) or 0))
        self.add("bdd.apply_hits", int(perf.get("apply_hits") or 0))
        for slot, stem in FASTPATH_SLOTS.items():
            self.add(f"{stem}.{state}", int(perf.get(slot) or 0))
        engine = perf.get("engine") or {}
        self.add("bdd.nodes", int(engine.get("num_nodes") or 0))

    def add_groups(self, group_infos: Iterable[Dict[str, object]]) -> None:
        for info in group_infos:
            self.add("hyper.groups", 1)
            self.add("hyper.hyper_kept", 1 if info.get("hyper") else 0)

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "values": dict(self.values),
                "spans": {k: list(v) for k, v in self.spans.items()},
            }

    def merge_dict(self, data: Dict[str, object]) -> None:
        for metric, amount in (data.get("values") or {}).items():
            self.add(metric, amount)
        self._fold_rows(data.get("spans") or {})

    def metrics(self) -> Dict[str, float]:
        """Every span- and counter-derived metric (zero where nothing ran)."""
        out: Dict[str, float] = {
            name: 0.0 for name, _, _ in PER_LAYER
        }
        with self._lock:
            out.update(self.values)
            for name, (count, total, own) in self.spans.items():
                if name in SELF_TIME:
                    out[SELF_TIME[name]] += own
                if name in TOTAL_TIME:
                    out[TOTAL_TIME[name]] += total
                if name in CALLS:
                    out[CALLS[name]] += count
            out["obs.spans"] = sum(row[0] for row in self.spans.values())
        hits = out.pop("bdd.apply_hits", 0)
        calls = out["bdd.apply_calls"]
        out["bdd.apply_hit_rate"] = hits / calls if calls else 0.0
        return out

    def table(self) -> List[Tuple[str, int, float, float]]:
        """(span name, count, total s, self s), by self time descending."""
        with self._lock:
            rows = [
                (name, int(c), t, s) for name, (c, t, s) in self.spans.items()
            ]
        return sorted(rows, key=lambda row: (-row[3], row[0]))


def _spanned(owner, attr: str, span_name: str, after: Optional[Callable] = None):
    """Replace ``owner.attr`` with a wrapper that opens ``span_name``."""
    from repro import obs

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with obs.span(span_name):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


def install_flow_wrappers(totals: LayerTotals) -> None:
    """Spans around the flow code that records none of its own.

    Covers the algebraic script and its two passes, the structural
    flow's per-node ``decompose_to_network`` call (whose private BDD
    manager's counters are folded into ``totals``), the structural
    flow's cleanup/verify/cost steps, and the HYDE splice.
    """
    import repro.mapping.hyde as hyde
    import repro.mapping.structural as structural
    import repro.opt.extract as extract

    _spanned(structural, "algebraic_script", "opt.algebraic_script")
    _spanned(extract, "extract_kernels", "opt.extract_kernels")
    _spanned(extract, "factor_node", "opt.factor_node")

    def fold_manager(args, _result) -> None:
        manager = args[0]
        perf = manager.perf.snapshot(manager)
        totals.add_perf(perf, cache_state())

    _spanned(
        structural, "decompose_to_network", "structural_decompose",
        after=fold_manager,
    )
    _spanned(structural, "cleanup_for_lut_count", "cleanup")
    _spanned(structural, "_check", "verify")
    _spanned(structural, "count_luts", "cost")
    _spanned(structural, "pack_xc3000", "cost")
    _spanned(hyde, "_splice", "bench.splice")


#: Which cache state the map running on this thread belongs to.
_STATE = threading.local()


def set_cache_state(state: str) -> None:
    """Mark the maps this thread runs next as ``cold`` or ``warm``."""
    _STATE.cache_state = state


def cache_state() -> str:
    return getattr(_STATE, "cache_state", "cold")


def timed_method(cls, attr: str, totals: LayerTotals, metric: str) -> None:
    """Accumulate wall milliseconds and calls of ``cls.attr`` into totals."""
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            totals.add(f"{metric}_ms", (time.perf_counter() - start) * 1e3)
            totals.add(f"{metric}_calls", 1)

    setattr(cls, attr, wrapper)


def install_thread_local_obs() -> None:
    """Give every thread its own active recorder.

    ``repro.obs`` keeps one process-wide active recorder, which the
    daemon's request threads would share.  The instrumentation sites
    look the functions up on the ``repro.obs`` package at call time, so
    rebinding them there routes each thread's spans to its own recorder.
    """
    from repro import obs

    local = threading.local()

    def active():
        return getattr(local, "recorder", None)

    def install(recorder):
        previous = active()
        local.recorder = recorder
        return previous

    def restore(previous) -> None:
        local.recorder = previous

    def span(name, manager=None, **attrs):
        recorder = active()
        if recorder is None:
            return obs.spans._NULL_HANDLE
        return recorder.span(name, manager=manager, **attrs)

    def event(name, **attrs):
        recorder = active()
        return None if recorder is None else recorder.event(name, **attrs)

    obs.active = active
    obs.install = install
    obs.restore = restore
    obs.span = span
    obs.event = event
