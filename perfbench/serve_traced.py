"""``repro serve`` with the benchmark's per-layer wrappers installed.

Usage (the traced service-mix run starts the daemon this way)::

    python3 perfbench/serve_traced.py LAYERS.json TRACE.jsonl serve --store ...

Everything after the two paths is handed to ``repro.cli.main``
unchanged.  Before serving, each request thread gets its own trace
recorder, ``ResultStore.get``/``put`` and ``WarmPool.acquire`` are
timed, and the daemon's HYDE flow entry is wrapped so every request's
span tree and merged ``PerfCounters`` land in one :class:`LayerTotals`.
A request field ``bench_kind`` (which the daemon itself ignores) says
whether the map counts as cold (``fresh``) or warm.  When the daemon
stops, the totals go to ``LAYERS.json`` and the spans to ``TRACE.jsonl``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading

import layers


def main() -> int:
    layers_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from repro import cli, obs
    from repro.service import ResultStore, WarmPool
    from repro.service import daemon

    totals = layers.LayerTotals()
    layers.install_thread_local_obs()
    layers.install_flow_wrappers(totals)
    layers.timed_method(ResultStore, "get", totals, "store.get")
    layers.timed_method(ResultStore, "put", totals, "store.put")
    layers.timed_method(WarmPool, "acquire", totals, "pool.acquire")

    process_map = daemon.MappingService._process_map

    @functools.wraps(process_map)
    def kind_aware(self, request):
        fresh = request.get("bench_kind") == "fresh"
        layers.set_cache_state("cold" if fresh else "warm")
        yield from process_map(self, request)

    daemon.MappingService._process_map = kind_aware

    roots = []
    roots_lock = threading.Lock()
    hyde_map = daemon._FLOWS["hyde"]

    @functools.wraps(hyde_map)
    def traced_hyde(net, **kwargs):
        recorder = obs.TraceRecorder()
        previous = obs.install(recorder)
        try:
            with obs.span("bench.request", circuit=net.name):
                result = hyde_map(net, **kwargs)
        finally:
            obs.restore(previous)
        state = layers.cache_state()
        totals.add_spans(recorder.roots)
        totals.add_perf(result.details.get("perf") or {}, state)
        if state == "cold":
            totals.add_groups(result.details.get("group_infos") or [])
        with roots_lock:
            roots.extend(recorder.roots)
        return result

    daemon._FLOWS["hyde"] = traced_hyde

    code = cli.main(argv)
    merged = obs.TraceRecorder()
    merged.roots = roots
    obs.write_trace(trace_path, merged, meta={"flow": "service-mix"})
    with open(layers_path, "w", encoding="utf-8") as handle:
        json.dump(totals.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
