"""Map one circuit in a fresh interpreter: cold, then warm.

Usage (the benchmark runs this; the job is one JSON argument)::

    python3 perfbench/child.py '{"kind": "mcnc", "name": "duke2", ...}'

``kind`` is ``mcnc`` (a registered MCNC circuit through default
``hyde_map``) or ``sop`` (a seeded ``windowed_network`` through
``map_structural`` with the algebraic script).  The interpreter maps the
circuit cold, then a freshly built copy of it warm ("repeat").  Both
outputs are checked after the second map, so the checks cannot disturb
the timed cache states.  Both maps run under a :class:`refclock.Sampler`,
so each map's time is also reported in reference seconds.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import layers
import outcheck
import refclock


def _builder(job):
    if job["kind"] == "mcnc":
        from repro.circuits import build
        from repro.mapping import hyde_map

        return (lambda: build(job["name"])), hyde_map
    from repro.circuits.synthetic import windowed_network
    from repro.mapping.structural import map_structural

    inputs, outputs, window = job["shape"]

    def make():
        return windowed_network(
            job["name"], inputs, outputs, window=window,
            seed=job["circuit_seed"],
        )

    return make, map_structural


def main() -> int:
    job = json.loads(sys.argv[1])
    from repro import obs
    from repro.fastpath import global_memo_stats
    from repro.network import to_blif

    make, flow = _builder(job)
    net = make()
    ready = time.monotonic()

    totals = layers.LayerTotals()
    recorder = None
    if job.get("trace"):
        layers.install_flow_wrappers(totals)
        recorder = obs.TraceRecorder()
        obs.install(recorder)

    cold_start_entries = global_memo_stats()["entries"]
    runs = []
    with refclock.Sampler() as clock:
        for label in ("cold", "repeat"):
            subject = net if label == "cold" else make()
            state = "cold" if label == "cold" else "warm"
            layers.set_cache_state(state)
            start = time.perf_counter()
            try:
                with obs.span(f"bench.map.{label}"):
                    result = flow(subject)
            except Exception as exc:  # one failed map is a counted failure
                runs.append(
                    {"label": label, "error": f"{type(exc).__name__}: {exc}"}
                )
                continue
            runs.append(
                {"label": label, "span": (start, time.perf_counter()),
                 "result": result}
            )
            if recorder is not None:
                perf = result.details.get("perf")
                if perf:
                    totals.add_perf(perf, state)
                if label == "cold":
                    totals.add_groups(result.details.get("group_infos") or [])
    for run in runs:
        if "span" in run:
            run["seconds"] = clock.own_seconds(*run["span"])
            run["kernel_s"] = clock.kernel_seconds(*run["span"])
    # Peak RSS of the mapping alone: the checks below build BDDs of their own.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        obs.install(None)
        totals.add_spans(recorder.roots)
        totals.add("fastpath.cold_start_entries", cold_start_entries)
        totals.add("fastpath.cold_maps_checked", 1)
        obs.write_trace(
            job["trace_path"],
            recorder,
            meta={"flow": job["kind"], "circuit": net.name},
        )

    maps = []
    cold_luts = cold_depth = None
    for run in runs:
        record = {"label": run["label"]}
        maps.append(record)
        if "error" in run:
            record.update(ok=False, why=run["error"])
            continue
        result = run["result"]
        mapped = result.network
        source = make()
        if job.get("corrupt") and run["label"] == "cold":
            mapped = outcheck.corrupt_copy(
                mapped, job["check_seed"], source.name
            )
        why = outcheck.check_mapped(source, mapped, job["check_seed"])
        if run["label"] == "cold":
            cold_luts, cold_depth = result.lut_count, result.depth
            if cold_start_entries != 0:
                why = why or (
                    f"cold map started with {cold_start_entries} "
                    "fastpath memo entries"
                )
        elif (result.lut_count, result.depth) != (cold_luts, cold_depth):
            why = why or (
                f"warm map gave {result.lut_count} LUTs / depth "
                f"{result.depth}, cold gave {cold_luts} / {cold_depth}"
            )
        record.update(
            ok=why is None,
            why=why,
            seconds=run["seconds"],
            kernel_s=run["kernel_s"],
            luts=result.lut_count,
            depth=result.depth,
            digest=outcheck.digest(to_blif(result.network)),
        )

    print(
        json.dumps(
            {
                "circuit": net.name,
                "ready": ready,
                "rss_mb": rss_mb,
                "maps": maps,
                "layers": totals.to_dict() if recorder is not None else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
