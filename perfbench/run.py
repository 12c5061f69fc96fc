"""The HYDE mapper's benchmark: one command, three workloads, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mcnc-fleet --seed 1 --seconds 30 --trace 0

Workloads (inputs are generated from ``--seed``):

* ``mcnc-fleet``: the 16 small and medium MCNC circuits through default
  ``hyde_map`` (jobs=1, verify=bdd), each in a fresh interpreter: a cold
  map, then a warm map of a freshly built copy.
* ``sop-structural``: ``windowed_network(f"sop{i}", 16, 8, window=8,
  seed=i)`` for i = 1, 2 through ``map_structural`` with the algebraic
  script, mapped the same two ways in a fresh interpreter each.
* ``service-mix``: two closed-loop clients against ``repro serve --jobs 2``
  with a mix of fresh, repeat and renamed requests (see
  ``service_mix.py``).

The circuits of every workload are the same for every seed, so LUTs and
depth repeat exactly from run to run and the runs of one workload measure
the same work; random circuits of this size differ by about 8% in LUTs
and time, which would swamp the bounds.  The seed sets the order in which
circuits run (and, on service-mix, the interleaving of request kinds and
the renamed copies' names) and draws the vectors of the output check.

A run repeats its workload's unit (one fleet pass, one batch of SOP
circuits, one request mix) for about ``--seconds``: at least once, and
again while another unit of the same length would end closer to
``--seconds`` than stopping does.  It reports medians over the units.
With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric, from one untraced
and one traced unit (their difference is ``obs.overhead_s``), and the
traced unit's spans are written as JSONL under ``.perfbench_work/traces/``.

Times are measured while :class:`refclock.Sampler` tracks the speed of
the shared machine, and every end-to-end time is reported in *reference
seconds* (``ref_s``, ``ref_ms``): the wall time scaled by the speed of a
fixed reference kernel sampled during the same region (see
``refclock.py``).  The machine's speed drifts by up to 2x within minutes,
which moves raw wall times of identical work by more than any useful
bound: on a 2-vCPU KVM guest, repeated maps of duke2 and of an SOP
circuit spread by 30-39% (interquartile range over median) in wall time
over four minutes, and by 7-11% in reference time.  ``setup_s`` is
plain wall time.  The raw wall times are printed next to them and, with
``--trace 1``, reported as the ``wall.*`` per-layer metrics together with
the sampled kernel time ``machine.kernel_us``.

End-to-end metrics are defined on every workload.  Where the name comes
from the service, a batch workload reports its own counterpart:

================  ============================  ===========================
metric            mcnc-fleet / sop-structural   service-mix
================  ============================  ===========================
setup_s           median interpreter start +    median daemon start until
                  imports + circuit build       the endpoint answers a ping
map_cold_s        summed cold map wall time     summed daemon map time of
                                                fresh requests
map_warm_s        summed warm map wall time     summed daemon map time of
                                                repeat requests
luts, depth       sums over the cold maps       sums over all responses
peak_rss_mb       largest mapping process       the daemon and its pool
ok_frac           1 - failed / attempted maps   1 - failed / attempted
req_per_s         maps per (reference) second   requests per (reference)
                  of map time                   second
req_p50_ms/p90    over every map call           over every request
fresh_p50_ms      cold maps                     fresh requests
repeat_p50_ms     warm maps                     repeat requests
renamed_p50_ms    warm maps (see below)         renamed requests
================  ============================  ===========================

A batch flow keeps no store and no cache keyed by circuit name, so a
renamed copy maps exactly as a repeat does; the batch workloads report
their warm maps as both ``repeat_p50_ms`` and ``renamed_p50_ms``.
``ok_frac`` stands in for the failure fraction because a bounded
end-to-end metric must never read 0; ``failed``/``attempted`` in the
result line and the per-layer ``fail_frac`` carry the fraction itself.
A failed request counts as taking the whole run for the percentiles.

``--short`` runs a small version of each workload (the self-test uses
it) and ``--corrupt`` flips one LUT bit in a copy of the first mapped
output before it is checked, to show the check can fail.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
import refclock
import service_mix

#: The 16 small and medium MCNC circuits (paper QoR: 435 LUTs, depth sum 47).
FLEET = [
    "5xp1", "9sym", "alu2", "b9", "clip", "f51m", "misex1", "rd73", "rd84",
    "sao2", "vg2", "z4ml", "count", "duke2", "misex2", "apex7",
]
SHORT_FLEET = ["misex1", "rd73", "z4ml"]
#: SOP circuits per unit, and their shape (inputs, outputs, window).
SOP_CIRCUITS = 2
SOP_SHAPE = (16, 8, 8)
SHORT_SOP_SHAPE = (10, 4, 7)
#: Requests per client per unit, and daemon starts per unit.
MIX_PER_CLIENT = 150
SHORT_MIX_PER_CLIENT = 6
MIX_SETUPS = 5

#: (metric, unit) of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s"),
    ("map_cold_s", "ref_s"),
    ("map_warm_s", "ref_s"),
    ("luts", "count"),
    ("depth", "count"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("req_per_s", "1/ref_s"),
    ("req_p50_ms", "ref_ms"),
    ("req_p90_ms", "ref_ms"),
    ("fresh_p50_ms", "ref_ms"),
    ("repeat_p50_ms", "ref_ms"),
    ("renamed_p50_ms", "ref_ms"),
]
WORKLOADS = ("mcnc-fleet", "sop-structural", "service-mix")
#: Longest a single child interpreter may take.
CHILD_TIMEOUT = 150.0


def percentile(values: List[float], share: float) -> float:
    """Percentile, interpolated between the closest ranks (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (position - below) * (ordered[above] - ordered[below])


class Outcome:
    """What one unit of a workload produced."""

    def __init__(self) -> None:
        #: map_cold_s, map_warm_s, luts, depth and peak_rss_mb of the unit.
        self.metrics: Dict[str, float] = {}
        #: Latency in reference seconds of every operation, and of each by kind.
        self.ops: List[float] = []
        self.latency: Dict[str, List[float]] = {k: [] for k in service_mix.KINDS}
        #: The same as wall times: map_cold_s, map_warm_s and every operation.
        self.wall: Dict[str, float] = {}
        self.wall_ops: List[float] = []
        #: Sampled reference-kernel times (one per map, or one per mix).
        self.kernel_s: List[float] = []
        #: Operations completed, and the reference seconds they took.
        self.completed = 0
        self.busy_s = 0.0
        self.setups: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.layers: Optional[layers.LayerTotals] = None
        self.extra: Dict[str, float] = {}


# --------------------------------------------------------------------- #
# Batch workloads: one fresh interpreter per circuit
# --------------------------------------------------------------------- #


def batch_jobs(workload: str, seed: int, short: bool) -> List[Dict[str, object]]:
    rng = random.Random(seed)
    if workload == "mcnc-fleet":
        names = list(SHORT_FLEET if short else FLEET)
        rng.shuffle(names)
        return [
            {"kind": "mcnc", "name": name, "check_seed": seed} for name in names
        ]
    shape = SHORT_SOP_SHAPE if short else SOP_SHAPE
    jobs = [
        {
            "kind": "sop",
            "name": f"sop{i}",
            "shape": shape,
            "circuit_seed": i,
            "check_seed": seed,
        }
        for i in range(1, 2 if short else SOP_CIRCUITS + 1)
    ]
    rng.shuffle(jobs)
    return jobs


def run_child(root: str, workdir: str, job: Dict[str, object]) -> Dict[str, object]:
    env = service_mix.child_env(root, workdir)
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "child.py"),
             json.dumps(job)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{job['name']}: timed out"}
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"{job['name']}: child exited {proc.returncode}"}
    report["setup_s"] = report["ready"] - start
    return report


def run_batch_unit(
    root: str, workdir: str, jobs: List[Dict[str, object]], trace: bool,
    corrupt: bool,
) -> Outcome:
    outcome = Outcome()
    if trace:
        outcome.layers = layers.LayerTotals()
    luts = depth = 0
    rss = 0.0
    wall = {"fresh": [], "repeat": []}
    for index, job in enumerate(jobs):
        job = dict(job, trace=trace, corrupt=corrupt and index == 0)
        if trace:
            job["trace_path"] = os.path.join(
                root, ".perfbench_work", "traces",
                f"s{job['check_seed']}-{job['name']}.jsonl",
            )
        report = run_child(root, workdir, job)
        if "error" in report:
            outcome.attempted += 2
            outcome.failed += 2
            outcome.failures.append(report["error"])
            continue
        outcome.setups.append(report["setup_s"])
        rss = max(rss, report["rss_mb"])
        if outcome.layers is not None and report.get("layers"):
            outcome.layers.merge_dict(report["layers"])
        for record in report["maps"]:
            outcome.attempted += 1
            if not record["ok"]:
                outcome.failed += 1
                outcome.failures.append(
                    f"{report['circuit']} {record['label']}: {record['why']}"
                )
            if "seconds" not in record:
                continue
            outcome.kernel_s.append(record["kernel_s"])
            ref_seconds = refclock.to_ref(record["seconds"], record["kernel_s"])
            if record["label"] == "cold":
                outcome.latency["fresh"].append(ref_seconds)
                wall["fresh"].append(record["seconds"])
                luts += record["luts"]
                depth += record["depth"]
                outcome.digests[report["circuit"]] = record["digest"]
            else:
                outcome.latency["repeat"].append(ref_seconds)
                outcome.latency["renamed"].append(ref_seconds)
                wall["repeat"].append(record["seconds"])
    outcome.ops = outcome.latency["fresh"] + outcome.latency["repeat"]
    outcome.wall_ops = wall["fresh"] + wall["repeat"]
    outcome.busy_s = sum(outcome.ops)
    outcome.completed = len(outcome.ops)
    outcome.wall = {
        "map_cold_s": sum(wall["fresh"]),
        "map_warm_s": sum(wall["repeat"]),
    }
    outcome.metrics = {
        "map_cold_s": sum(outcome.latency["fresh"]),
        "map_warm_s": sum(outcome.latency["repeat"]),
        "luts": luts,
        "depth": depth,
        "peak_rss_mb": rss,
    }
    return outcome


# --------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------- #


def run_mix_unit(
    root: str, workdir: str, seed: int, short: bool, trace: bool, corrupt: bool
) -> Outcome:
    per_client = SHORT_MIX_PER_CLIENT if short else MIX_PER_CLIENT
    result = service_mix.run_mix(
        root, workdir, seed, per_client, MIX_SETUPS if not short else 2,
        traced=trace, corrupt=corrupt,
    )
    outcome = Outcome()
    outcome.setups = list(result["setup_times"])
    rows = result["rows"]
    wall = result["wall"]
    # Wall seconds -> reference seconds: each request at the machine speed
    # sampled around it, the mix as a whole at its median speed.
    outcome.kernel_s.append(result["kernel_s"])
    outcome.busy_s = refclock.to_ref(wall, result["kernel_s"])
    luts = depth = 0
    wall_s = {"fresh": 0.0, "repeat": 0.0, "renamed": 0.0}
    ref_s = dict(wall_s)
    wire = []
    served = []
    for row in rows:
        outcome.attempted += 1
        # A failed request misses any latency limit: count it as the run.
        seconds = row["latency"] if row["ok"] else wall
        kernel_s = row["kernel_s"] if row["ok"] else result["kernel_s"]
        scale = refclock.to_ref(1.0, kernel_s)
        outcome.latency[row["kind"]].append(seconds * scale)
        outcome.ops.append(seconds * scale)
        outcome.wall_ops.append(seconds)
        if not row["ok"]:
            outcome.failed += 1
            outcome.failures.append(f"{row['kind']}: {row.get('why')}")
        if "service_s" not in row:
            continue
        luts += row["luts"]
        depth += row["depth"]
        served.append(row["service_s"])
        wire.append(row["latency"] - row["service_s"])
        wall_s[row["kind"]] += row["service_s"]
        ref_s[row["kind"]] += row["service_s"] * scale
    outcome.completed = outcome.attempted - outcome.failed
    outcome.wall = {"map_cold_s": wall_s["fresh"], "map_warm_s": wall_s["repeat"]}
    outcome.metrics = {
        "map_cold_s": ref_s["fresh"],
        "map_warm_s": ref_s["repeat"],
        "luts": luts,
        "depth": depth,
        "peak_rss_mb": result["rss_mb"] or 0.0,
    }
    if trace:
        totals = layers.LayerTotals()
        totals.merge_dict(result["layers"] or {})
        outcome.layers = totals
        stats = result["stats"]
        session = stats["store"]["session"]
        lookups = session["lookups"]
        pool = stats.get("pool") or {}
        total = len(rows) or 1
        outcome.extra = {
            "service.wire_ms": 1e3 * percentile(wire, 0.5),
            "service.map_ms": 1e3 * percentile(served, 0.5),
            "service.sheds": stats["resilience"]["sheds"],
            "service.deadline_rejects": stats["resilience"]["deadline_rejects"],
            "service.errors": stats["errors"],
            "store.lookups": lookups,
            "store.hits": session["hits"],
            "store.hit_rate": session["hits"] / lookups if lookups else 0.0,
            "store.rejected_rows": session["rejected_rows"],
            "store.lock_retries": session["lock_retries"],
            "store.rows": stats["store"]["rows"],
            "pool.recycles": pool.get("recycles", 0),
            "pool.creation_failures": pool.get("creation_failures", 0),
        }
        for kind in service_mix.KINDS:
            count = sum(1 for row in rows if row["kind"] == kind)
            outcome.extra[f"mix.{kind}_count"] = count
            outcome.extra[f"mix.{kind}_share"] = count / total
    return outcome


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run_unit(args, root: str, workdir: str, trace: bool) -> Outcome:
    if args.workload == "service-mix":
        return run_mix_unit(
            root, workdir, args.seed, args.short, trace, args.corrupt
        )
    jobs = batch_jobs(args.workload, args.seed, args.short)
    return run_batch_unit(root, workdir, jobs, trace, args.corrupt)


def end_to_end(units: List[Outcome]) -> Dict[str, float]:
    """Medians of the per-unit sums; percentiles over every pooled sample."""
    metrics = {
        name: statistics.median(unit.metrics[name] for unit in units)
        for name in units[0].metrics
    }
    metrics["setup_s"] = statistics.median(
        s for unit in units for s in unit.setups
    )
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    metrics["ok_frac"] = (attempted - failed) / attempted if attempted else 0.0
    busy = sum(unit.busy_s for unit in units)
    metrics["req_per_s"] = sum(u.completed for u in units) / busy if busy else 0.0
    ops = [s for unit in units for s in unit.ops]
    metrics["req_p50_ms"] = 1e3 * percentile(ops, 0.5)
    metrics["req_p90_ms"] = 1e3 * percentile(ops, 0.9)
    for kind in service_mix.KINDS:
        values = [s for unit in units for s in unit.latency[kind]]
        metrics[f"{kind}_p50_ms"] = 1e3 * percentile(values, 0.5)
    return {name: metrics[name] for name, _ in END_TO_END}


def wall_clock(units: List[Outcome]) -> Dict[str, float]:
    """The plain wall times behind the reference times, and the machine speed."""
    return {
        "wall.map_cold_s": statistics.median(u.wall["map_cold_s"] for u in units),
        "wall.map_warm_s": statistics.median(u.wall["map_warm_s"] for u in units),
        "wall.req_p50_ms": 1e3 * percentile(
            [s for unit in units for s in unit.wall_ops], 0.5
        ),
        "machine.kernel_us": 1e6 * statistics.median(
            [s for unit in units for s in unit.kernel_s] or [0.0]
        ),
    }


def per_layer(untraced: Outcome, traced: Outcome) -> Dict[str, float]:
    metrics = traced.layers.metrics() if traced.layers else {}
    for name, _, _ in layers.PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(traced.extra)
    metrics.update(wall_clock([untraced]))
    metrics["obs.overhead_s"] = traced.busy_s - untraced.busy_s
    circuits = set(untraced.digests) & set(traced.digests)
    metrics["fleet.blif_digests"] = 2 * len(circuits)
    metrics["fleet.blif_variants"] = sum(
        1 for c in circuits if untraced.digests[c] != traced.digests[c]
    )
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    metrics["fail_frac"] = failed / attempted if attempted else 1.0
    return {name: metrics[name] for name, _, _ in layers.PER_LAYER}


def print_report(args, units: List[Outcome], metrics, units_of) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)}")
    print(f"  samples: ops={sum(len(u.ops) for u in units)}, " + ", ".join(
        f"{kind}={sum(len(u.latency[kind]) for u in units)}"
        for kind in service_mix.KINDS
    ) + f", setups={sum(len(u.setups) for u in units)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units_of[name]}")
    if not args.trace:
        for name, value in wall_clock(units).items():
            print(f"  ({name:32s} {value:14.6g})")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print(f"  fail_frac {failed}/{attempted}")
    for line in [f for u in units for f in u.failures][:20]:
        print(f"  FAILED {line}")


def print_layer_table(traced: Outcome, overhead: float) -> None:
    print(f"  per-layer self time (traced unit), obs.overhead_s = {overhead:.4f}")
    print(f"  {'span':28s} {'calls':>8s} {'total s':>10s} {'self s':>10s}")
    for name, count, total, own in traced.layers.table():
        print(f"  {name:28s} {count:8d} {total:10.4f} {own:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The "build" of a pure-Python program: byte-compile it once, outside
    # every measured region.
    compileall.compile_dir(src, quiet=1)

    workdir = os.path.join(
        root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(root, ".perfbench_work", "traces"), exist_ok=True)
    try:
        units: List[Outcome] = []
        if args.trace:
            untraced = run_unit(args, root, workdir, trace=False)
            traced = run_unit(args, root, workdir, trace=True)
            units = [untraced, traced]
            metrics = per_layer(untraced, traced)
            units_of = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            start = time.monotonic()
            while not units or (
                (time.monotonic() - start) * (1 + 0.5 / len(units))
                < args.seconds
            ):
                units.append(run_unit(args, root, workdir, trace=False))
            metrics = end_to_end(units)
            units_of = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_report(args, units, metrics, units_of)
    if args.trace:
        print_layer_table(units[1], metrics["obs.overhead_s"])
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units_of[name]}
            for name in units_of
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
