"""Optimality-gap benchmark: hyde's cones scored against the exact oracle.

Maps each MCNC small-tier circuit with the default HYDE flow, extracts
every mapped output cone with at most :data:`repro.exact.EXACT_MAX_INPUTS`
inputs, and asks :func:`repro.exact.exact_map` for the provably minimal
LUT count of the same function — passing the heuristic's own cone as the
upper bound, which turns "is the heuristic already optimal?" into the
cheap direction of the search.  Every exact witness is BDD-verified
against its cone before it may contribute a number.

The score per circuit is ``exact_gap``: the ratio of summed heuristic
LUTs to summed exact LUTs over the scored cones (1.0 = the heuristic is
provably optimal on every scored cone; 1.25 = it spends 25% more LUTs
than necessary).  Cones the oracle cannot finish inside the per-cone
budget are counted in ``cones_budget`` and excluded from the ratio —
the gap column never contains an unproven number.

Results are *merged* into the committed ``BENCH_hyde.json`` (per-circuit
``exact_gap`` / ``cones_scored`` / ``cones_budget`` / ``cones_skipped``
columns) without disturbing the perf-regression record that lives there.

Usage::

    python benchmarks/bench_optimality_gap.py            # small tier
    python benchmarks/bench_optimality_gap.py --smoke    # 3 circuits, CI
    python benchmarks/bench_optimality_gap.py --circuits misex1 z4ml
    python benchmarks/bench_optimality_gap.py --no-merge # report only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.circuits import build
from repro.exact import (
    EXACT_MAX_INPUTS,
    ExactBudgetExceeded,
    ExactCache,
    cone_spec,
    exact_map,
)
from repro.mapping import hyde_map
from repro.mapping.lut import count_luts
from repro.network import check_equivalence, node_depths
from repro.network.transform import extract_cone

from benchmarks.bench_perf_regression import (  # noqa: F401 (re-exported)
    BENCH_FILE,
    GAP_COLUMNS,
    SMALL_TABLE1,
    SMOKE_SET,
)

#: Per-cone search budget.  Cones whose heuristic count is small are
#: decided almost instantly (the deepening never reaches a hard N);
#: dense wide cones may exhaust this and land in ``cones_budget``.
DEFAULT_CONE_BUDGET_SECONDS = 2.0


def score_circuit(
    name: str,
    k: int = 5,
    budget_seconds: float = DEFAULT_CONE_BUDGET_SECONDS,
    cache: Optional[ExactCache] = None,
) -> Dict[str, object]:
    """Map one circuit with hyde and score its cones against the oracle.

    Returns the per-circuit record with the aggregate ``exact_gap`` and
    the individual cone verdicts.  Raises ``AssertionError`` if any
    exact result exceeds the heuristic count (the oracle must never
    lose to the thing it bounds) or any witness fails equivalence.
    """
    net = build(name)
    result = hyde_map(net, k=k, verify="none", pack_clbs=False)
    mapped = result.network

    cones: List[Dict[str, object]] = []
    heuristic_total = 0
    exact_total = 0
    scored = budgeted = skipped = optimal = 0
    for out in mapped.output_names:
        cone = extract_cone(mapped, [out], name=f"{name}_{out}_cone")
        if len(cone.inputs) > EXACT_MAX_INPUTS:
            skipped += 1
            cones.append(
                {"output": out, "inputs": len(cone.inputs),
                 "verdict": "skipped_wide"}
            )
            continue
        heuristic_luts = count_luts(cone, k)
        depths = node_depths(cone)
        heuristic_depth = max(
            (depths[driver] for _, driver in cone.outputs), default=0
        )
        spec, support = cone_spec(cone, out)
        try:
            res = exact_map(
                spec,
                k,
                budget_seconds=budget_seconds,
                cache=cache,
                upper_bound=heuristic_luts,
                upper_witness=cone,
                upper_depth=heuristic_depth,
                input_names=support,
                output_name=out,
                name=f"{name}_{out}_exact",
            )
        except ExactBudgetExceeded:
            budgeted += 1
            cones.append(
                {"output": out, "inputs": len(cone.inputs),
                 "heuristic_luts": heuristic_luts,
                 "verdict": "budget_exceeded"}
            )
            continue
        assert res.luts <= heuristic_luts, (
            f"{name}/{out}: exact {res.luts} LUTs exceeds the heuristic "
            f"upper bound {heuristic_luts} — oracle bug"
        )
        # Every counted witness must be equivalent to the cone it
        # scores; pad the PIs support reduction dropped.
        padded = res.network.copy()
        for pi in cone.inputs:
            if not padded.has_signal(pi):
                padded.add_input(pi)
        bad = check_equivalence(cone, padded)
        assert bad is None, (
            f"{name}/{out}: exact witness differs on output {bad!r}"
        )
        scored += 1
        heuristic_total += heuristic_luts
        exact_total += res.luts
        if res.luts == heuristic_luts:
            optimal += 1
        cones.append(
            {
                "output": out,
                "inputs": len(cone.inputs),
                "heuristic_luts": heuristic_luts,
                "exact_luts": res.luts,
                "gap": (
                    round(heuristic_luts / res.luts, 4)
                    if res.luts
                    else 1.0
                ),
                "source": res.source,
                "verdict": "scored",
            }
        )
    return {
        "k": k,
        "exact_gap": (
            round(heuristic_total / exact_total, 4) if exact_total else 1.0
        ),
        "cones_scored": scored,
        "cones_budget": budgeted,
        "cones_skipped": skipped,
        "cones_optimal": optimal,
        "heuristic_luts_scored": heuristic_total,
        "exact_luts_scored": exact_total,
        "cones": cones,
    }


def run_suite(
    circuits: List[str],
    k: int = 5,
    budget_seconds: float = DEFAULT_CONE_BUDGET_SECONDS,
    cache_path: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """Score every circuit; one shared NPN cache serves the whole fleet."""
    records: Dict[str, Dict[str, object]] = {}
    with ExactCache(cache_path or ":memory:") as cache:
        for name in circuits:
            start = time.perf_counter()
            record = score_circuit(
                name, k=k, budget_seconds=budget_seconds, cache=cache
            )
            record["seconds"] = round(time.perf_counter() - start, 4)
            records[name] = record
            print(
                f"{name:8s} gap {record['exact_gap']:<7} "
                f"scored {record['cones_scored']:3d} "
                f"(optimal {record['cones_optimal']}) "
                f"budget {record['cones_budget']:2d} "
                f"skipped {record['cones_skipped']:2d}  "
                f"{record['seconds']:7.2f}s"
            )
        stats = cache.stats()
    print(
        f"exact cache: {stats['rows']} row(s), {stats['hits']} hit(s), "
        f"{stats['misses']} miss(es)"
    )
    return records


def merge_into_bench(
    records: Dict[str, Dict[str, object]],
    bench_file: Path = BENCH_FILE,
) -> None:
    """Fold the gap columns into the committed trajectory record.

    Per-cone verdicts stay out of the committed file (they are run
    artifacts, re-derivable); only the per-circuit aggregates land, so
    the perf-regression record keeps its shape.
    """
    from repro.runstate import atomic_write

    data = (
        json.loads(bench_file.read_text()) if bench_file.exists() else {}
    )
    circuits = data.setdefault("circuits", {})
    for name, record in records.items():
        entry = circuits.setdefault(name, {})
        for key in GAP_COLUMNS:
            entry[key] = record[key]
    with atomic_write(bench_file) as handle:
        handle.write(json.dumps(data, indent=2) + "\n")
    print(f"merged exact-gap columns into {bench_file}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Optimality-gap benchmark (exact oracle vs hyde)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run only the CI subset {SMOKE_SET}",
    )
    parser.add_argument(
        "--circuits", nargs="+", default=None,
        help="explicit circuit list (overrides the tier selection)",
    )
    parser.add_argument("-k", type=int, default=5, help="LUT input count")
    parser.add_argument(
        "--budget-seconds", type=float,
        default=DEFAULT_CONE_BUDGET_SECONDS,
        help="per-cone exact search budget",
    )
    parser.add_argument(
        "--cache", default=None, metavar="FILE",
        help="persistent NPN result cache (default: in-memory)",
    )
    parser.add_argument(
        "--no-merge", action="store_true",
        help="report only; do not touch BENCH_hyde.json",
    )
    args = parser.parse_args(argv)
    circuits = (
        args.circuits
        if args.circuits
        else (SMOKE_SET if args.smoke else SMALL_TABLE1)
    )
    records = run_suite(
        circuits, k=args.k, budget_seconds=args.budget_seconds,
        cache_path=args.cache,
    )
    for name, record in records.items():
        if record["exact_gap"] < 1.0:
            print(
                f"IMPOSSIBLE: {name} gap {record['exact_gap']} < 1.0",
                file=sys.stderr,
            )
            return 1
    if not args.no_merge:
        merge_into_bench(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
