"""Service smoke gate: daemon up, cold miss, warm hit, store clean.

The CI-shaped end-to-end check for the mapping service:

1. start ``repro serve`` as a real subprocess (own signal handling,
   own store file, OS-assigned port published via ``--info``);
2. submit misex1 — every group task must MISS (cold store) and the
   LUT count must match a direct in-process ``hyde_map`` run;
3. submit misex1 again — every group task must HIT, and the mapped
   network must be byte-identical to the first response;
4. submit misex1 under a new model name — the store is keyed on cone
   content, not circuit names, so every group task must HIT again and
   the response must be equivalent to the renamed source;
5. validate the store file (row hashes, key shapes, fragment parses);
6. dismiss the daemon with the ``shutdown`` op and require exit 0.

Any failure exits non-zero with the daemon's captured output attached,
so the CI log alone is enough to see what broke.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.circuits import build  # noqa: E402
from repro.mapping import hyde_map  # noqa: E402
from repro.network import check_equivalence, parse_blif, to_blif  # noqa: E402
from repro.service import ResultStore, ServiceClient  # noqa: E402


def fail(proc: subprocess.Popen, message: str) -> None:
    if proc.poll() is None:
        proc.kill()
    out, err = proc.communicate(timeout=10)
    print(f"FAIL: {message}", file=sys.stderr)
    if out:
        print(f"--- daemon stdout ---\n{out.decode(errors='replace')}",
              file=sys.stderr)
    if err:
        print(f"--- daemon stderr ---\n{err.decode(errors='replace')}",
              file=sys.stderr)
    sys.exit(1)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro_service_smoke_")
    store_path = os.path.join(workdir, "cache.db")
    info_path = os.path.join(workdir, "service.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store", store_path, "--info", info_path, "--jobs", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )

    deadline = time.time() + 30
    while not os.path.exists(info_path):
        if proc.poll() is not None:
            fail(proc, f"daemon exited early ({proc.returncode})")
        if time.time() > deadline:
            fail(proc, "daemon never published its endpoint file")
        time.sleep(0.05)
    client = ServiceClient.from_info(info_path, timeout=120.0)

    blif = to_blif(build("misex1"))
    expected_luts = hyde_map(build("misex1"), 5, verify="bdd").lut_count

    first = client.submit_blif(blif)
    if first["luts"] != expected_luts:
        fail(proc, f"cold LUTs {first['luts']} != direct {expected_luts}")
    if first["cache"]["hits"] != 0 or not first["fragments"]:
        fail(proc, f"cold submission did not miss cleanly: {first['cache']}")
    print(
        f"cold: {first['luts']} LUTs in {first['service_seconds']:.3f}s, "
        f"{first['cache']['misses']} group task(s) computed"
    )

    second = client.submit_blif(blif)
    if second["cache"]["misses"] != 0 or second["cache"]["hits"] != len(
        first["fragments"]
    ):
        fail(proc, f"warm submission did not hit: {second['cache']}")
    if second["blif"] != first["blif"]:
        fail(proc, "warm response is not byte-identical to cold response")
    print(
        f"warm: {second['luts']} LUTs in {second['service_seconds']:.3f}s, "
        f"all {second['cache']['hits']} group task(s) from cache"
    )

    renamed = build("misex1")
    renamed.name = "misex1_renamed"
    third = client.submit_blif(to_blif(renamed))
    if third["cache"]["misses"] != 0 or third["cache"]["hits"] != len(
        first["fragments"]
    ):
        fail(proc, f"renamed submission did not hit: {third['cache']}")
    bad = check_equivalence(renamed, parse_blif(third["blif"]))
    if bad is not None:
        fail(proc, f"renamed response differs from its source at {bad!r}")
    print(
        f"renamed: {third['luts']} LUTs in {third['service_seconds']:.3f}s, "
        f"all {third['cache']['hits']} group task(s) from cache"
    )

    stats = client.stats()
    if stats["errors"]:
        fail(proc, f"daemon reported request errors: {stats}")

    client.shutdown()
    code = proc.wait(timeout=30)
    if code != 0:
        fail(proc, f"daemon exit code {code} after shutdown op")

    with ResultStore(store_path) as store:
        problems = store.validate()
        if problems:
            fail(proc, f"store validation: {problems}")
        rows = store.stats()["current_rows"]
    print(f"store: {rows} row(s), validation clean")
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
