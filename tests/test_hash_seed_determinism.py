"""A mapped network must not depend on the interpreter's hash seed.

String hashing is salted per process (``PYTHONHASHSEED``), so any set or
dict iteration order over strings that reaches a tie-break would make
the mapping differ between runs.  Each seed therefore maps in its own
subprocess, and the BLIF has to come out byte-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# 9sym through hyde_map and the sop-structural circuits through
# map_structural: all three differed between hash seeds once.
_MAP_SCRIPT = """
import hashlib, json
from repro.circuits import build, windowed_network
from repro.mapping import hyde_map, map_structural
from repro.network import to_blif

digests = {"9sym": to_blif(hyde_map(build("9sym")).network)}
for i in (1, 2):
    net = windowed_network(f"sop{i}", 16, 8, window=8, seed=i)
    digests[f"sop{i}"] = to_blif(map_structural(net, k=5).network)
print(json.dumps(
    {name: hashlib.sha256(text.encode()).hexdigest()
     for name, text in digests.items()}
))
"""


def _digests(seed: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(seed)
    proc = subprocess.run(
        [sys.executable, "-c", _MAP_SCRIPT],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_mapped_blif_is_independent_of_the_hash_seed():
    runs = {seed: _digests(seed) for seed in (0, 1, 7)}
    for name in runs[0]:
        by_seed = {seed: digests[name] for seed, digests in runs.items()}
        assert len(set(by_seed.values())) == 1, (
            f"{name}: mapped BLIF differs between hash seeds: {by_seed}"
        )
