"""The ``service-mix`` workload: a closed loop against ``repro serve``.

Two client threads, each with its own :class:`repro.service.ServiceClient`
(a new connection per request), send their next request only when the
previous one has answered.  Each client's request sequence comes from
the seed and is made of equal thirds:

* ``fresh``: a circuit the daemon has not seen (store writes, pool work);
* ``repeat``: the exact BLIF of a circuit this client already sent
  (store reads and revalidation);
* ``renamed``: a circuit this client already sent, under a new model
  name (the same cones; today's task keys hash the name, so they miss).

The kind is fixed by the generator, never by whether the request hit, so
a change that turns renamed misses into hits cannot make a per-kind
latency look worse.  Requests are plain ``submit_blif`` calls without
retries, so a refusal counts as a failure.  A :class:`refclock.Sampler`
in the main thread tracks the machine's speed while the clients run, and
each request's times are scaled by the samples from about a second
around it.  Every response is checked after the loop ends (so checking
takes no CPU from the daemon while it is measured): its BLIF must
implement the request, and a repeat must return byte for byte the BLIF
of that circuit's first response.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import outcheck
import refclock

KINDS = ("fresh", "repeat", "renamed")
CLIENTS = 2
JOBS = 2
#: (inputs, outputs, window) of every circuit a client sends.
POOL_SHAPE = (9, 5, 5)
#: A request's machine speed is the median of at least this many samples
#: around it (about a second's worth).
REQUEST_SAMPLES = 50


class Request:
    __slots__ = ("kind", "name", "spec", "blif")

    def __init__(self, kind: str, name: str, spec: Tuple, blif: str):
        self.kind = kind
        self.name = name
        self.spec = spec  # (base name, inputs, outputs, window, circuit seed)
        self.blif = blif


def _circuit(spec: Tuple, name: str):
    from repro.circuits.synthetic import windowed_network

    base, inputs, outputs, window, circuit_seed = spec
    net = windowed_network(base, inputs, outputs, window=window, seed=circuit_seed)
    net.name = name
    return net


def make_plan(seed: int, per_client: int) -> List[List[Request]]:
    """Each client's request sequence.

    Every client owns a fixed pool of ``per_client // 3`` circuits and
    sends each of them exactly once as fresh, once as a repeat and once
    renamed, so every seed maps the same work and LUTs and depth repeat
    exactly.  The seed shuffles the order (a circuit's fresh request
    always comes first) and names the renamed copies.
    """
    from repro.network import to_blif

    rng = random.Random(seed * 7919 + 1)
    plans = []
    for client in range(CLIENTS):
        pool = [
            (f"mix_c{client}_{i}", *POOL_SHAPE, 1000 * client + i)
            for i in range(per_client // 3)
        ]
        slots = [spec for spec in pool for _ in range(3)]
        rng.shuffle(slots)
        seen: Dict[str, List[str]] = {}
        plan = []
        for i, spec in enumerate(slots):
            later = seen.get(spec[0])
            if later is None:
                later = seen[spec[0]] = rng.sample(("repeat", "renamed"), 2)
                kind = "fresh"
            else:
                kind = later.pop()
            name = spec[0] if kind != "renamed" else f"{spec[0]}_s{seed}r{i}"
            plan.append(
                Request(kind, name, spec, to_blif(_circuit(spec, name)))
            )
        plans.append(plan)
    return plans


class Daemon:
    """One ``repro serve --jobs 2`` process with its own store and log."""

    def __init__(self, root: str, workdir: str, tag: str, traced: bool):
        self.info = os.path.join(workdir, f"{tag}.info.json")
        self.layers_path = os.path.join(workdir, f"{tag}.layers.json")
        self.trace_path = os.path.join(
            root, ".perfbench_work", "traces", f"{tag}.jsonl"
        )
        serve = [
            "serve",
            "--store", os.path.join(workdir, f"{tag}.store.db"),
            "--info", self.info,
            "--jobs", str(JOBS),
            "--quiet",
        ]
        if traced:
            argv = [
                sys.executable,
                os.path.join(root, "perfbench", "serve_traced.py"),
                self.layers_path,
                self.trace_path,
            ] + serve
        else:
            argv = [sys.executable, "-m", "repro.cli"] + serve
        self._log = open(os.path.join(workdir, f"{tag}.log"), "wb")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=child_env(root, workdir),
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = self._connect(deadline=start + 60.0)
        self.setup_s = time.monotonic() - start
        self.rss_mb: Optional[float] = None

    def _connect(self, deadline: float):
        from repro.service import ServiceClient, ServiceError

        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            if os.path.exists(self.info):
                try:
                    return ServiceClient.from_info(self.info, timeout=120.0)
                except (ServiceError, OSError, ValueError):
                    pass
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("mapping daemon did not come up")

    def stop(self) -> None:
        """Dismiss the daemon if it still runs, kill it if it will not go."""
        if self.proc.returncode is None:
            try:
                if self.proc.poll() is None and hasattr(self, "client"):
                    self.client.shutdown()
            except Exception:  # the daemon may already be gone
                pass
            deadline = time.monotonic() + 30.0
            while self.proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            if self.proc.poll() is None:
                # Its own session: the kill reaches the pool workers too.
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self._log.close()

    def stop_and_measure(self) -> None:
        """Dismiss the daemon and record the peak RSS of it and its pool."""
        self.client.shutdown()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self._log.close()


def child_env(root: str, workdir: str) -> Dict[str, str]:
    """Environment for every child: the checkout's ``src``, no pinned hash seed."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = workdir
    return env


def _client_loop(client, plan: List[Request], out: List[Dict[str, object]]) -> None:
    from repro.service import ServiceError

    for request in plan:
        start = time.perf_counter()
        record: Dict[str, object] = {"request": request, "start": start}
        try:
            record["response"] = client.submit_blif(
                request.blif, bench_kind=request.kind
            )
        except ServiceError as exc:
            record["error"] = f"{exc.code}: {exc}"
        except Exception as exc:  # a broken reply fails this request only
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency"] = time.perf_counter() - start
        out.append(record)


def run_mix(
    root: str,
    workdir: str,
    seed: int,
    per_client: int,
    setups: int,
    traced: bool,
    corrupt: bool,
) -> Dict[str, object]:
    """Start daemons, run the closed loop once, check every response."""
    from repro.network import parse_blif
    from repro.service import ServiceClient

    # Every unit starts from empty stores of its own.
    workdir = tempfile.mkdtemp(dir=workdir)
    tag = f"mix{seed}{'t' if traced else 'u'}"
    plans = make_plan(seed, per_client)
    setup_times = []
    for i in range(setups - 1):
        spare = Daemon(root, workdir, f"{tag}-spare{i}", traced=False)
        setup_times.append(spare.setup_s)
        spare.stop()
    daemon = Daemon(root, workdir, tag, traced=traced)
    setup_times.append(daemon.setup_s)
    try:
        records: List[List[Dict[str, object]]] = [[] for _ in plans]
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(
                    ServiceClient(daemon.client.host, daemon.client.port,
                                  timeout=120.0),
                    plan,
                    records[i],
                ),
            )
            for i, plan in enumerate(plans)
        ]
        with refclock.Sampler() as clock:
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            end = time.perf_counter()
        wall = end - start
        kernel_s = clock.kernel_seconds(start, end)
        for client_records in records:
            for record in client_records:
                record["kernel_s"] = clock.kernel_seconds(
                    record["start"], record["start"] + record["latency"],
                    least=REQUEST_SAMPLES,
                )
        stats = daemon.client.stats()
        daemon.stop_and_measure()
    finally:
        daemon.stop()

    layer_data = None
    if traced:
        with open(daemon.layers_path, encoding="utf-8") as handle:
            layer_data = json.load(handle)

    first_blif: Dict[str, str] = {}
    results = []
    corrupted = False
    for client_records in records:
        for record in client_records:
            request: Request = record["request"]
            row = {
                "kind": request.kind,
                "latency": record["latency"],
                "kernel_s": record["kernel_s"],
                "ok": False,
            }
            results.append(row)
            if "error" in record:
                row["why"] = record["error"]
                continue
            response = record["response"]
            try:
                mapped = parse_blif(response["blif"])
            except ValueError as exc:
                row["why"] = f"unparseable response: {exc}"
                continue
            source = _circuit(request.spec, request.name)
            if corrupt and not corrupted:
                mapped = outcheck.corrupt_copy(mapped, seed, source.name)
                corrupted = True
            why = outcheck.check_mapped(source, mapped, seed)
            if request.kind == "fresh":
                first_blif[request.name] = response["blif"]
            elif request.kind == "repeat" and why is None:
                if response["blif"] != first_blif.get(request.name):
                    why = "repeat response differs from the first response"
            row.update(
                ok=why is None,
                why=why,
                service_s=float(response["service_seconds"]),
                luts=int(response["luts"]),
                depth=int(response["depth"]),
            )
    return {
        "setup_times": setup_times,
        "wall": wall,
        "kernel_s": kernel_s,
        "rows": results,
        "stats": stats,
        "rss_mb": daemon.rss_mb,
        "layers": layer_data,
    }
