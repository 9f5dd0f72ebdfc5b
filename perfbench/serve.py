"""The serve_* workloads: a client process driving a served fleet.

Set-up (timed as ``setup_s``) builds the inputs, runs
``server.py pack`` (model build and warm-up pack records) and starts
``server.py serve`` (fleet start, frontend listening).  The measured
window then drives the frontend over ``connections`` sockets:

- serve_city360: a closed loop; one connection sends the next
  whole-city request through :class:`FrontendClient` as soon as its
  previous reply arrived.
- serve_ragged: an open loop; one asyncio sender posts every request
  of a seeded schedule at its due time, whatever is outstanding, and
  latency is timed from the due time.  Requests are encoded before
  the window; ``serving.api.request_encode_ms`` reports that cost.

After the window every answer is checked against the in-process
:class:`EmbeddingService` answer for the same request: bitwise for
whole cities, within the ragged-parity budget for padded shards.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import make_batch
from repro.serving import (AdmissionError, EmbedRequest, EmbeddingService,
                           FrontendClient, ServingUnavailable,
                           request_from_wire, request_to_wire,
                           response_from_wire, response_to_wire)

import inputs
from benchlib import (END_TO_END, PER_LAYER, SLO_SECONDS, MetricTable,
                      vm_hwm_mb)

HERE = Path(__file__).resolve().parent

#: Ragged-parity budget of the repository's padded-vs-unpadded suites.
PARITY_ATOL = 1e-8
#: How long the open loop waits for stragglers after its last send.
DRAIN_SECONDS = 60.0
#: Closed-loop requests before the window, so the worker has relowered
#: its pack specs (counted in ``setup_s``).
WARMUP_ROUNDS = 2


@dataclass
class Sent:
    """One request of the measured window and what came back."""

    key: int                    # pool index (city360) / schedule index
    request: EmbedRequest
    due: float
    sent: float = 0.0
    done: float | None = None
    response: object = None     # EmbedResponse
    error: str | None = None

    @property
    def latency(self) -> float | None:
        return None if self.done is None else self.done - self.due


# ----------------------------------------------------------------------
# Server process control
# ----------------------------------------------------------------------

def _server_cmd(phase: str, spec: dict) -> list[str]:
    return [sys.executable, str(HERE / "server.py"), phase, json.dumps(spec)]


def _server_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


class Server:
    """``server.py serve`` as a child process of the benchmark."""

    def __init__(self, root: Path, spec: dict, timeout: float = 170.0):
        self.proc = subprocess.Popen(
            _server_cmd("serve", spec), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_server_env(root))
        ready: dict = {}

        def read_ready():
            line = self.proc.stdout.readline()
            if line:
                ready.update(json.loads(line))

        reader = threading.Thread(target=read_ready, daemon=True)
        reader.start()
        reader.join(timeout)
        if not ready.get("ready"):
            self.stop()
            raise RuntimeError("serving process did not become ready")
        self.port = int(ready["port"])
        self.worker_pids = [p for p in ready["worker_pids"] if p]
        self.start_s = float(ready["start_s"])

    def peak_rss_mb(self) -> list[float]:
        """VmHWM of the frontend process, then of each worker."""
        return [vm_hwm_mb(pid) for pid in [self.proc.pid, *self.worker_pids]]

    def stop(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except OSError:   # already gone
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------

def closed_loop(port: int, pool: list[EmbedRequest],
                seconds: float = math.inf,
                rounds: int | None = None) -> list[Sent]:
    """One connection sends the next pool request as soon as the last
    one returned, for ``seconds`` or ``rounds`` requests."""
    sent: list[Sent] = []
    stop_at = time.perf_counter() + seconds
    with FrontendClient("127.0.0.1", port, timeout=120.0) as client:
        for i in itertools.count() if rounds is None else range(rounds):
            if time.perf_counter() >= stop_at:
                break
            k = i % len(pool)
            item = Sent(k, pool[k], due=time.perf_counter())
            item.sent = item.due
            try:
                item.response = client.embed(pool[k])
            except (AdmissionError, ServingUnavailable, OSError) as exc:
                item.error = f"{type(exc).__name__}: {exc}"
            item.done = time.perf_counter()
            sent.append(item)
    return sent


async def _open_loop(port: int, arrivals, connections: int) -> list[Sent]:
    loop = asyncio.get_running_loop()
    streams = [await asyncio.open_connection("127.0.0.1", port,
                                             limit=64 * 1024 * 1024)
               for _ in range(connections)]
    sent = [Sent(i, a.request, due=a.due) for i, a in enumerate(arrivals)]
    outstanding = set(range(len(sent)))
    finished = asyncio.Event()

    async def reader(stream):
        while outstanding:
            line = await stream.readline()
            if not line:
                return
            reply = json.loads(line)
            item = sent[reply["id"]]
            item.done = loop.time()
            if reply.get("ok"):
                item.response = response_from_wire(reply)
            else:
                item.error = f"{reply.get('error')}: {reply.get('message')}"
            outstanding.discard(item.key)
            if not outstanding:
                finished.set()

    # Encoded ahead, so a burst's shards leave 2 ms apart as scheduled
    # instead of one encode apart.
    lines = [json.dumps({**request_to_wire(item.request), "id": item.key})
             .encode("utf-8") + b"\n" for item in sent]
    readers = [asyncio.create_task(reader(r)) for r, _ in streams]
    start = loop.time() + 0.05
    for item, line in zip(sent, lines):
        item.due += start
        delay = item.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        item.sent = loop.time()
        writer = streams[item.key % connections][1]
        writer.write(line)
        await writer.drain()
    if outstanding:
        try:
            await asyncio.wait_for(finished.wait(), DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass
    for item in sent:
        if item.done is None and item.error is None:
            item.error = "no reply within the drain window"
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in streams:
        writer.close()
    return sent


def open_loop(port: int, arrivals, connections: int) -> list[Sent]:
    return asyncio.run(_open_loop(port, arrivals, connections))


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def _matches(got: np.ndarray, want64: np.ndarray, dtype, exact: bool) -> bool:
    """Bitwise (``exact``), or within the parity budget plus one unit in
    the last place of the requested dtype (a float32 answer rounds two
    float64 values that agree to 1e-8 independently)."""
    want_dtype = np.dtype(dtype) if dtype is not None else want64.dtype
    if got.shape != want64.shape or got.dtype != want_dtype:
        return False
    if exact:
        return bool(np.array_equal(got, want64.astype(want_dtype)))
    slack = PARITY_ATOL
    if want_dtype != want64.dtype:
        slack = slack + np.spacing(np.abs(want64).astype(want_dtype))
    return bool(np.all(np.abs(got - want64) <= slack))


def verify(spec: dict, sent: list[Sent], exact: bool) -> list[bool]:
    """Check each answer against the in-process service's answer."""
    reference = inputs.build_service(spec)
    if not exact:
        # Padded shards: one eager pass per request is the reference the
        # ragged-parity suites hold the batched paths to.
        reference = EmbeddingService(
            reference.model, n_max=reference.n_max,
            view_dims=reference.view_dims, view_names=reference.view_names,
            compiled=False, policy=inputs.POLICY)
    cache: dict[int, np.ndarray] = {}
    verdicts = []
    for item in sent:
        if item.response is None:
            verdicts.append(False)
            continue
        want = cache.get(item.key) if exact else None
        if want is None:
            req = item.request
            plain = EmbedRequest(req.views, region_subset=req.region_subset)
            want = cache[item.key] = reference.run([plain])[0].embeddings
        verdicts.append(_matches(item.response.embeddings, want,
                                 item.request.dtype, exact))
    return verdicts


# ----------------------------------------------------------------------
# Per-layer measurements made outside the window
# ----------------------------------------------------------------------

def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e3


def codec_times(answered: list[Sent], limit: int) -> dict[str, list[float]]:
    """Time the four wire codecs on this run's own requests/responses."""
    times = {k: [] for k in ("request_encode", "request_decode",
                             "response_encode", "response_decode")}
    for item in answered[:limit]:
        line, t = _timed(lambda r: json.dumps(request_to_wire(r)),
                         item.request)
        times["request_encode"].append(t)
        _, t = _timed(lambda s: request_from_wire(json.loads(s)), line)
        times["request_decode"].append(t)
        line, t = _timed(lambda r: json.dumps(response_to_wire(r)),
                         item.response)
        times["response_encode"].append(t)
        _, t = _timed(lambda s: response_from_wire(json.loads(s)), line)
        times["response_decode"].append(t)
    return times


def plan_times(spec: dict, requests: list[EmbedRequest],
               replays: int = 3) -> tuple[float, float]:
    """Replay and fused-gate time (ms) of one served batch shape."""
    service = inputs.build_service(spec)
    batch = make_batch([r.views for r in requests], n_max=service.n_max,
                       view_dims=service.view_dims)
    plan = service.plan_for(batch)
    plan.run(batch.matrices)
    runs = []
    for _ in range(replays):
        _, t = _timed(plan.run, batch.matrices)
        runs.append(t)
    profile = plan.profile(replays=1)
    gate = profile["ops"].get("F:fused_gate", {}).get("seconds", 0.0)
    return float(np.median(runs)), gate * 1e3


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def run(root: Path, work: Path, workload: str, seed: int, seconds: float,
        trace: bool, scale: str,
        rate: float | None = None) -> tuple[MetricTable, dict]:
    """One serving run; ``rate`` overrides the ragged offered rate."""
    spec = {"workload": workload, "seed": seed, "scale": scale,
            "work_dir": str(work), "rate": rate}
    sizes = inputs.serve_sizes(spec)
    ragged = workload == "serve_ragged"
    table = MetricTable(PER_LAYER if trace else END_TO_END)
    report: dict = {"connections": sizes.connections,
                    "workers": sizes.n_workers,
                    "plan_capacity": inputs.PLAN_CAPACITY}

    setup_start = time.perf_counter()
    if ragged:
        arrivals = inputs.ragged_schedule(spec, seed, seconds)
        report["offered_per_s"] = len(arrivals) / seconds
    else:
        pool = inputs.city_pool(spec)
    load_s = time.perf_counter() - setup_start
    packed = subprocess.run(_server_cmd("pack", spec), capture_output=True,
                            text=True, env=_server_env(root), timeout=170,
                            check=True)
    report["pack"] = json.loads(packed.stdout.strip().splitlines()[-1])
    server = Server(root, spec)
    try:
        if not ragged:
            closed_loop(server.port, pool, rounds=WARMUP_ROUNDS)
        setup_s = time.perf_counter() - setup_start
        report["fleet_start_s"] = server.start_s
        window = time.perf_counter()
        if ragged:
            sent = open_loop(server.port, arrivals, sizes.connections)
        else:
            sent = closed_loop(server.port, pool, seconds)
        window = time.perf_counter() - window
        rss = [vm_hwm_mb(), *server.peak_rss_mb()]
        report["rss_mb"] = rss
        with FrontendClient("127.0.0.1", server.port) as client:
            stats = client.stats()
    finally:
        server.stop()

    verdicts = verify(spec, sent, exact=not ragged)
    latencies = [s.latency * 1e3 for s in sent if s.latency is not None]
    answered = [s for s, ok in zip(sent, verdicts) if ok]
    failed = len(sent) - len(answered)
    fleet = stats["fleet"]
    first = min(s.sent for s in sent)
    last = max((s.done for s in sent if s.done is not None), default=first)
    report.update({
        "window_s": window,
        "answered_per_s": len(answered) / max(last - first, 1e-9),
        "errors": sorted({s.error for s in sent if s.error})[:5],
        "wrong_answers": sum(1 for s, ok in zip(sent, verdicts)
                             if s.response is not None and not ok),
        "frontend": {k: stats[k] for k in ("served", "shed", "rejected",
                                           "errors", "deadline_failures")},
        "fleet": {k: fleet[k] for k in ("crashes", "retries", "respawns",
                                        "record_epochs", "dispatched")},
    })
    structural_ok = (fleet["crashes"] == 0 and fleet["retries"] == 0
                     and fleet["respawns"] == 0)
    if not structural_ok:
        failed = max(failed, 1)

    if not trace:
        regions = sum(s.request.n_regions for s in answered)
        within = sum(1 for s in answered
                     if s.latency is not None and s.latency <= SLO_SECONDS)
        table.set("setup_s", setup_s)
        table.set_percentile("latency_p50_ms", latencies, 50)
        table.set("regions_per_s", regions / max(last - first, 1e-9),
                  len(answered))
        table.set("slo_attainment", within / len(sent), len(sent))
        table.set("ok_ratio", len(answered) / len(sent), len(sent))
        table.set("peak_rss_mb", max(rss), len(rss))
        return table, _finish(report, sent, failed, structural_ok)

    responses = [s.response for s in answered]
    events = [r.plan_event for r in responses]
    waits = [r.wait_seconds * 1e3 for r in responses]
    computes = [r.compute_seconds * 1e3 for r in responses]
    table.set("data.load_city_s", load_s)
    table.set("nn.plancache.records", events.count("record"), len(events))
    table.set("nn.plancache.hit_ratio",
              events.count("hit") / max(len(events), 1), len(events))
    table.set_percentile("serving.frontend.wait_p50_ms", waits, 50)
    table.set_percentile("serving.frontend.wait_p99_ms", waits, 99)
    for name in ("shed", "rejected", "deadline_failures"):
        table.set(f"serving.frontend.{name}", stats[name])
    if responses:
        table.set("serving.scheduler.batch_size",
                  np.mean([r.batch_size for r in responses]), len(responses))
        table.set("serving.scheduler.padding_waste",
                  np.mean([r.padding_waste for r in responses]),
                  len(responses))
    table.set_percentile("serving.service.compute_p50_ms", computes, 50)
    table.set_percentile("serving.service.compute_p99_ms", computes, 99)
    for name in ("crashes", "retries", "respawns", "record_epochs"):
        table.set(f"serving.fleet.{name}", fleet[name])
    if ragged:
        lags = [(s.sent - s.due) * 1e3 for s in sent]
        table.set_percentile("loadgen.lag_p99_ms", lags, 99)
    codec = codec_times(answered, limit=16 if ragged else 3)
    for name, values in codec.items():
        table.set_percentile(f"serving.api.{name}_ms", values, 50)
    for q in (50, 90, 99):
        table.set_percentile(f"trace.latency_p{q}_ms", latencies, q)
    # Layer accounting: client codec + frontend wait + service compute
    # against the client-observed latency, summed over requests (the
    # open loop encodes before the window, outside the latency).
    client_codec = np.median(codec["response_decode"] or [0.0])
    if not ragged:
        client_codec += np.median(codec["request_encode"] or [0.0])
    accounted = sum(client_codec + w + c for w, c in zip(waits, computes))
    observed = sum(s.latency * 1e3 for s in answered)
    table.set("trace.accounted_ratio", accounted / max(observed, 1e-9),
              len(answered))
    if ragged:
        bursts = [a.request for a in arrivals
                  if a.request.name.startswith("burst")]
        batch = bursts[:inputs.POLICY.max_batch] or [arrivals[0].request]
    else:
        batch = pool[:1]
    replay_ms, gate_ms = plan_times(spec, batch)
    table.set("nn.compile.infer_replay_ms", replay_ms, 3)
    table.set("nn.compile.infer_op.fused_gate_ms", gate_ms, 1)
    report["infer_batch_size"] = len(batch)
    return table, _finish(report, sent, failed, structural_ok)


def _finish(report: dict, sent: list[Sent], failed: int,
            structural_ok: bool) -> dict:
    report["attempted"] = len(sent)
    report["failed"] = failed
    report["correct"] = report["wrong_answers"] == 0 and structural_ok
    return report
