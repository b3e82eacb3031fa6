"""``serve_mix``: an open loop of ``design_run`` jobs against ``repro serve``.

One generator process sends requests at a fixed rate over at most
``CONNECTIONS`` keep-alive connections to a daemon subprocess with one
in-thread worker, so generator and daemon fit two cores.  The mix is
mostly new specs (engine executions and cache writes), some repeats of
specs an earlier daemon settled into the same cache directory (disk-cache
reads) and a few concurrent duplicates (joined to the in-flight job).
Latency runs from each request's scheduled send time.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .report import Outcome
from .stats import mean, median, percentile, run_open_loop, tail_percentile
from .tracing import Tracer

#: Requests per second, fixed and well below the daemon's cold capacity.
RATE = 12.0
CONNECTIONS = 2
#: A reply later than this after its scheduled send time is a miss.
LATENCY_LIMIT_S = 0.5
#: Share of requests that repeat a spec settled before the loop by the
#: first set-up daemon, so that the measured daemon reads it from disk.
SHARE_CACHED = 0.25
SHARE_DUPLICATE = 0.05
#: Distinct specs whose served value is compared with a direct ``api.run``.
DIRECT_CHECKS = 16
#: Daemon start-up time varies by a quarter between runs; five starts
#: steady its median.
SETUP_REPEATS = 5
POLL_INTERVAL_S = 0.2
#: Longest wait for a daemon to announce its port and answer ``/healthz``.
READY_TIMEOUT_S = 60.0

#: A real two-step co-design on a 16-finger design with a short schedule.
BASE_PARAMS = {
    "grid": 16,
    "initial_temp": 1.0,
    "final_temp": 0.4,
    "cooling": 0.5,
    "moves_per_temp": 2,
}
FINGERS = 16


def job_params(design_seed: int, tiers: int, name: str = "serve-mix") -> dict:
    spec = {
        "name": name,
        "finger_count": FINGERS,
        "quadrant_count": 4,
        "rows_per_quadrant": 2,
        "tier_count": tiers,
    }
    return {**BASE_PARAMS, "spec": spec, "design_seed": design_seed}


@dataclass(frozen=True)
class Planned:
    """One scheduled request: when, what, and why it is in the mix."""

    offset: float
    params: dict
    seed: int
    kind: str  # "new", "cached" or "duplicate"

    @property
    def key(self) -> str:
        return json.dumps([self.params, self.seed], sort_keys=True)


def plan_requests(seed: int, seconds: float) -> List[Planned]:
    """The request schedule of one run, derived from *seed* alone.

    Every ``cached`` request carries a spec of its own, which
    :func:`settle_cached` runs into the cache before the loop, so each is
    one disk-cache read and none is answered from the daemon's registry.
    """
    rng = random.Random(seed)
    plan: List[Planned] = []
    for slot in range(int(RATE * seconds)):
        offset = slot / RATE
        draw = rng.random()
        if draw < SHARE_DUPLICATE and plan and plan[-1].kind == "new":
            prior = plan[-1]
            plan.append(Planned(prior.offset, prior.params, prior.seed, "duplicate"))
            continue
        params = job_params(rng.randrange(1 << 30), rng.choice((1, 4)))
        kind = "cached" if draw < SHARE_DUPLICATE + SHARE_CACHED else "new"
        plan.append(Planned(offset, params, rng.randrange(1 << 30), kind))
    return plan


class Daemon:
    """One ``repro serve`` subprocess on the run's cache directory."""

    def __init__(self, out_dir: Path, name: str, src: Path) -> None:
        self.cache_dir = out_dir / "cache"
        self.log_path = out_dir / f"{name}.log"
        self.src = src
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--workers", "1", "--cache-dir", str(self.cache_dir),
                    "--drain-deadline", "10",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(encoding="utf-8").splitlines():
                if '"serve.listening"' in line:
                    self.port = int(json.loads(line)["port"])
                    return
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early; see {self.log_path}")
            time.sleep(0.01)
        raise RuntimeError("daemon did not announce a port")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def _call(connection, method: str, path: str, payload=None):
    body = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    if path == "/metrics":
        return response.status, raw.decode()
    return response.status, json.loads(raw) if raw else {}


def _submit(connection, params: dict, seed: int):
    return _call(
        connection, "POST", "/v1/jobs",
        {"schema": 1, "kind": "design_run", "params": params, "seed": seed,
         "wait": True, "timeout": 60},
    )


def _ready(daemon: Daemon, attempt: int) -> None:
    """Wait for ``/healthz`` 200, then complete one warm request.

    Each set-up *attempt* warms with a spec of its own, so the warm
    request always executes rather than reading an earlier attempt's
    result from the shared cache.
    """
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        connection = daemon.connect()
        try:
            status, _ = _call(connection, "GET", "/healthz")
        except OSError:
            status = None
        if status == 200:
            break
        connection.close()
        if time.monotonic() > deadline:
            raise RuntimeError("daemon never answered /healthz with 200")
        time.sleep(0.01)
    try:
        status, body = _submit(connection, job_params(attempt, 1, name="perfbench-warm"), attempt)
    finally:
        connection.close()
    if status != 200 or body.get("status") != "done" or body.get("cached"):
        raise RuntimeError(f"warm request failed: {status} {body}")


def settle_cached(daemon: Daemon, plan: List[Planned]) -> None:
    """Run the plan's ``cached`` specs, so that their results are on disk."""
    connection = daemon.connect()
    try:
        for request in plan:
            if request.kind == "cached":
                status, body = _submit(connection, request.params, request.seed)
                if status != 200 or body.get("status") != "done":
                    raise RuntimeError(f"settling a cached spec failed: {status} {body}")
    finally:
        connection.close()


class _Poller:
    """Samples queue depth and worker utilization while the loop runs."""

    def __init__(self, daemon: Daemon) -> None:
        self.daemon = daemon
        self.pending: List[int] = []
        self.utilization: List[float] = []
        #: HTTP requests the poller made, which the daemon counts too.
        self.reads = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(30)

    def _run(self) -> None:
        connection = self.daemon.connect()
        while not self._stop.wait(POLL_INTERVAL_S):
            _, health = _call(connection, "GET", "/healthz")
            self.pending.append(health["queue"]["pending"])
            _, text = _call(connection, "GET", "/metrics")
            self.reads += 2
            for line in text.splitlines():
                if line.startswith("repro_serve_worker_utilization "):
                    self.utilization.append(float(line.split()[1]))
        connection.close()


def run_serve_mix(seed: int, seconds: float, trace: bool, out_dir: Path, src: Path) -> Outcome:
    plan = plan_requests(seed, seconds)
    setups = []
    for attempt in range(SETUP_REPEATS):
        daemon = Daemon(out_dir, f"daemon{attempt}", src)
        started = time.perf_counter()
        try:
            daemon.start()
            _ready(daemon, attempt)
            setups.append(time.perf_counter() - started)
            if attempt == 0:
                settle_cached(daemon, plan)
        except BaseException:
            daemon.stop()
            raise
        if attempt < SETUP_REPEATS - 1:
            daemon.stop()
    try:
        return _measure(daemon, plan, seed, median(setups), trace, out_dir)
    finally:
        daemon.stop()


def _measure(
    daemon: Daemon, plan: List[Planned], seed: int, setup: float, trace: bool, out_dir: Path
) -> Outcome:
    lanes = [daemon.connect() for _ in range(CONNECTIONS)]
    control = daemon.connect()
    _, health_before = _call(control, "GET", "/healthz")

    def send(lane: int, index: int):
        request = plan[index]
        try:
            return _submit(lanes[lane], request.params, request.seed)
        except (OSError, http.client.HTTPException):
            lanes[lane].close()
            lanes[lane] = daemon.connect()
            raise

    if trace:
        with _Poller(daemon) as poller:
            samples = run_open_loop([p.offset for p in plan], send, CONNECTIONS, join_timeout=150)
    else:
        poller = None
        samples = run_open_loop([p.offset for p in plan], send, CONNECTIONS, join_timeout=150)
    _, health_after = _call(control, "GET", "/healthz")
    for connection in lanes + [control]:
        connection.close()

    outcome = Outcome()
    done: Dict[str, dict] = {}
    answered = 0
    for sample in samples:
        request = plan[sample.index]
        result = sample.outcome
        if isinstance(result, Exception):
            outcome.fail(f"request {sample.index}: {result!r}")
            continue
        status, body = result
        if status != 200 or body.get("status") != "done":
            outcome.fail(f"request {sample.index}: HTTP {status} {body.get('status')}")
            continue
        if done.setdefault(request.key, body["value"]) != body["value"]:
            outcome.fail(f"request {sample.index}: {request.kind} differs from its first answer")
            continue
        if request.kind == "cached" and not body.get("cached"):
            outcome.fail(f"request {sample.index}: a settled spec was executed again")
            continue
        answered += 1
        outcome.succeed()
        if sample.latency > LATENCY_LIMIT_S:
            outcome.late += 1

    # The daemon counts every job it dispatches as executed, disk-cache
    # reads included; only an answer from its registry (dedup) is not.
    distinct = {p.key for p in plan}
    executed = health_after["counters"]["executed"] - health_before["counters"]["executed"]
    if executed != len(distinct):
        outcome.fail(f"daemon executed {executed} jobs for {len(distinct)} distinct specs")

    eq3 = _direct_checks(plan, done, outcome, seed)
    latencies = [s.latency for s in samples]
    tail = tail_percentile(len(latencies))
    specs = _answered_specs(plan, done)
    stacked = [p for p in specs if p.params["spec"]["tier_count"] > 1]
    finished = max(s.done for s in samples) - min(s.due for s in samples)
    outcome.note(
        f"{len(samples)} requests at {RATE:g}/s over {CONNECTIONS} connections; "
        f"tail = p{tail:g}; {outcome.late} over {LATENCY_LIMIT_S} s; "
        f"failed: {outcome.failed}"
    )
    outcome.metrics.update(
        setup_s=setup,
        codesign_s_p50=median(latencies),
        codesign_s_tail=percentile(latencies, tail),
        fingers_per_s=FINGERS * answered / finished,
        ir_drop_ratio=mean([1.0 - done[p.key]["ir_improvement"] for p in specs], 1.0),
        omega_ratio=mean([1.0 - done[p.key]["bonding_improvement"] for p in stacked], 1.0),
        density_after=mean([done[p.key]["density_after_exchange"] for p in specs], 0.0),
        eq3_cost=mean(eq3, 1.0),
        ok_frac=outcome.ok_frac(),
    )
    if trace:
        _serve_layers(outcome, samples, health_before, health_after, poller, out_dir)
    return outcome


def _answered_specs(plan: List[Planned], done: Dict[str, dict]) -> List[Planned]:
    """The distinct specs of the plan that were answered, in plan order."""
    return [p for p in plan if p.kind != "duplicate" and p.key in done]


def _direct_checks(plan, done, outcome: Outcome, seed: int) -> List[float]:
    """Compare a sample of served values with direct ``api.run`` calls.

    Returns the Eq.-3 cost ratios (after / before) of the sampled runs.
    """
    import repro.api as api
    from repro.circuits import CircuitSpec, build_design
    from repro.exchange import SAParams

    specs = _answered_specs(plan, done)
    sample = random.Random(seed).sample(specs, min(DIRECT_CHECKS, len(specs)))
    ratios = []
    for request in sample:
        params = request.params
        design = build_design(CircuitSpec(**params["spec"]), seed=params["design_seed"])
        result = api.run(
            design,
            sa_params=SAParams(**{k: params[k] for k in
                                 ("initial_temp", "final_temp", "cooling", "moves_per_temp")}),
            grid=params["grid"],
            seed=request.seed,
        )
        flow = result.result
        stats = flow.exchange.stats
        expected = {
            "density_after_assignment": flow.density_after_assignment,
            "density_after_exchange": flow.density_after_exchange,
            "ir_improvement": flow.ir_improvement,
            "bonding_improvement": flow.bonding_improvement,
            "sa": {"proposed": stats.proposed, "accepted": stats.accepted,
                   "best_cost": stats.best_cost},
        }
        served = done[request.key]
        if any(served.get(key) != value for key, value in expected.items()):
            outcome.fail(f"served value differs from direct api.run for seed {request.seed}")
        breakdown = flow.exchange
        ratios.append(breakdown.cost_breakdown_after["total"] / breakdown.cost_breakdown_before["total"])
    return ratios


def _serve_layers(outcome, samples, before, after, poller, out_dir: Path) -> None:
    def delta(name):
        return after["counters"][name] - before["counters"][name]

    tracer = Tracer()
    for sample in samples:
        op = str(sample.index)
        parent = tracer.record("client.request", sample.due, sample.done, op=op)
        tracer.record("client.late", sample.due, sample.sent, parent=parent, op=op)
        tracer.record("serve.reply", sample.sent, sample.done, parent=parent, op=op)
    tracer.write(out_dir / "spans.jsonl")

    cache_before = before.get("cache") or {}
    cache_after = after.get("cache") or {}
    hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    lookups = hits + cache_after.get("misses", 0) - cache_before.get("misses", 0)
    submitted = delta("submitted")
    batches = delta("batches")
    outcome.metrics.update(
        {
            # Less the poller's reads and the /healthz read before the loop.
            "serve.requests": delta("requests") - poller.reads - 1,
            "serve.submitted": submitted,
            "serve.deduped": delta("deduped"),
            "serve.rejected": delta("rejected"),
            "serve.failed": delta("failed"),
            "serve.batches": batches,
            "serve.batch_size_mean": delta("executed") / batches if batches else 0.0,
            "serve.dedup_frac": delta("deduped") / submitted if submitted else 0.0,
            "serve.queue_pending_max": max(poller.pending, default=0),
            "serve.worker_utilization": mean(poller.utilization, 0.0),
            "runtime.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "runtime.cache_lookups": lookups,
            "client.sent": len(samples),
            "client.late_ms_p99": percentile([s.late for s in samples], 99.0) * 1000.0,
        }
    )
