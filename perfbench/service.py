"""``service``: ``cable serve`` driven by two closed-loop clients.

Set-up prepares one labeling session per catalog spec (its Strauss
scenarios, the reference FA as text, an oracle label per trace and an
``addtraces`` batch from another tracegen seed) and boots the server on
port 0 with ``--max-sessions`` below the number of tenants, so LRU
suspend-to-disk and resume happen every pass.

A pass: two client threads (a closed loop — each sends its next request
when the previous one answered) pull specs from one queue, largest first.  Per spec a
client runs ``create`` → ``lattice`` → top-down ``inspect``/``traces``/
``label`` with oracle labels until ``done`` (``fa`` on the first few
concepts) → ``addtraces`` (and labels what it added) → ``good`` →
``flow`` → ``state``, then reads the labels back.  Each client finally
revisits its first, long-evicted tenant and kills its tenants.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from common import Samples, median, percentile, proc_peak_rss_mb
from repro.fa.serialization import fa_to_text
from repro.lang.traces import parse_trace
from repro.mining.strauss import Strauss
from repro.obs.promtext import parse_prometheus
from repro.service.client import ServiceClient, ServiceError
from repro.workloads.specs_catalog import SPEC_CATALOG
from repro.workloads.tracegen import generate_program_traces

CLIENTS = 2
MAX_SESSIONS = 4
FA_VIEWS = 3
BOOT_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0

#: Verbs with per-layer metrics, in session order.
VERBS = ("create", "lattice", "inspect", "traces", "label", "fa", "addtraces", "good", "flow", "state")

#: Server counters reported per traced pass (Prometheus sample names).
COUNTERS = {
    "service.sessions.suspended": "repro_service_sessions_suspended",
    "service.sessions.resumed": "repro_service_sessions_resumed",
    "cable.inspections": "repro_cable_inspections",
    "cable.labelings": "repro_cable_labelings",
}


@dataclass(frozen=True)
class Tenant:
    spec: object
    traces: list[str]
    fa_text: str
    added: list[str]
    oracle: dict[str, str]


class SessionFailed(Exception):
    """A session cannot go on; the reason is already recorded."""


def prepare_tenants(seed: int) -> list[Tenant]:
    tenants = []
    for spec in SPEC_CATALOG:
        miner = Strauss(seeds=spec.seeds, hops=0, k=spec.mine_k, s=spec.mine_s)
        scenarios = miner.front_end(generate_program_traces(spec, seed=seed))
        added = miner.front_end(generate_program_traces(spec, seed=f"{seed}-added"))
        oracle = {str(t): spec.oracle_label(t) for t in scenarios + added}
        tenants.append(
            Tenant(
                spec=spec,
                traces=[str(t) for t in scenarios],
                fa_text=fa_to_text(spec.reference_fa(scenarios)),
                added=[str(t) for t in added],
                oracle=oracle,
            )
        )
    return tenants


class Server:
    """A ``cable serve`` subprocess; :meth:`stop` terminates, then kills."""

    def __init__(self, root: Path, tmp: Path, tag: str) -> None:
        store = tmp / f"store-{tag}"
        cache = tmp / f"relcache-{tag}"
        store.mkdir()
        cache.mkdir()
        self.log_path = tmp / f"server-{tag}.log"
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(root / "src"),
            REPRO_RELATION_CACHE_DIR=str(cache),
        )
        env.pop("REPRO_OBS", None)
        argv = [
            sys.executable, "-m", "repro.cable.cli", "serve",
            "--port", "0",
            "--store", str(store),
            "--max-sessions", str(MAX_SESSIONS),
            "--idle-ttl", "3600",
            "--maintenance-interval", "3600",
        ]  # fmt: skip
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                argv, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT
        url = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_path.read_text()}")
            if url is None:
                first = self.log_path.read_text().split("\n", 1)
                if len(first) == 2:
                    url = json.loads(first[0])["serving"]
            if url is not None:
                try:
                    ServiceClient(url, timeout=2.0).health()
                    return url
                except OSError:
                    pass
            time.sleep(0.05)
        raise RuntimeError(f"server not healthy within {BOOT_TIMEOUT}s")

    def metrics(self) -> dict[str, float]:
        return parse_prometheus(ServiceClient(self.url, timeout=REQUEST_TIMEOUT).metrics())

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


class Client:
    """One closed-loop client thread's state for a pass."""

    def __init__(self, url: str) -> None:
        self.http = ServiceClient(url, timeout=REQUEST_TIMEOUT)
        self.samples = Samples()
        self.attempted = 0
        self.failures: list[str] = []
        self.tenants: list[tuple[str, dict]] = []

    def call(self, verb: str, *args, **payload):
        self.attempted += 1
        try:
            with self.samples.timed(verb):
                if verb == "create":
                    return self.http.create(*args, **payload)
                if verb == "kill":
                    return self.http.kill(*args)
                return self.http.verb(args[0], verb, **payload)
        except (ServiceError, OSError) as exc:
            self.failures.append(f"{verb}: {exc}")
            raise SessionFailed from exc

    def run_session(self, sid: str, tenant: Tenant) -> None:
        with self.samples.timed("session", session=sid):
            created = self.call("create", tenant.traces, fa=tenant.fa_text, session=sid)
            applied: set[str] = set()
            top = self.label_until_done(sid, tenant, applied)
            added = self.call("addtraces", sid, traces=tenant.added)
            if added["classes"] > created["classes"]:
                top = self.label_until_done(sid, tenant, applied)
            if "good" in applied:
                self.call("good", sid)
            self.call("flow", sid)
            state = self.call("state", sid)
            self.check_labels(sid, tenant, top, applied)
        if not state["done"] or state["unlabeled"]:
            self.failures.append(f"{sid}: session ended with {state['unlabeled']} unlabeled")
        self.tenants.append((sid, state))

    def label_until_done(self, sid: str, tenant: Tenant, applied: set[str]) -> int:
        """Top-down (Section 4.2): breadth-first traversals from the top,
        labeling each concept whose unlabeled traces share one oracle
        label, until every trace is labeled.  The first traversal learns
        the order from ``inspect``; later ones skip the concepts the
        ``lattice`` view shows fully labeled."""
        concepts = self.call("lattice", sid)["concepts"]
        top = max(concepts, key=lambda c: c["extent"])["concept"]
        order: list[int] = []
        pending = deque([top])
        seen = {top}
        views = FA_VIEWS

        def visit(concept: int, summary: dict) -> str:
            """Label the concept if it is uniform: "skip", "labeled" or
            "done" (every trace labeled)."""
            nonlocal views
            if not summary["num_unlabeled"]:
                return "skip"
            if views:
                views -= 1
                self.call("fa", sid, concept=concept)
            texts = self.call("traces", sid, concept=concept, which="unlabeled")["traces"]
            labels = {oracle_label(tenant, text) for text in texts}
            if len(labels) != 1:
                return "skip"
            label = labels.pop()
            applied.add(label)
            done = self.call("label", sid, concept=concept, label=label)["done"]
            return "done" if done else "labeled"

        while pending:
            concept = pending.popleft()
            order.append(concept)
            summary = self.call("inspect", sid, concept=concept)
            if visit(concept, summary) == "done":
                return top
            for child in summary["children"]:
                if child not in seen:
                    seen.add(child)
                    pending.append(child)
        while True:
            states = {
                c["concept"]: c["state"] for c in self.call("lattice", sid)["concepts"]
            }
            progressed = False
            for concept in order:
                if states[concept] == "FULLY_LABELED":
                    continue
                outcome = visit(concept, self.call("inspect", sid, concept=concept))
                if outcome == "done":
                    return top
                progressed |= outcome == "labeled"
            if not progressed:
                self.failures.append(f"{sid}: top-down labeling is stuck")
                raise SessionFailed

    def check_labels(self, sid: str, tenant: Tenant, top: int, applied: set[str]) -> None:
        for label in sorted(applied):
            texts = self.call("traces", sid, concept=top, which=f"={label}")["traces"]
            wrong = [t for t in texts if oracle_label(tenant, t) != label]
            if wrong:
                self.failures.append(f"{sid}: {len(wrong)} traces labeled {label} against the oracle")

    def revisit_and_kill(self) -> None:
        """Resume the first (long evicted) tenant, then kill them all."""
        if self.tenants:
            sid, expected = self.tenants[0]
            state = self.call("state", sid)
            if state != expected:
                self.failures.append(f"{sid}: resumed state {state} != {expected}")
        for sid, _ in self.tenants:
            self.call("kill", sid)


def request_times(passes) -> list[float]:
    """Every HTTP request's client-side latency in ``passes``."""
    return [d for p in passes for verb, ds in p.samples.times.items() if verb != "session" for d in ds]


def oracle_label(tenant: Tenant, text: str) -> str:
    label = tenant.oracle.get(text)
    if label is None:
        label = tenant.spec.oracle_label(parse_trace(text).standardize_names())
    return label


class Service:
    name = "service"

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.root = Path(__file__).resolve().parent.parent
        self.server: Server | None = None
        self.boots = 0
        self.passes = 0
        self.deltas: list[dict[str, float]] = []
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        self.tenants = []  # free the previous set-up's inputs first
        self.tenants = prepare_tenants(self.seed)
        self.boots += 1
        self.server = Server(self.root, self.tmp, str(self.boots))
        self.last_metrics = self.server.metrics()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def body(self, samples: Samples):
        self.passes += 1
        # Largest sessions first, so both clients stay busy to the end of
        # the pass instead of one finishing a big session alone.
        work: queue.Queue = queue.Queue()
        for tenant in sorted(self.tenants, key=lambda t: -len(t.traces)):
            work.put((f"p{self.passes}-{tenant.spec.name}", tenant))
        clients = [Client(self.server.url) for _ in range(CLIENTS)]

        def drive(client: Client) -> None:
            while True:
                try:
                    sid, tenant = work.get_nowait()
                except queue.Empty:
                    break
                try:
                    client.run_session(sid, tenant)
                except SessionFailed:
                    pass
            try:
                client.revisit_and_kill()
            except SessionFailed:
                pass

        threads = [threading.Thread(target=drive, args=(c,), daemon=True) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        hung = sum(thread.is_alive() for thread in threads)
        for client in clients:
            for name, values in client.samples.times.items():
                samples.times[name].extend(values)
        return clients, hung

    # ------------------------------------------------------------------ #
    # correctness
    # ------------------------------------------------------------------ #

    def check_pass(self, result) -> tuple[int, list[str]]:
        clients, hung = result
        failures = [f for c in clients for f in c.failures]
        if hung:
            failures.append(f"{hung} client threads did not finish")
        if self.passes == 1:
            self.peak_rss_mb = proc_peak_rss_mb(self.server.process.pid)
        now = self.server.metrics()
        delta = {k: v - self.last_metrics.get(k, 0.0) for k, v in now.items()}
        self.last_metrics = now
        self.deltas.append(delta)
        if delta.get(COUNTERS["service.sessions.resumed"], 0.0) < 1:
            failures.append("no evicted tenant was resumed")
        return sum(c.attempted for c in clients), failures

    def final_checks(self) -> tuple[int, list[str]]:
        return 0, []

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def end_to_end(self, passes) -> dict[str, tuple[float, int]]:
        requests = request_times(passes)
        creates = [d for p in passes for d in p.samples.times["create"]]
        updates = [d for p in passes for d in p.samples.times["addtraces"]]
        sessions = [d for p in passes for d in p.samples.times["session"]]
        rates = [len(request_times([p])) / p.wall for p in passes]
        return {
            "first_lattice_s": (median(creates), len(creates)),
            "update_p50_s": (median(updates), len(updates)),
            "session_p50_s": (median(sessions), len(sessions)),
            "request_p50_ms": (1e3 * percentile(requests, 0.5), len(requests)),
            "request_p90_ms": (1e3 * percentile(requests, 0.9), len(requests)),
            "requests_per_s": (median(rates), len(rates)),
        }

    def per_layer(self, passes) -> tuple[dict[str, tuple[float, int]], dict]:
        out: dict[str, tuple[float, int]] = {}
        deltas = [self.deltas[p.index] for p in passes]
        total = {k: sum(d.get(k, 0.0) for d in deltas) for k in deltas[0]}
        requests = request_times(passes)
        for verb in VERBS:
            client = [d for p in passes for d in p.samples.times[verb]]
            out[f"service.client.{verb}.p50_ms"] = (1e3 * percentile(client, 0.5), len(client))
            count = total.get(f"repro_service_verb_seconds_{verb}_count", 0.0)
            seconds = total.get(f"repro_service_verb_seconds_{verb}_sum", 0.0)
            out[f"service.server.{verb}_s"] = (seconds / count if count else 0.0, int(count))
        # Server time of the client's routes (not the /metrics scrapes).
        routes = [
            k[: -len("_count")]
            for k in total
            if k.startswith("repro_service_verb_seconds_")
            and k.endswith("_count")
            and not k.endswith(("_metrics_count", "_health_count"))
        ]
        served = sum(total[f"{r}_count"] for r in routes)
        if served and requests:
            server_mean = sum(total[f"{r}_sum"] for r in routes) / served
            client_mean = sum(requests) / len(requests)
            out["service.transport_ms"] = (1e3 * (client_mean - server_mean), len(requests))
        out["service.request_p99_ms"] = (1e3 * percentile(requests, 0.99), len(requests))
        for metric, sample in COUNTERS.items():
            out[metric] = (median(d.get(sample, 0.0) for d in deltas), len(deltas))
        return out, {}
