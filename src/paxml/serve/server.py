"""The paxml server: tenants, a driver loop, and a JSONL line protocol.

One asyncio event loop hosts everything: the TCP acceptor, one *driver*
task that rotates attempt leases across runnable tenants (admission),
per-connection reader tasks, per-subscription pump tasks that push
deltas, and a janitor that spools idle tenants to checkpoint bundles.
All tenant mutation happens in the driver's slices and in synchronous
request handlers on this loop, so snapshot reads need no locks.

Wire protocol — newline-delimited JSON, one object per line:

* request  ``{"id": 7, "op": "inject", "tenant": "t0", ...}``
* response ``{"id": 7, "ok": true, ...}`` or
  ``{"id": 7, "ok": false, "error": "..."}``; a request line over 64 KiB
  gets ``{"id": null, "ok": false, "error_type": "request_too_large",
  ...}`` and the connection stays open
* push     ``{"push": "delta", "sub": 3, "tenant": "t0",
  "answers": [...]}`` — unsolicited, interleaved with responses.

Ops: ``create``, ``run`` (wait for the tenant's fixpoint), ``inject``,
``read`` (optionally ``"at"`` a graft ordinal — a point-in-time read),
``subscribe`` / ``unsubscribe``, ``suspend``, ``tenants``, ``stats``,
``ping``, ``shutdown``.  Any op addressed to a suspended tenant resumes
it transparently first.

Graceful shutdown drains the in-progress slice through
:meth:`~paxml.runtime.engine.AsyncRuntime.request_drain` (in-flight
outcomes flushed, parked calls folded back into the frontier), then
checkpoints every live tenant into the spool with a ``manifest.json``
recording bundles and spooled subscription answers — a restarted server
picks all of it up and subscribers resume without duplicates.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import perf
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..obs.flight import FlightRecorder
from ..obs.metrics import REGISTRY, Registry
from ..obs.slo import SLOBoard, SLOSpec
from ..runtime.policy import RuntimeConfig
from ..tree.parser import ParseError, parse_forest
from .admission import AdmissionController, TenantBudget
from .hub import SubscriptionError
from .session import SessionError, TenantSession

_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

MANIFEST = "manifest.json"

# Longest request line a connection buffers (asyncio's default stream
# limit); a longer line gets a ``request_too_large`` error and is skipped.
_LINE_LIMIT = 2 ** 16


@dataclass
class ServerOptions:
    """Knobs for one :class:`PaxmlServer`."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral; see ``server.port``
    spool_dir: Optional[str] = None     # enables suspend/resume + restart
    workers: int = 0                    # >0: place tenants on shard workers
    slice_attempts: int = 64            # default admission quantum
    total_attempts: Optional[int] = None
    idle_suspend: Optional[float] = None  # seconds idle before spooling
    config: RuntimeConfig = field(default_factory=RuntimeConfig)
    # -- observability (PR 8) --
    trace_sample_rate: Optional[float] = None  # None = trace.DEFAULT_SAMPLE_RATE
    flight_capacity: int = 512          # per-tenant flight-recorder ring size
    watchdog_deadline: Optional[float] = 5.0  # None disables the watchdog
    watchdog_period: Optional[float] = None   # default: deadline / 2
    slos: Optional[Sequence[SLOSpec]] = None  # None = obs.slo.DEFAULT_SLOS


class PaxmlServer:
    """A multi-tenant AXML server on one asyncio loop."""

    def __init__(self, options: Optional[ServerOptions] = None, *,
                 registry: Optional[Registry] = None, injector=None):
        self.options = options or ServerOptions()
        self.registry = registry or REGISTRY
        self.injector = injector
        self.sessions: Dict[str, TenantSession] = {}
        self.admission = AdmissionController(TenantBudget(
            slice_attempts=self.options.slice_attempts,
            total_attempts=self.options.total_attempts))
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._driver: Optional[asyncio.Task] = None
        self._janitor: Optional[asyncio.Task] = None
        self._work = asyncio.Event()        # new work may exist
        self._settled = asyncio.Event()     # a slice just finished
        self._current: Optional[TenantSession] = None
        self._stopping = False
        self._done = asyncio.Event()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._slices = self.registry.counter(
            "paxml_serve_slices_total", "Admission slices run",
            labelnames=("tenant",))
        self._tenant_gauge = self.registry.gauge(
            "paxml_serve_tenants", "Registered tenants", labelnames=("state",))
        # -- observability (PR 8): flight recorder, SLOs, spans, watchdog --
        self.flight = FlightRecorder(self.options.flight_capacity)
        self.flight.attach()            # bus-sourced records (when tracing on)
        self.slo = SLOBoard(self.options.slos, registry=self.registry)
        obs_trace.subscribe_spans(self.flight.record_span)
        obs_trace.subscribe_spans(self._fanout_span)
        self._span_watchers: Dict[int, asyncio.Queue] = {}
        self._watch_ids = itertools.count(1)
        self._watchdog: Optional[asyncio.Task] = None
        self._frontiers: Dict[str, tuple] = {}
        self._frontier_since: Dict[str, float] = {}
        self._op_seconds = self.registry.histogram(
            "paxml_serve_op_seconds", "Serve op latency by tenant",
            labelnames=("op", "tenant"))
        self._op_errors = self.registry.counter(
            "paxml_serve_op_errors_total", "Failed serve ops by tenant",
            labelnames=("op", "tenant"))
        # -- sharded placement (PR 9): the session-host pool --
        self.pool = None                # a ShardPool when workers > 0
        self._pool_spool: Optional[str] = None  # tempdir when no spool_dir
        self._shard_lag = self.registry.gauge(
            "paxml_shard_replication_lag",
            "Graft-log records not yet captured by a durable bundle",
            labelnames=("shard",))

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self.options.spool_dir:
            os.makedirs(self.options.spool_dir, exist_ok=True)
            if not self.options.workers:
                self._load_spool()
        if self.options.workers:
            from .shard_pool import ShardPool
            spool = self.options.spool_dir
            if spool is None:
                # Migration bundles need a shared directory even when the
                # operator asked for no durable spool.
                spool = self._pool_spool = tempfile.mkdtemp(
                    prefix="paxml-pool-")
            self.pool = ShardPool(
                self.options.workers, spool_dir=spool,
                config=self.options.config,
                slice_attempts=self.options.slice_attempts,
                total_attempts=self.options.total_attempts)
            await self.pool.start()
            if self.options.spool_dir:
                self._load_pool_spool()
        self._server = await asyncio.start_server(
            self._serve_connection, self.options.host, self.options.port,
            limit=_LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        self._driver = asyncio.ensure_future(self._drive())
        if self.options.idle_suspend and self.options.spool_dir:
            self._janitor = asyncio.ensure_future(self._suspend_idle())
        if self.options.watchdog_deadline:
            self._watchdog = asyncio.ensure_future(self._watch())

    async def serve_forever(self) -> None:
        await self._done.wait()

    async def shutdown(self) -> None:
        """Drain, spool, close — idempotent."""
        if self._stopping:
            await self._done.wait()
            return
        self._stopping = True
        self._work.set()
        current = self._current
        if current is not None and current.busy:
            bundle = self._bundle_path(current.name)
            await current.drain(bundle)
        if self._driver is not None:
            await self._driver
        for task in (self._janitor, self._watchdog):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        if self.pool is not None:
            for tenant in list(self.pool.placement):
                try:
                    await self.pool.suspend(tenant)
                except SessionError:
                    pass
            if self.options.spool_dir:
                self._spool_pool_manifest()
            await self.pool.shutdown()
            if self._pool_spool:
                shutil.rmtree(self._pool_spool, ignore_errors=True)
        if self.options.spool_dir:
            self.dump_flight(reason="shutdown")
            self._spool_all()
        obs_trace.unsubscribe_spans(self.flight.record_span)
        obs_trace.unsubscribe_spans(self._fanout_span)
        self.flight.detach()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        for task in list(self._conn_tasks):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._done.set()

    # -- spooling --------------------------------------------------------

    def _bundle_path(self, tenant: str) -> Optional[str]:
        if not self.options.spool_dir:
            return None
        return os.path.join(self.options.spool_dir, f"{tenant}.bundle.jsonl")

    def _spool_all(self) -> None:
        manifest: Dict[str, dict] = {}
        if os.path.exists(os.path.join(self.options.spool_dir, MANIFEST)):
            with open(os.path.join(self.options.spool_dir, MANIFEST),
                      encoding="utf-8") as handle:
                manifest = json.load(handle)
        for name, session in self.sessions.items():
            if session.suspended:
                manifest.setdefault(name, {
                    "bundle": session.bundle_path,
                    "queries": {}})
                continue
            bundle = self._bundle_path(name)
            spooled = session.suspend(bundle)
            manifest[name] = {"bundle": bundle, "queries": spooled}
        target = os.path.join(self.options.spool_dir, MANIFEST)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        os.replace(tmp, target)

    def _load_spool(self) -> None:
        path = os.path.join(self.options.spool_dir, MANIFEST)
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for name, entry in manifest.items():
            bundle = entry.get("bundle")
            if not bundle or not os.path.exists(bundle):
                continue
            session = TenantSession(
                name, None, bundle_path=bundle, config=self.options.config,
                injector=self.injector, registry=self.registry)
            self.sessions[name] = session
            self.admission.register(name)
        self._publish_tenant_gauge()

    def _load_pool_spool(self) -> None:
        """Hand spooled tenants from the manifest to the pool: each is
        lazily re-placed (least-loaded) on its first client touch."""
        path = os.path.join(self.options.spool_dir, MANIFEST)
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for name, entry in manifest.items():
            bundle = entry.get("bundle")
            if bundle and os.path.exists(bundle):
                self.pool.spooled[name] = bundle

    def _spool_pool_manifest(self) -> None:
        """Record the pool's suspended tenants so a restarted server —
        sharded or not — resumes them from their bundles."""
        path = os.path.join(self.options.spool_dir, MANIFEST)
        manifest: Dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        for name, bundle in self.pool.spooled.items():
            manifest[name] = {"bundle": bundle, "queries": {}}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def _publish_tenant_gauge(self) -> None:
        live = sum(1 for s in self.sessions.values() if not s.suspended)
        self._tenant_gauge.labels(state="live").set(live)
        self._tenant_gauge.labels(state="suspended").set(
            len(self.sessions) - live)

    # -- the driver ------------------------------------------------------

    def _next_ready_delay(self, now: float) -> Optional[float]:
        """Seconds until the nearest parked call could retry, if any."""
        nearest: Optional[float] = None
        for session in self.sessions.values():
            if session.suspended or not session.has_work():
                continue
            if session.kernel.scheduler.has_fresh():
                return 0.0
            ready = session.kernel.scheduler.next_parked_ready()
            if ready is not None and (nearest is None or ready < nearest):
                nearest = ready
        if nearest is None:
            return None
        return max(nearest - now, 0.001)

    async def _drive(self) -> None:
        loop = asyncio.get_event_loop()
        while not self._stopping:
            now = loop.time()
            tenant = self.admission.next_tenant(
                lambda name: self.sessions[name].runnable_at(now)
                and not self.sessions[name].busy)
            if tenant is None:
                self._work.clear()
                delay = self._next_ready_delay(loop.time())
                try:
                    if delay is None:
                        await self._work.wait()
                    else:
                        await asyncio.wait_for(self._work.wait(), delay)
                except asyncio.TimeoutError:
                    pass
                continue
            session = self.sessions[tenant]
            lease = self.admission.lease(tenant)
            before = session.kernel.scheduler.attempts
            self._current = session
            try:
                await session.run_slice(lease)
            except Exception:
                # An unexpected slice crash is exactly what the flight
                # recorder exists for: dump the recent past, then let the
                # failure propagate.
                self.dump_flight(reason="crash")
                raise
            finally:
                self._current = None
                spent = session.kernel.scheduler.attempts - before
                self.admission.settle(tenant, spent)
                self._slices.labels(tenant=tenant).inc()
                self._settled.set()
                self._settled.clear()

    async def _wait_idle(self, session: TenantSession,
                         timeout: Optional[float]) -> bool:
        """Wait until the tenant has no admissible work left."""
        loop = asyncio.get_event_loop()
        deadline = None if timeout is None else loop.time() + timeout
        self._work.set()
        while True:
            # ``idle()`` and not just ``has_work()``: mid-slice a site in
            # flight is in neither scheduler queue, but its graft is
            # still pending — the busy flag covers that window.
            if session.suspended or session.idle() or \
                    self.admission.exhausted(session.name):
                return True
            if deadline is not None and loop.time() >= deadline:
                return False
            self._work.set()
            await asyncio.sleep(0.005)

    async def _suspend_idle(self) -> None:
        period = max(self.options.idle_suspend / 2.0, 0.05)
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(period)
            now = loop.time()
            for name, session in list(self.sessions.items()):
                if session.suspended or not session.idle():
                    continue
                if now - session.last_active < self.options.idle_suspend:
                    continue
                self._spool_one(name, session)

    def _spool_one(self, name: str, session: TenantSession) -> None:
        bundle = self._bundle_path(name)
        spooled = session.suspend(bundle)
        path = os.path.join(self.options.spool_dir, MANIFEST)
        manifest: Dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        manifest[name] = {"bundle": bundle, "queries": spooled}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
        self._publish_tenant_gauge()

    # -- observability (PR 8) --------------------------------------------

    def _fanout_span(self, span) -> None:
        """Span sink feeding live ``watch`` subscribers (lossy on lag)."""
        for queue in list(self._span_watchers.values()):
            if queue.full():
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover
                    pass
            queue.put_nowait(span.to_json_dict())

    def _observe_op(self, tenant: Optional[str], op: Optional[str],
                    seconds: float, ok: bool,
                    ctx: Optional[obs_trace.TraceContext],
                    started: float) -> None:
        """Fold one finished request into every observability surface:
        scoped latency/error metrics, the SLO board, the flight recorder,
        the bus, and (when traced) a completed ``op:*`` span."""
        op_label = str(op or "?")
        tenant_label = tenant if tenant else "*"
        self._op_seconds.labels(op=op_label, tenant=tenant_label).observe(
            seconds)
        if not ok:
            self._op_errors.labels(op=op_label, tenant=tenant_label).inc()
        self.slo.observe(tenant_label, op_label, seconds, ok)
        data = {"op": op_label, "seconds": seconds, "ok": ok}
        if ctx is not None:
            data["trace_id"] = ctx.trace_id
        self.flight.record(tenant_label, obs_events.SERVE_OP, **data)
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.SERVE_OP, tenant=tenant_label, **data)
        if ctx is not None:
            obs_trace.emit_span(ctx, f"op:{op_label}", started,
                                started + seconds,
                                status="ok" if ok else "error", op=op_label)

    def dump_flight(self, path: Optional[str] = None,
                    tenant: Optional[str] = None,
                    reason: str = "manual") -> Optional[Tuple[str, int]]:
        """Write the flight-recorder rings to JSONL; ``(path, records)``.

        Without an explicit ``path`` the dump lands in the spool
        directory (``flight-<reason>.jsonl``) — or nowhere, when the
        server has no spool; callers wanting the records regardless use
        ``flight.snapshot()``.
        """
        if path is None:
            if not self.options.spool_dir:
                return None
            path = os.path.join(self.options.spool_dir,
                                f"flight-{reason}.jsonl")
        count = self.flight.dump(path, tenant=tenant, reason=reason)
        return path, count

    def watchdog_report(self) -> Dict[str, object]:
        return {
            "deadline": self.options.watchdog_deadline,
            "stalled": {name: session.stalled
                        for name, session in self.sessions.items()
                        if session.stalled is not None},
        }

    async def _watch(self) -> None:
        """Stall watchdog: flag sessions with work whose scheduler
        frontier has not advanced within the deadline, with enough
        diagnostics (parked sites, open breakers, the last graft's
        trace) to tell *why* — then keep quiet until it moves again."""
        deadline = self.options.watchdog_deadline
        period = self.options.watchdog_period or max(deadline / 2.0, 0.01)
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(period)
            now = loop.time()
            for name, session in list(self.sessions.items()):
                if session.suspended or not session.has_work():
                    self._frontiers.pop(name, None)
                    self._frontier_since.pop(name, None)
                    session.stalled = None
                    continue
                frontier = session.frontier()
                if self._frontiers.get(name) != frontier:
                    self._frontiers[name] = frontier
                    self._frontier_since[name] = now
                    session.stalled = None
                    continue
                stalled_for = now - self._frontier_since.get(name, now)
                if stalled_for < deadline:
                    continue
                scheduler = session.kernel.scheduler
                info = {
                    "tenant": name,
                    "stalled_for": stalled_for,
                    "busy": session.busy,
                    "fresh": scheduler.fresh_count(),
                    "parked": scheduler.parked_count(),
                    "tried": scheduler.tried_count(),
                    "attempts": scheduler.attempts,
                    "next_ready": scheduler.next_parked_ready(),
                    "open_breakers": session.open_breakers(),
                    "last_graft_trace": session.last_graft_trace,
                }
                first = session.stalled is None
                session.stalled = info
                if first:
                    perf.stats.watchdog_stalls += 1
                    self.flight.record(name, obs_events.WATCHDOG_STALL,
                                       **info)
                    if obs_bus.ACTIVE:
                        obs_bus.emit(obs_events.WATCHDOG_STALL, **info)

    # -- sessions --------------------------------------------------------

    def _session(self, tenant: str) -> TenantSession:
        session = self.sessions.get(tenant)
        if session is None:
            raise SessionError(f"unknown tenant {tenant!r}")
        if session.suspended:
            # Transparent resume: the touch that reached a spooled tenant
            # brings it back before the op proceeds.
            session.resume()
            self._publish_tenant_gauge()
            self._work.set()
        session.last_active = asyncio.get_event_loop().time()
        return session

    def create_tenant(self, name: str, system_text: str, *,
                      budget: Optional[TenantBudget] = None,
                      lazy: bool = False) -> TenantSession:
        if not _TENANT_NAME.match(name or ""):
            raise SessionError(
                f"invalid tenant name {name!r} (want [A-Za-z0-9][-._\\w]*)")
        if name in self.sessions:
            raise SessionError(f"tenant {name!r} already exists")
        session = TenantSession.from_text(
            name, system_text, config=self.options.config,
            injector=self.injector, registry=self.registry, lazy=lazy)
        session.last_active = asyncio.get_event_loop().time()
        self.sessions[name] = session
        self.admission.register(name, budget)
        self._publish_tenant_gauge()
        self._work.set()
        return session

    # -- the line protocol ----------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn = _Connection(self, writer)
        try:
            while not self._stopping:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # an unterminated last line, or EOF
                    if not line:
                        break
                except asyncio.LimitOverrunError as exc:
                    await _discard_line(reader, exc.consumed)
                    await conn.send({
                        "id": None, "ok": False,
                        "error_type": "request_too_large",
                        "error": f"request line over {_LINE_LIMIT} bytes "
                                 "(discarded)"})
                    continue
                line = line.strip()
                if not line:
                    continue
                await conn.handle(line)
        except (ConnectionResetError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            await conn.close()
            self._conn_tasks.discard(task)


async def _discard_line(reader: asyncio.StreamReader, scanned: int) -> None:
    """Drop an over-limit line through its newline, ``scanned`` bytes
    (already searched) at a time; IncompleteReadError if the peer closes."""
    while True:
        await reader.readexactly(scanned)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            scanned = exc.consumed


class _Connection:
    """One client connection: response writer + its subscriptions."""

    def __init__(self, server: PaxmlServer, writer: asyncio.StreamWriter):
        self.server = server
        self.writer = writer
        self.lock = asyncio.Lock()      # responses and pushes interleave
        self.pumps: Dict[int, asyncio.Task] = {}
        self.subs: Dict[int, object] = {}
        self.watches: Dict[int, asyncio.Task] = {}  # live span tails

    async def send(self, payload: dict) -> None:
        async with self.lock:
            if self.writer.is_closing():
                return
            self.writer.write(json.dumps(payload).encode() + b"\n")
            await self.writer.drain()

    async def handle(self, line: bytes) -> None:
        request_id = None
        op: Optional[str] = None
        tenant: Optional[str] = None
        ctx: Optional[obs_trace.TraceContext] = None
        token = None
        ok = True
        started = time.perf_counter()
        try:
            request = json.loads(line)
            request_id = request.get("id")
            op = request.get("op")
            tenant = request.get("tenant")
            # Head-based sampling happens here, once per request; the
            # context is active for the whole handler, so every graft
            # the op causes — now or transitively, via site tags — is
            # stamped with this trace.
            ctx = obs_trace.admit(tenant,
                                  rate=self.server.options.trace_sample_rate,
                                  parent=request.get("trace"))
            if ctx is not None:
                token = obs_trace.activate(ctx)
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise SessionError(f"unknown op {op!r}")
            response = await handler(request)
        except (SessionError, SubscriptionError, ParseError,
                ValueError, KeyError, TypeError) as exc:
            ok = False
            response = {"ok": False, "error": str(exc) or repr(exc)}
        finally:
            if token is not None:
                obs_trace.restore(token)
            self.server._observe_op(tenant, op,
                                    time.perf_counter() - started, ok,
                                    ctx, started)
        payload = {"id": request_id, "ok": True}
        if ctx is not None:
            payload["trace"] = ctx.to_wire()
        payload.update(response)
        await self.send(payload)

    async def close(self) -> None:
        for watch_id, task in list(self.watches.items()):
            self.server._span_watchers.pop(watch_id, None)
            task.cancel()
        for task in self.watches.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self.watches.clear()
        for task in self.pumps.values():
            task.cancel()
        for task in self.pumps.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        for sub in self.subs.values():
            sub.close()
        self.pumps.clear()
        self.subs.clear()
        try:
            if not self.writer.is_closing():
                self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            # A cancellation landing here is the server tearing the
            # connection down; swallowing it lets the task finish
            # cleanly instead of ending CANCELLED mid-close.
            pass

    # -- ops -------------------------------------------------------------

    async def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "tenants": len(self.server.sessions)}

    def _pooled(self, request: dict) -> bool:
        pool = self.server.pool
        return pool is not None and pool.pooled(request.get("tenant"))

    async def _op_create(self, request: dict) -> dict:
        if self.server.pool is not None:
            name = request["tenant"]
            if not _TENANT_NAME.match(name or ""):
                raise SessionError(f"invalid tenant name {name!r} "
                                   "(want [A-Za-z0-9][-._\\w]*)")
            return await self.server.pool.place(
                name, request["system"],
                slice_attempts=request.get("slice_attempts"),
                total_attempts=request.get("total_attempts"))
        budget = None
        if "slice_attempts" in request or "total_attempts" in request:
            budget = TenantBudget(
                slice_attempts=int(request.get(
                    "slice_attempts", self.server.options.slice_attempts)),
                total_attempts=request.get(
                    "total_attempts", self.server.options.total_attempts))
        session = self.server.create_tenant(
            request["tenant"], request["system"], budget=budget,
            lazy=bool(request.get("lazy")))
        return {"tenant": session.name,
                "documents": sorted(session.system.documents),
                "services": sorted(session.system.services)}

    async def _op_run(self, request: dict) -> dict:
        if self._pooled(request):
            return await self.server.pool.forward("run", request)
        session = self.server._session(request["tenant"])
        done = await self.server._wait_idle(session,
                                            request.get("timeout"))
        stats = session.stats()
        stats["fixpoint"] = done and not session.has_work()
        return stats

    async def _op_inject(self, request: dict) -> dict:
        if self._pooled(request):
            return await self.server.pool.forward("inject", request)
        session = self.server._session(request["tenant"])
        trees = parse_forest(request["trees"])
        inserted = session.inject(request["document"], trees,
                                  parent_uid=request.get("parent"))
        self.server._work.set()
        return {"inserted": inserted, "grafts": session.kernel.productive}

    async def _op_read(self, request: dict) -> dict:
        if self._pooled(request):
            return await self.server.pool.forward("read", request)
        session = self.server._session(request["tenant"])
        if "at" in request and request["at"] is not None:
            return session.read_at(request["document"], int(request["at"]))
        return session.read(request["document"])

    async def _op_subscribe(self, request: dict) -> dict:
        if self._pooled(request):
            raise SessionError(
                "continuous queries are unavailable for pooled tenants; "
                "run the server with --workers 0 to subscribe")
        session = self.server._session(request["tenant"])
        sub = session.subscribe(request["query"])
        self.subs[sub.sub_id] = sub
        self.pumps[sub.sub_id] = asyncio.ensure_future(
            self._pump(session.name, sub))
        return {"sub": sub.sub_id, "query": sub.query_key,
                "initial": sub.initial}

    async def _pump(self, tenant: str, sub) -> None:
        try:
            while not sub.closed:
                batch = await sub.next_batch()
                if not batch:
                    continue
                # The drain inside ``next_batch`` stashed the per-answer
                # causal traces and the oldest answer's stamp alongside
                # the batch (see Subscription.drain).
                push = {"push": "delta", "sub": sub.sub_id,
                        "tenant": tenant, "answers": batch}
                if any(trace is not None for trace in sub.last_traces):
                    push["traces"] = sub.last_traces
                await self.send(push)
                if sub.last_stamp is not None:
                    self.server.slo.observe(
                        tenant, "delta_push",
                        time.perf_counter() - sub.last_stamp, True)
        except (asyncio.CancelledError, ConnectionResetError):
            pass

    async def _op_unsubscribe(self, request: dict) -> dict:
        sub_id = int(request["sub"])
        sub = self.subs.pop(sub_id, None)
        if sub is None:
            raise SessionError(f"no subscription {sub_id} on this connection")
        sub.close()
        pump = self.pumps.pop(sub_id, None)
        if pump is not None:
            pump.cancel()
        return {"sub": sub_id, "closed": True}

    async def _op_suspend(self, request: dict) -> dict:
        server = self.server
        if self._pooled(request):
            name = request["tenant"]
            if name in server.pool.spooled:
                return {"tenant": name, "suspended": True,
                        "bundle": server.pool.spooled[name]}
            return await server.pool.suspend(name, request.get("timeout"))
        if not server.options.spool_dir:
            raise SessionError("server has no spool directory")
        name = request["tenant"]
        session = server.sessions.get(name)
        if session is None:
            raise SessionError(f"unknown tenant {name!r}")
        if session.suspended:
            return {"tenant": name, "suspended": True,
                    "bundle": session.bundle_path}
        await server._wait_idle(session, request.get("timeout", 10.0))
        server._spool_one(name, session)
        return {"tenant": name, "suspended": True,
                "bundle": session.bundle_path}

    async def _op_tenants(self, request: dict) -> dict:
        tenants = [session.stats()
                   for session in self.server.sessions.values()]
        if self.server.pool is not None:
            tenants.extend(await self._pool_tenants())
        return {"tenants": tenants}

    async def _pool_tenants(self, reports=None) -> List[dict]:
        """Per-tenant stats across every session host, plus placeholder
        rows for tenants spooled out of the pool entirely."""
        rows: List[dict] = []
        if reports is None:
            reports = await self.server.pool.stats()
        for report in reports:
            self.server._shard_lag.labels(
                shard=str(report.get("shard"))).set(
                    report.get("replication_lag", 0))
            rows.extend(report.get("tenants", []))
        for name in sorted(self.server.pool.spooled):
            rows.append({"tenant": name, "suspended": True, "shard": None,
                         "steps": 0, "productive": 0, "attempts": 0,
                         "subscribers": 0, "pending": 0, "replication_lag": 0,
                         "queues": {"fresh": 0, "parked": 0, "tried": 0},
                         "open_breakers": [], "stalled": None})
        return rows

    async def _op_stats(self, request: dict) -> dict:
        tenant = request.get("tenant")
        if tenant is not None:
            if self._pooled(request):
                if tenant in self.server.pool.spooled:
                    return {"tenant": tenant, "suspended": True,
                            "bundle": self.server.pool.spooled[tenant]}
                return await self.server.pool.forward("stats", request)
            return self.server._session(tenant).stats()
        tenants = [session.stats()
                   for session in self.server.sessions.values()]
        pooled: dict = {}
        if self.server.pool is not None:
            # Pull the shard reports (which also refreshes the
            # replication-lag gauges) before snapshotting the registry.
            shards = await self.server.pool.stats()
            tenants.extend(await self._pool_tenants(shards))
            pooled = {"shards": shards,
                      "placement": dict(self.server.pool.placement)}
        response = {"metrics": self.server.registry.collect(),
                    "slo": self.server.slo.report(),
                    "watchdog": self.server.watchdog_report(),
                    "tenants": tenants}
        response.update(pooled)
        return response

    async def _op_migrate(self, request: dict) -> dict:
        if self.server.pool is None:
            raise SessionError(
                "migrate needs a sharded server (--workers N)")
        return await self.server.pool.migrate(request["tenant"],
                                              request.get("shard"))

    async def _op_dump(self, request: dict) -> dict:
        """Flight-recorder dump: to a JSONL file (explicit ``path`` or
        the spool dir) and/or inline (``"inline": true``)."""
        server = self.server
        tenant = request.get("tenant")
        path = request.get("path")
        result: dict = {"tenant": tenant or "*"}
        if path is not None or server.options.spool_dir:
            dumped = server.dump_flight(path, tenant=tenant,
                                        reason=str(request.get(
                                            "reason", "request")))
            if dumped is not None:
                result["path"], result["records"] = dumped
        if request.get("inline") or "records" not in result:
            rows = server.flight.snapshot(tenant)
            result["events"] = rows
            result.setdefault("records", len(rows))
        return result

    async def _op_watch(self, request: dict) -> dict:
        """Start a live span tail on this connection (``push: span``)."""
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=max(int(request.get("buffer", 256)), 1))
        watch_id = next(self.server._watch_ids)
        self.server._span_watchers[watch_id] = queue
        self.watches[watch_id] = asyncio.ensure_future(
            self._pump_spans(watch_id, queue))
        return {"watch": watch_id}

    async def _pump_spans(self, watch_id: int, queue: asyncio.Queue) -> None:
        try:
            while True:
                span = await queue.get()
                await self.send({"push": "span", "watch": watch_id,
                                 "span": span})
        except (asyncio.CancelledError, ConnectionResetError):
            pass

    async def _op_unwatch(self, request: dict) -> dict:
        watch_id = int(request["watch"])
        if self.server._span_watchers.pop(watch_id, None) is None:
            raise SessionError(f"no span watch {watch_id} on this server")
        task = self.watches.pop(watch_id, None)
        if task is not None:
            task.cancel()
        return {"watch": watch_id, "closed": True}

    async def _op_shutdown(self, request: dict) -> dict:
        asyncio.ensure_future(self.server.shutdown())
        return {"stopping": True}
