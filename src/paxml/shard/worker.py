"""The shard worker process: one EvaluationKernel per shard.

A worker connects back to its coordinator, receives the full system in
wire form, and then participates in bulk-synchronous replication
rounds.  Within a round it drives its *owned* call sites — the ones in
documents its shard owns under the :class:`~paxml.shard.plan.ShardPlan`
— to local quiescence with its own engine (the concurrent
:class:`AsyncRuntime` or the sequential loop), then ships the graft
records the round produced.  Between rounds it applies the batches its
peers shipped to its replica documents.

Replica application is deliberately *not* re-evaluation: the records
arrive in the owner's log order, the site and parent uids resolve
against the replica (wire trees keep their uids), and grafting is
deterministic given identical prior state — so replicas converge to
node-for-node copies of the owner's documents.  Three kernel-level
details keep the incremental machinery sound across the boundary:

* inserted trees are **re-stamped with local versions** before grafting
  (uids stay the owner's): the delta-matching invariant "version ≤
  cutoff ⇒ no node created after the cutoff" is per-process, and an
  owner-side version could land below a local cutoff and hide the graft
  from incremental evaluation forever;
* the kernel's ``productive`` generation is bumped, voiding any no-op
  verdict computed against the pre-apply state;
* the record is appended to the local log under its originating shard
  tag, so replay-validation (:class:`~paxml.kernel.checkpoint.
  ReplayDivergence`) covers the replicated grafts exactly like local
  ones.

Remote applies never schedule the call sites they graft — those sites
live in documents another shard owns, and fairness for them is the
owner's job.  They do promote this worker's proven no-ops back to
fresh: replica state changed, so the verdicts are stale.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional

from .. import perf
from ..kernel import EXTERNAL_SERVICE, EvaluationKernel
from ..kernel.checkpoint import ReplayDivergence, replay_prefix
from ..kernel.graft import GraftRecord
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..query.parser import parse_query
from ..runtime.engine import AsyncRuntime
from ..runtime.faults import FaultInjector
from ..runtime.policy import RuntimeConfig
from ..runtime.transport import (
    CallRequest,
    LocalTransport,
    Transport,
    TransientServiceError,
)
from ..system.invocation import _validate_answers, find_path, graft_trees, graft_under
from ..system.rewriting import RewritingEngine
from ..system.system import AXMLSystem
from ..tree.document import CONTEXT, INPUT
from ..tree.node import Node, advance_stamp_clock, next_stamp
from ..tree.serializer import from_wire, to_wire, wire_max_stamp
from .bootstrap import bootstrap_worker
from .framing import (
    FRAME_GRAFTS,
    FramingError,
    decode_json,
    pack_grafts,
    read_frame,
    send_grafts,
    send_json,
    unpack_grafts,
)
from .plan import ShardError, ShardPlan
from .wire import system_from_wire


class ShardChannel:
    """The worker side of the coordinator connection.

    One reader task demultiplexes incoming frames: replication batches
    and control messages go to :attr:`control`; ``answer`` frames
    resolve the matching pending routed call; ``call`` frames (a peer
    invoking a service this shard owns) are served inline via
    :attr:`on_call`.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, shard: int):
        self.reader = reader
        self.writer = writer
        self.shard = shard
        self.control: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self.on_call = None  # sync callback(message) -> answers wire list
        self._pending: Dict[str, asyncio.Future] = {}
        self._call_ids = itertools.count()
        self._reader_task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                kind, payload = await read_frame(self.reader)
                if kind == FRAME_GRAFTS:
                    origin, seq, records = unpack_grafts(payload)
                    await self.control.put({"kind": "grafts", "origin": origin,
                                            "seq": seq, "records": records})
                    continue
                message = decode_json(payload)
                mkind = message["kind"]
                if mkind == "answer":
                    future = self._pending.pop(message["id"], None)
                    if future is not None and not future.done():
                        future.set_result(message)
                elif mkind == "call":
                    asyncio.get_running_loop().create_task(
                        self._serve_call(message))
                else:
                    await self.control.put(message)
        except (asyncio.IncompleteReadError, ConnectionError, FramingError):
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("coordinator connection lost"))
            self._pending.clear()
            await self.control.put({"kind": "eof"})

    async def _serve_call(self, message: Dict[str, Any]) -> None:
        reply: Dict[str, Any] = {"kind": "answer", "id": message["id"],
                                 "to": message["from"], "from": self.shard}
        try:
            assert self.on_call is not None, "no call handler installed"
            reply["ok"] = True
            reply["answers"] = self.on_call(message)
        except Exception as exc:
            reply["ok"] = False
            reply["error"] = f"{type(exc).__name__}: {exc}"
        await send_json(self.writer, reply)

    async def remote_call(self, owner: int,
                          payload: Dict[str, Any]) -> List[dict]:
        call_id = f"{self.shard}.{next(self._call_ids)}"
        future = asyncio.get_running_loop().create_future()
        self._pending[call_id] = future
        await send_json(self.writer, {"kind": "call", "id": call_id,
                                      "from": self.shard, "to": owner,
                                      **payload})
        message = await future
        if not message.get("ok"):
            raise TransientServiceError(
                f"shard {owner} failed the routed call: "
                f"{message.get('error')}")
        return message["answers"]


class ShardTransport(Transport):
    """Route eligible calls to the owning shard; evaluate the rest locally.

    The routed request ships ``θ(input)`` and ``θ(context)`` as wire
    trees; the owner evaluates a *snapshot* answer against its own
    (authoritative) documents and the answer forest rides back as wire
    trees.  Grafting happens at the caller — which owns the call site's
    document — through the normal kernel path, so the graft becomes an
    ordinary record on the replication bus.
    """

    def __init__(self, system: AXMLSystem, channel: ShardChannel,
                 plan: ShardPlan, shard: int):
        super().__init__(None)
        self._local = LocalTransport(system)
        self._channel = channel
        self._plan = plan
        self._shard = shard

    def peer_of(self, service: str) -> str:
        owner = self._plan.route(service)
        if owner is None or owner == self._shard:
            return self._local.peer_of(service)
        return f"shard:{owner}"

    async def call(self, request: CallRequest):
        owner = self._plan.route(request.service)
        if owner is None or owner == self._shard:
            return await self._local.call(request)
        perf.stats.shard_remote_calls += 1
        payload = {
            "service": request.service,
            "site": request.site,
            "document": request.caller_document,
            "input": to_wire(request.input_tree),
            "context": (to_wire(request.context_tree)
                        if request.context_tree is not None else None),
        }
        answers = await self._channel.remote_call(owner, payload)
        return [from_wire(wire) for wire in answers]


class ShardWorker:
    """One shard's engine, replica set, and replication bookkeeping."""

    def __init__(self, shard: int, channel: ShardChannel,
                 init: Dict[str, Any]):
        self.shard = shard
        self.nshards = int(init["nshards"])
        self.channel = channel
        bootstrap_worker(shard, self.nshards, init.get("flags"),
                         obs_active=bool(init.get("obs")))
        self.plan = ShardPlan.from_json(init["plan"])
        self.system = system_from_wire(init["system"])
        self.engine_kind = str(init.get("engine", "async"))
        # The log is the replication stream: retention is a worker
        # requirement, not a perf preference.
        self.kernel = EvaluationKernel(
            self.system, sites=[],
            promote_front=(self.engine_kind == "sequential"),
            dedup_delivered=(self.engine_kind == "async"))
        self.kernel.log.retain = True
        self.kernel._capture_seed()
        self.by_uid: Dict[str, Dict[int, Node]] = {
            name: {node.uid: node for node in doc.root.iter_nodes()}
            for name, doc in self.system.documents.items()}
        self.replayed = 0
        for batch in init.get("replay", ()):
            _, _, records = unpack_grafts(
                bytes.fromhex(batch) if isinstance(batch, str) else batch)
            for record in records:
                # Replayed trees carry uids this shard minted in its
                # previous life — push the clock past them before this
                # incarnation mints anything, or fresh stamps could
                # collide inside our own residue class.
                for wire in record.trees:
                    advance_stamp_clock(wire_max_stamp(wire))
                self.apply_replica_record(record)
                self.replayed += 1
        for document, node in self.system.call_sites():
            if self.plan.owner(document.name) == self.shard:
                self.kernel.scheduler.enqueue(document, node)
        # Relevance-guided laziness: each worker seeds its own tracker over
        # the full replicated system, so owned-but-unneeded sites sit
        # dormant.  Fire-once is NOT enabled here — retirement needs global
        # feeder live-counts, and a worker only sees its own shard's.
        lazy_texts = init.get("lazy")
        if lazy_texts:
            self.kernel.enable_lazy(
                [parse_query(text) for text in lazy_texts])

        injector_spec = init.get("injector")
        injector = (FaultInjector(**injector_spec)
                    if injector_spec else None)
        config = RuntimeConfig(**(init.get("config") or {}))
        transport: Optional[Transport] = None
        if self.plan.routes:
            if self.engine_kind != "async":
                raise ShardError(
                    "routed cross-shard calls need the async engine "
                    "(the sequential loop cannot serve peers mid-round)")
            transport = ShardTransport(self.system, channel, self.plan,
                                       shard)
        if self.engine_kind == "async":
            self.runtime: Optional[AsyncRuntime] = AsyncRuntime(
                self.system, kernel=self.kernel, config=config,
                injector=injector, transport=transport)
            self.engine: Optional[RewritingEngine] = None
        elif self.engine_kind == "sequential":
            self.runtime = None
            self.engine = RewritingEngine(self.system, kernel=self.kernel)
        else:
            raise ShardError(f"unknown worker engine {self.engine_kind!r}")
        self.shipped = len(self.kernel.log.records)
        self.failures: List[str] = []

    # -- round execution -------------------------------------------------

    async def run_round(self) -> List[GraftRecord]:
        """Drive owned sites to local quiescence; the new local records."""
        perf.stats.shard_rounds += 1
        if self.runtime is not None:
            result = await self.runtime.arun()
            for failure in result.failures:
                self.failures.append(
                    f"!{failure.service}@{failure.document}: {failure.reason}")
        else:
            self.engine.run()
        fresh = [record for record in self.kernel.log.records[self.shipped:]
                 if record.shard is None]
        self.shipped = len(self.kernel.log.records)
        perf.stats.shard_records_shipped += len(fresh)
        return fresh

    # -- replica application ---------------------------------------------

    def apply_replica_record(self, record: GraftRecord) -> List[Node]:
        """Apply one shard-tagged record from the replication bus."""
        document = self.system.documents.get(record.document)
        index = self.by_uid.get(record.document)
        if document is None or index is None:
            raise ShardError(
                f"shard {self.shard}: record names unknown document "
                f"{record.document!r}")
        trees = [from_wire(wire) for wire in record.trees]
        for tree in trees:
            for node in tree.iter_nodes():
                node.version = next_stamp()
        target = index.get(record.site)
        if record.service == EXTERNAL_SERVICE:
            path = (find_path(document.root, target)
                    if target is not None else None)
            if path is None:
                raise ShardError(
                    f"shard {self.shard}: graft parent uid={record.site} is "
                    f"not live in replica {record.document!r}")
            inserted = graft_under(path, trees)
        else:
            path = (find_path(document.root, target)
                    if target is not None and target.is_function else None)
            if path is None or len(path) < 2:
                raise ShardError(
                    f"shard {self.shard}: call site uid={record.site} is "
                    f"not live in replica {record.document!r}")
            inserted = graft_trees(path, trees)
        for tree in inserted:
            for node in tree.iter_nodes():
                index[node.uid] = node
        self.kernel.log.append(record)
        perf.stats.shard_records_applied += 1
        if inserted:
            # Replica state changed: stale every outstanding no-op verdict
            # and re-verify proven no-ops — but do NOT schedule the new
            # call sites; their document's owner drives them.
            self.kernel.productive += 1
            self.kernel.scheduler.promote_tried()
            # Replica application bypasses apply_graft (and thus the graft
            # hooks), so feed the relevance tracker by hand: a peer's graft
            # can make one of *our* dormant owned sites weakly relevant.
            self.kernel.refresh_relevance(document, target, inserted)
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.SHARD_RECORD_APPLIED,
                         shard=self.shard, origin=record.shard,
                         document=record.document, service=record.service,
                         site=record.site, trees=len(record.trees))
        return inserted

    def apply_batch(self, records: List[GraftRecord]) -> int:
        applied = 0
        for record in records:
            self.apply_replica_record(record)
            applied += 1
        return applied

    # -- routed-call serving ---------------------------------------------

    def serve_call(self, message: Dict[str, Any]) -> List[dict]:
        """Evaluate a peer's routed call against this shard's documents."""
        service = self.system.services.get(message["service"])
        if service is None:
            raise ShardError(
                f"routed call names undeclared service {message['service']!r}")
        environment = dict(self.system.environment())
        if message.get("input") is not None:
            environment[INPUT] = from_wire(message["input"])
        if message.get("context") is not None:
            environment[CONTEXT] = from_wire(message["context"])
        answers = service.evaluate(environment)
        _validate_answers(service.name, answers)
        return [to_wire(answer) for answer in answers]

    # -- final state -----------------------------------------------------

    def validate_replay(self) -> None:
        """Replay seed + full log; :class:`ReplayDivergence` on mismatch.

        The log interleaves local records with shard-tagged replicated
        ones in application order, so this one check covers the whole
        consistency argument: if replication dropped, duplicated or
        reordered anything, the replayed forest cannot match the live
        replica.
        """
        seeds = self.kernel._seed_wire
        if seeds is None:
            return
        replayed = replay_prefix(seeds, self.kernel.log.records)
        for name, document in replayed.items():
            if (document.canonical_key()
                    != self.system.documents[name].canonical_key()):
                raise ReplayDivergence(
                    f"shard {self.shard}: document {name!r} replay is not "
                    "equivalent to the live replica")

    def final_state(self, validate: bool = True) -> Dict[str, Any]:
        replay_ok, replay_error = True, None
        if validate:
            try:
                self.validate_replay()
            except ReplayDivergence as exc:
                replay_ok, replay_error = False, str(exc)
        kernel = self.kernel
        return {
            "documents": {name: to_wire(self.system.documents[name].root)
                          for name in self.plan.owned(self.shard)},
            "replay_ok": replay_ok,
            "replay_error": replay_error,
            "steps": kernel.steps,
            "productive": kernel.productive,
            "log_records": len(kernel.log),
            "replayed": self.replayed,
            "failures": self.failures,
            "cpu_seconds": time.process_time(),
            "stats": {
                "shard_records_shipped": perf.stats.shard_records_shipped,
                "shard_records_applied": perf.stats.shard_records_applied,
                "shard_remote_calls": perf.stats.shard_remote_calls,
                "shard_rounds": perf.stats.shard_rounds,
                "graft_batch_bytes": perf.stats.graft_batch_bytes,
            },
        }


async def _amain(host: str, port: int, shard: int) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    channel = ShardChannel(reader, writer, shard)
    channel.start()
    await send_json(writer, {"kind": "hello", "shard": shard})
    init = await channel.control.get()
    if init.get("kind") != "init":
        raise ShardError(f"expected init, got {init.get('kind')!r}")
    worker = ShardWorker(shard, channel, init)
    channel.on_call = worker.serve_call
    if obs_bus.ACTIVE:
        obs_bus.emit(obs_events.SHARD_WORKER_STARTED, shard=shard,
                     nshards=worker.nshards,
                     owned=worker.plan.owned(shard),
                     replayed=worker.replayed)
    await send_json(writer, {"kind": "ready", "shard": shard,
                             "owned": worker.plan.owned(shard),
                             "replayed": worker.replayed})
    sequence = itertools.count()
    while True:
        message = await channel.control.get()
        kind = message["kind"]
        if kind == "round":
            fresh = await worker.run_round()
            if fresh:
                tagged = [replace(record, shard=shard) for record in fresh]
                await send_grafts(writer, pack_grafts(shard, next(sequence),
                                                      tagged))
            await send_json(writer, {
                "kind": "round_done", "shard": shard,
                "round": message["round"], "produced": len(fresh),
                "steps": worker.kernel.steps,
                "queue_depth": worker.kernel.scheduler.fresh_count(),
            })
        elif kind == "grafts":
            applied = worker.apply_batch(message["records"])
            await send_json(writer, {
                "kind": "applied", "shard": shard,
                "origin": message["origin"], "seq": message["seq"],
                "count": applied})
        elif kind == "finish":
            state = worker.final_state(
                validate=bool(message.get("validate", True)))
            await send_json(writer, {"kind": "state", "shard": shard,
                                     **state})
            break
        elif kind == "eof":
            return
        else:
            raise ShardError(f"unexpected control frame {kind!r}")
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def worker_main(host: str, port: int, shard: int) -> None:
    """Process entry point (must stay importable for the spawn method)."""
    asyncio.run(_amain(host, port, shard))
