"""The typed event taxonomy of the observability subsystem.

Every instrumented operation in the two engines emits one of the event
kinds below through :mod:`paxml.obs.bus`.  An event is a flat record —
kind, global sequence number, two clocks, and a JSON-safe payload dict —
so the same stream serialises losslessly to JSONL, renders as a Chrome
trace, and rebuilds the provenance index.

Taxonomy (the ``data`` keys each kind carries):

========================  =====================================================
kind                      payload
========================  =====================================================
``run_started``           engine, documents, services
``run_finished``          engine, status, steps, productive, seconds
``call_scheduled``        document, service, site
``attempt_started``       document, service, site, attempt
``attempt_finished``      document, service, site, attempt, seconds, answers
``attempt_failed``        document, service, site, attempt, reason, timeout
``retry``                 service, site, attempt, delay
``short_circuit``         service, site, wait
``circuit_trip``          peer, service
``stale_call``            document, service, site
``call_exhausted``        document, service, site, attempts, reason
``graft_applied``         document, service, site, step, trees — each tree a
                          record with root/nodes/parent/text plus provenance
                          (rule, rule_index, valuation, matched) when the
                          answer came from a positive query
``plan_compiled``         rule, atoms — each atom a record with document and
                          the planned (selectivity-ordered) pattern text
``plan_lowered``          rule, atoms — the plan was lowered to specialized
                          closures (once per plan, on first execution)
``store_warmed``          rows, interned_markings — a document tree was
                          (re)indexed wholesale into the subtree-bits cache
``tenant_created``        tenant, documents, services
``tenant_suspended``      tenant, bundle, steps, productive
``tenant_resumed``        tenant, bundle, steps, productive
``subscription_opened``   tenant, query, initial — a continuous query was
                          registered (or re-attached) with that many
                          already-known answers
``subscription_delta``    tenant, query, answers — a graft produced new
                          certain answers for one continuous query (emitted
                          once per query, not per subscriber); plus
                          trace_id/span_id when the causing graft was traced
``span``                  trace_id, span_id, parent_span_id, tenant, name,
                          ts_start, ts_end, wall, status, attrs — a finished
                          causal span (mirror of paxml.obs.trace sinks)
``serve_op``              tenant, op, seconds, ok, and trace_id when the
                          request was sampled — one handled server request
``watchdog_stall``        tenant, stalled_for, fresh, parked, tried,
                          attempts, open_breakers, last_graft_trace — a
                          session whose frontier stopped advancing
``flight_dump``           tenant ("*" = all), records, path, reason — a
                          flight-recorder post-mortem bundle was written
``shard_worker_started``  shard, nshards, owned, replayed — a shard worker
                          finished bootstrapping (replayed counts records
                          re-applied from the coordinator's shipped-log
                          prefix after a crash respawn)
``shard_record_applied``  shard, origin, document, service, site, trees —
                          one replicated graft record applied to a replica
``shard_round``           round, produced, workers — the coordinator closed
                          one bulk-synchronous replication round
``relevance_changed``     reason (seed/reseed/graft/external), promoted,
                          demoted, relevant, dormant — the lazy scheduler's
                          weakly-relevant set changed and sites moved between
                          the fresh and dormant queues
========================  =====================================================

``site`` is always the call node's uid; ``ts`` is a monotonic
``time.perf_counter`` stamp shared by both engines (the Chrome-trace
timeline axis), ``wall`` the epoch time of emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

RUN_STARTED = "run_started"
RUN_FINISHED = "run_finished"
CALL_SCHEDULED = "call_scheduled"
ATTEMPT_STARTED = "attempt_started"
ATTEMPT_FINISHED = "attempt_finished"
ATTEMPT_FAILED = "attempt_failed"
RETRY = "retry"
SHORT_CIRCUIT = "short_circuit"
CIRCUIT_TRIP = "circuit_trip"
STALE_CALL = "stale_call"
CALL_EXHAUSTED = "call_exhausted"
GRAFT_APPLIED = "graft_applied"
PLAN_COMPILED = "plan_compiled"
PLAN_LOWERED = "plan_lowered"
STORE_WARMED = "store_warmed"
CHECKPOINT_SAVED = "checkpoint_saved"
RUN_RESUMED = "run_resumed"
TENANT_CREATED = "tenant_created"
TENANT_SUSPENDED = "tenant_suspended"
TENANT_RESUMED = "tenant_resumed"
SUBSCRIPTION_OPENED = "subscription_opened"
SUBSCRIPTION_DELTA = "subscription_delta"
SPAN = "span"
SERVE_OP = "serve_op"
WATCHDOG_STALL = "watchdog_stall"
FLIGHT_DUMP = "flight_dump"
SHARD_WORKER_STARTED = "shard_worker_started"
SHARD_RECORD_APPLIED = "shard_record_applied"
SHARD_ROUND = "shard_round"
RELEVANCE_CHANGED = "relevance_changed"

ALL_KINDS = frozenset({
    RUN_STARTED, RUN_FINISHED, CALL_SCHEDULED, ATTEMPT_STARTED,
    ATTEMPT_FINISHED, ATTEMPT_FAILED, RETRY, SHORT_CIRCUIT, CIRCUIT_TRIP,
    STALE_CALL, CALL_EXHAUSTED, GRAFT_APPLIED, PLAN_COMPILED, PLAN_LOWERED,
    STORE_WARMED, CHECKPOINT_SAVED, RUN_RESUMED, TENANT_CREATED,
    TENANT_SUSPENDED, TENANT_RESUMED, SUBSCRIPTION_OPENED, SUBSCRIPTION_DELTA,
    SPAN, SERVE_OP, WATCHDOG_STALL, FLIGHT_DUMP, SHARD_WORKER_STARTED,
    SHARD_RECORD_APPLIED, SHARD_ROUND, RELEVANCE_CHANGED,
})


@dataclass
class Event:
    """One structured event; ``data`` holds only JSON-safe values."""

    __slots__ = ("kind", "seq", "ts", "wall", "data")

    kind: str
    seq: int
    ts: float     # monotonic (time.perf_counter) — orders/aligns timelines
    wall: float   # epoch seconds at emission
    data: Dict[str, Any]

    def to_json_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "seq": self.seq, "ts": self.ts,
                "wall": self.wall, "data": self.data}

    @classmethod
    def from_json_dict(cls, record: Dict[str, Any]) -> "Event":
        return cls(record["kind"], record["seq"], record["ts"],
                   record["wall"], record.get("data", {}))
