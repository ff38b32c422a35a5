"""The transactional graft log.

Every productive graft the kernel applies becomes one serializable
:class:`GraftRecord`: the call site's uid, the service name, the target
document, the step ordinal, and the inserted answer trees in the
uid-stable wire form of :func:`paxml.tree.serializer.to_wire`.  The log
is the durable half of checkpointing — replaying it against a seed
snapshot of the documents reconstructs the checkpointed state
deterministically (grafting is deterministic given identical prior
state, and wire trees carry their original uids, so even the node
identities the scheduler frontier refers to are reproduced).

Retention is governed by ``perf.flags.graft_log``; with the flag off the
kernel appends nothing (PR 4 behaviour, for memory-constrained runs) and
a checkpoint falls back to the fresh document snapshot alone — still
resumable, just not replayable.

The log doubles as the shard replication stream (PR 9): workers ship
their new records to peers, which apply them to replica documents and
append them shard-tagged (``record.shard``) to their own logs.  For that
traffic — and for checkpoint bundles, whose graft tail dominates the
file — this module also provides the compact batched wire codec
(:func:`encode_batch` / :func:`decode_batch`): length-prefixed binary
framing with a per-batch interned string table, so a label or service
name appearing in a thousand records costs its bytes once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from .. import perf


@dataclass
class GraftRecord:
    """One applied graft, in fully serializable form.

    ``trees`` holds the inserted answer trees as wire dicts (marking,
    uid, version, children — see ``paxml.tree.serializer.to_wire``).
    ``obs`` optionally carries the ``graft_applied`` event payloads
    (canonical text plus staged provenance) captured when tracing was
    active at graft time; resume re-emits them so derivation provenance
    survives a crash.  ``trace`` optionally carries the causal
    :class:`paxml.obs.trace.TraceContext` wire dict of the request chain
    that produced the graft (the end-to-end causality contract: the same
    ``trace_id`` shows up on the subscription deltas and flight-recorder
    entries this graft caused).  ``shard`` tags records that crossed a
    shard boundary with the *originating* shard id (``None`` for grafts
    this process computed itself), so a sharded worker's log records
    which peer each replicated graft came from.
    """

    step: int
    document: str
    service: str
    site: int
    trees: List[Dict[str, Any]]
    obs: Optional[List[Dict[str, Any]]] = None
    trace: Optional[Dict[str, Any]] = None
    shard: Optional[int] = None

    def to_json_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "step": self.step, "document": self.document,
            "service": self.service, "site": self.site, "trees": self.trees,
        }
        if self.obs is not None:
            record["obs"] = self.obs
        if self.trace is not None:
            record["trace"] = self.trace
        if self.shard is not None:
            record["shard"] = self.shard
        return record

    @classmethod
    def from_json_dict(cls, record: Dict[str, Any]) -> "GraftRecord":
        return cls(step=record["step"], document=record["document"],
                   service=record["service"], site=record["site"],
                   trees=record["trees"], obs=record.get("obs"),
                   trace=record.get("trace"), shard=record.get("shard"))


class GraftLog:
    """An append-only list of :class:`GraftRecord`, optionally retained.

    ``base_step`` is the step ordinal the retained tail starts after —
    zero for a log grown from the seed snapshot, the checkpoint's step
    count for a log carried across a resume whose bundle had retention
    off (the seed is then the resumed snapshot itself).
    """

    def __init__(self, retain: bool = True, base_step: int = 0):
        self.retain = retain
        self.base_step = base_step
        self.records: List[GraftRecord] = []

    def append(self, record: GraftRecord) -> None:
        if not self.retain:
            return
        self.records.append(record)
        perf.stats.graft_log_records += 1

    def tail(self, n: int) -> List[GraftRecord]:
        return self.records[-n:] if n else []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


# ----------------------------------------------------------------------
# Compact batched wire codec.
#
# Layout (all integers LEB128 varints unless noted):
#
#   magic  b"PXG1"
#   varint string-count, then per string: varint byte-length + UTF-8 bytes
#   varint record-count, then per record:
#     varint step · varint document-ref · varint service-ref · varint site
#     flag byte (1=obs, 2=trace, 4=shard) · [varint shard]
#     varint tree-count · trees
#     [varint length + UTF-8 JSON] for obs, then trace, when flagged
#
# A tree is: marking tag byte (0 label-ref, 1 funname-ref, 2 string-value
# ref, 3 zigzag-varint int, 4 float64 big-endian, 5 true, 6 false),
# varint uid · varint version · varint child-count · children.
#
# Every string (document/service names, labels, function names, string
# atoms) is a reference into the per-batch table, so repetition across a
# batch — the common case: one service grafting hundreds of answers over
# the same few labels — costs one varint per occurrence.  The obs/trace
# side-channels stay JSON blobs: they are optional provenance, present
# only when tracing was on, and their schema belongs to paxml.obs.
# ----------------------------------------------------------------------

BATCH_MAGIC = b"PXG1"

_FLOAT64 = struct.Struct(">d")
_F_OBS, _F_TRACE, _F_SHARD = 1, 2, 4
_M_LABEL, _M_FUN, _M_STR, _M_INT, _M_FLOAT, _M_TRUE, _M_FALSE = range(7)


class CodecError(ValueError):
    """The packed batch is malformed or not a PXG1 payload."""


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError(f"varint fields must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> "tuple[int, int]":
    result = shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


class _Interner:
    """First-use-ordered string table built while encoding bodies."""

    def __init__(self) -> None:
        self.table: List[str] = []
        self._index: Dict[str, int] = {}

    def ref(self, text: str) -> int:
        ref = self._index.get(text)
        if ref is None:
            ref = self._index[text] = len(self.table)
            self.table.append(text)
        return ref


def _encode_tree(out: bytearray, interner: _Interner, wire: Dict[str, Any]) -> None:
    marking = wire["m"]
    if "l" in marking:
        out.append(_M_LABEL)
        _write_varint(out, interner.ref(marking["l"]))
    elif "f" in marking:
        out.append(_M_FUN)
        _write_varint(out, interner.ref(marking["f"]))
    else:
        value = marking["v"]
        if value is True:
            out.append(_M_TRUE)
        elif value is False:
            out.append(_M_FALSE)
        elif isinstance(value, str):
            out.append(_M_STR)
            _write_varint(out, interner.ref(value))
        elif isinstance(value, int):
            out.append(_M_INT)
            _write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)
        elif isinstance(value, float):
            out.append(_M_FLOAT)
            out.extend(_FLOAT64.pack(value))
        else:
            raise CodecError(f"unencodable atomic value {value!r}")
    _write_varint(out, wire["u"])
    _write_varint(out, wire["v"])
    children = wire.get("c", ())
    _write_varint(out, len(children))
    for child in children:
        _encode_tree(out, interner, child)


def _decode_tree(data: bytes, pos: int,
                 table: List[str]) -> "tuple[Dict[str, Any], int]":
    if pos >= len(data):
        raise CodecError("truncated tree")
    tag = data[pos]
    pos += 1
    if tag == _M_LABEL:
        ref, pos = _read_varint(data, pos)
        marking: Dict[str, Any] = {"l": table[ref]}
    elif tag == _M_FUN:
        ref, pos = _read_varint(data, pos)
        marking = {"f": table[ref]}
    elif tag == _M_STR:
        ref, pos = _read_varint(data, pos)
        marking = {"v": table[ref]}
    elif tag == _M_INT:
        zigzag, pos = _read_varint(data, pos)
        marking = {"v": (zigzag >> 1) ^ -(zigzag & 1)}
    elif tag == _M_FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated float value")
        marking = {"v": _FLOAT64.unpack_from(data, pos)[0]}
        pos += 8
    elif tag == _M_TRUE:
        marking = {"v": True}
    elif tag == _M_FALSE:
        marking = {"v": False}
    else:
        raise CodecError(f"unknown marking tag {tag}")
    uid, pos = _read_varint(data, pos)
    version, pos = _read_varint(data, pos)
    count, pos = _read_varint(data, pos)
    wire: Dict[str, Any] = {"m": marking, "u": uid, "v": version}
    if count:
        children = []
        for _ in range(count):
            child, pos = _decode_tree(data, pos, table)
            children.append(child)
        wire["c"] = children
    return wire, pos


def _write_blob(out: bytearray, payload: Any) -> None:
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    _write_varint(out, len(blob))
    out.extend(blob)


def _read_blob(data: bytes, pos: int) -> "tuple[Any, int]":
    length, pos = _read_varint(data, pos)
    if pos + length > len(data):
        raise CodecError("truncated JSON blob")
    return json.loads(data[pos:pos + length]), pos + length


def encode_batch(records: Sequence[GraftRecord]) -> bytes:
    """Pack a batch of graft records into the compact binary form."""
    interner = _Interner()
    body = bytearray()
    _write_varint(body, len(records))
    for record in records:
        _write_varint(body, record.step)
        _write_varint(body, interner.ref(record.document))
        _write_varint(body, interner.ref(record.service))
        _write_varint(body, record.site)
        flags = ((_F_OBS if record.obs is not None else 0)
                 | (_F_TRACE if record.trace is not None else 0)
                 | (_F_SHARD if record.shard is not None else 0))
        body.append(flags)
        if record.shard is not None:
            _write_varint(body, record.shard)
        _write_varint(body, len(record.trees))
        for tree in record.trees:
            _encode_tree(body, interner, tree)
        if record.obs is not None:
            _write_blob(body, record.obs)
        if record.trace is not None:
            _write_blob(body, record.trace)
    out = bytearray(BATCH_MAGIC)
    _write_varint(out, len(interner.table))
    for text in interner.table:
        encoded = text.encode("utf-8")
        _write_varint(out, len(encoded))
        out.extend(encoded)
    out.extend(body)
    perf.stats.graft_batches_encoded += 1
    perf.stats.graft_batch_bytes += len(out)
    return bytes(out)


def decode_batch(data: bytes) -> List[GraftRecord]:
    """Unpack :func:`encode_batch` output; field-for-field round trip.

    ``data`` must be exactly one batch; any malformation, trailing bytes
    included, raises :class:`CodecError`.
    """
    try:
        records, pos = _decode_records(data)
    except (UnicodeDecodeError, IndexError, json.JSONDecodeError,
            RecursionError) as exc:
        raise CodecError(f"malformed PXG1 batch: {exc}") from None
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after the batch")
    return records


def _decode_records(data: bytes) -> "tuple[List[GraftRecord], int]":
    if data[:4] != BATCH_MAGIC:
        raise CodecError("not a PXG1 graft batch")
    pos = 4
    n_strings, pos = _read_varint(data, pos)
    table: List[str] = []
    for _ in range(n_strings):
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated string table")
        table.append(data[pos:pos + length].decode("utf-8"))
        pos += length
    n_records, pos = _read_varint(data, pos)
    records: List[GraftRecord] = []
    for _ in range(n_records):
        step, pos = _read_varint(data, pos)
        doc_ref, pos = _read_varint(data, pos)
        service_ref, pos = _read_varint(data, pos)
        site, pos = _read_varint(data, pos)
        if pos >= len(data):
            raise CodecError("truncated record flags")
        flags = data[pos]
        pos += 1
        shard: Optional[int] = None
        if flags & _F_SHARD:
            shard, pos = _read_varint(data, pos)
        n_trees, pos = _read_varint(data, pos)
        trees = []
        for _ in range(n_trees):
            tree, pos = _decode_tree(data, pos, table)
            trees.append(tree)
        obs = trace = None
        if flags & _F_OBS:
            obs, pos = _read_blob(data, pos)
        if flags & _F_TRACE:
            trace, pos = _read_blob(data, pos)
        records.append(GraftRecord(step=step, document=table[doc_ref],
                                   service=table[service_ref], site=site,
                                   trees=trees, obs=obs, trace=trace,
                                   shard=shard))
    return records, pos
