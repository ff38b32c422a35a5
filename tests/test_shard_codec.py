"""The PXG1 compact batched graft codec and its checkpoint integration.

The codec (PR 9) is the wire format shared by shard replication and
checkpoint bundles: a batch of :class:`GraftRecord` packs into one
length-prefixed binary blob with a per-batch interned string table.
These tests pin the round-trip contract (field-for-field equality,
every marking kind, the optional obs/trace/shard side-channels), the
compression claim against the JSONL spelling, and backward
compatibility: format-1 bundles with one readable ``graft`` record per
line still load and resume.
"""

from __future__ import annotations

import base64
import json
import random
from dataclasses import replace

import pytest

from paxml import perf
from paxml.kernel import RunStatus, load_bundle, resume
from paxml.kernel.graft import CodecError, GraftRecord, decode_batch, encode_batch
from paxml.system import RewritingEngine, materialize
from paxml.tree import parse_tree
from paxml.tree.serializer import to_wire
from paxml.workloads import portal_system


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.flags.set_all(True)
    perf.stats.reset()
    yield
    perf.flags.set_all(True)
    perf.stats.reset()


def wire(text: str) -> dict:
    return to_wire(parse_tree(text))


def make_record(step: int = 0, **overrides) -> GraftRecord:
    fields = dict(step=step, document="d", service="g",
                  site=41, trees=[wire("a{b{\"x\"}, !g{c}}")])
    fields.update(overrides)
    return GraftRecord(**fields)


class TestRoundtrip:
    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_single_record_field_for_field(self):
        record = make_record()
        assert decode_batch(encode_batch([record])) == [record]

    def test_every_marking_kind_roundtrips(self):
        record = make_record(trees=[
            wire('root{leaf, !call{p}, "string", 42, -17, 3.5, true, false}'),
        ])
        assert decode_batch(encode_batch([record])) == [record]

    def test_optional_fields_roundtrip(self):
        records = [
            make_record(0),
            make_record(1, obs=[{"text": "a{b}", "staged": True}]),
            make_record(2, trace={"trace_id": "t1", "span_id": "s1"}),
            make_record(3, shard=0),
            make_record(4, obs=[{"text": "c"}], trace={"trace_id": "t2"},
                        shard=7),
        ]
        assert decode_batch(encode_batch(records)) == records

    def test_unicode_and_hostile_strings(self):
        record = make_record(
            document="docs/日本語", service="svc-α",
            trees=[wire('`weird label {}`{"v\\"al‽"}')])
        assert decode_batch(encode_batch([record])) == [record]

    def test_random_batches(self):
        rng = random.Random(9)
        labels = ["a", "b", "长", "d-e"]

        def random_tree(depth: int) -> dict:
            kind = rng.randrange(6)
            if kind == 0 and depth < 3:
                children = [random_tree(depth + 1)
                            for _ in range(rng.randrange(3))]
                tree = {"m": {"l": rng.choice(labels)},
                        "u": rng.randrange(1, 1 << 40),
                        "v": rng.randrange(1, 1 << 40)}
                if children:
                    tree["c"] = children
                return tree
            marking = rng.choice([
                {"l": rng.choice(labels)}, {"f": rng.choice(labels)},
                {"v": rng.choice(labels)}, {"v": rng.randrange(-1000, 1000)},
                {"v": rng.random() * 100 - 50}, {"v": rng.random() < 0.5},
            ])
            return {"m": marking, "u": rng.randrange(1, 1 << 40),
                    "v": rng.randrange(1, 1 << 40)}

        records = [
            GraftRecord(step=i, document=rng.choice(labels),
                        service=rng.choice(labels),
                        site=rng.randrange(1, 1 << 32),
                        trees=[random_tree(0)
                               for _ in range(rng.randrange(1, 4))],
                        shard=rng.choice([None, 0, 1, 2]))
            for i in range(50)
        ]
        assert decode_batch(encode_batch(records)) == records

    def test_counters_tick(self):
        blob = encode_batch([make_record()])
        assert perf.stats.graft_batches_encoded == 1
        assert perf.stats.graft_batch_bytes == len(blob)


class TestCompactness:
    def test_packed_beats_jsonl_on_a_real_log(self):
        system = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                               seed=3)
        engine = RewritingEngine(system)
        engine.run()
        records = engine.kernel.log.records
        assert len(records) >= 5
        jsonl = "\n".join(json.dumps(r.to_json_dict(), separators=(",", ":"))
                          for r in records).encode()
        packed = encode_batch(records)
        assert len(packed) < len(jsonl)
        assert decode_batch(packed) == records


class TestMalformed:
    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            decode_batch(b"NOPE" + b"\x00" * 8)

    def test_truncation_rejected(self):
        blob = encode_batch([make_record()])
        with pytest.raises(CodecError):
            decode_batch(blob[:len(blob) // 2])

    def test_trailing_bytes_rejected(self):
        blob = encode_batch([make_record()])
        with pytest.raises(CodecError, match="trailing bytes"):
            decode_batch(blob + b"\x00")
        with pytest.raises(CodecError, match="trailing bytes"):
            decode_batch(blob + blob)

    def test_mutants_decode_or_raise_codec_error(self):
        # A real portal log, with the JSON side-channels and shard tags
        # filled in so every field of the format can be hit.
        system = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                               seed=3)
        engine = RewritingEngine(system)
        engine.run()
        records = [
            replace(record, obs=[{"text": f"n{i}", "staged": True}],
                    trace={"trace_id": f"t{i}", "span_id": "s"}, shard=i)
            if i % 2 else record
            for i, record in enumerate(engine.kernel.log.records)]
        blob = encode_batch(records)
        assert decode_batch(blob) == records
        rng = random.Random(20)
        outcomes = {"decoded": 0, "rejected": 0}
        for _ in range(1500):
            data = bytearray(blob)
            kind = rng.randrange(3)
            if kind == 0:
                data = data[:rng.randrange(len(data))]
            elif kind == 1:
                for _ in range(rng.randint(1, 4)):
                    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            else:
                data.insert(rng.randrange(len(data) + 1), 0xFF)
            try:
                decoded = decode_batch(bytes(data))
            except CodecError:
                outcomes["rejected"] += 1
            else:
                assert all(isinstance(r, GraftRecord) for r in decoded)
                outcomes["decoded"] += 1
        assert outcomes["rejected"] > 1000


class TestBundleCompatibility:
    def _checkpoint(self, tmp_path):
        system = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                               seed=3)
        engine = RewritingEngine(system)
        engine.run(max_steps=6)
        path = tmp_path / "run.ckpt"
        engine.checkpoint(str(path))
        return path

    def test_new_bundles_carry_one_packed_batch(self, tmp_path):
        path = self._checkpoint(tmp_path)
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        assert records[0]["format"] == 2
        kinds = [r["kind"] for r in records]
        assert kinds.count("grafts") == 1 and "graft" not in kinds

    def test_legacy_per_line_grafts_still_load(self, tmp_path):
        """A format-1 bundle — readable ``graft`` records — still resumes."""
        path = self._checkpoint(tmp_path)
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        downgraded = []
        for record in records:
            if record["kind"] == "grafts":
                for graft in decode_batch(base64.b64decode(record["packed"])):
                    downgraded.append({"kind": "graft",
                                       **graft.to_json_dict()})
            else:
                if record["kind"] == "header":
                    record = dict(record, format=1)
                downgraded.append(record)
        legacy = tmp_path / "legacy.ckpt"
        legacy.write_text("\n".join(json.dumps(r) for r in downgraded) + "\n")

        assert (load_bundle(str(legacy)).grafts
                == load_bundle(str(path)).grafts)
        engine = resume(str(legacy), replay=True)
        result = engine.run()
        assert result.status is RunStatus.TERMINATED

        reference = portal_system(6, materialized_fraction=0.3,
                                  n_irrelevant=2, seed=3)
        materialize(reference)
        assert reference.equivalent_to(engine.system)
