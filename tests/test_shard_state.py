"""Per-process shard state: stamp-clock striding and worker bootstrap.

Two invariants carry the whole cross-process consistency story:

* stamps minted in shard *i* of *N* always lie in the residue class
  ``i (mod N)``, through both :func:`configure_stamp_clock` and every
  later :func:`advance_stamp_clock`, so nodes minted concurrently in
  different workers can never collide when their wire forms meet in a
  replica;
* a worker's perf flags come from the coordinator's **explicit**
  snapshot, never from ambient process globals — under ``fork`` the
  child would otherwise inherit a mid-run copy of the parent's
  switchboard, and under ``spawn`` it would silently fall back to
  compiled-in defaults.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from paxml import perf
from paxml.obs import bus as obs_bus
from paxml.shard.bootstrap import bootstrap_worker
from paxml.tree.node import (
    advance_stamp_clock,
    configure_stamp_clock,
    next_stamp,
    stamp_clock_config,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(autouse=True)
def _restore_globals():
    saved = perf.flags.snapshot()
    yield
    perf.flags.apply(saved)
    perf.stats.reset()
    obs_bus.reset()
    configure_stamp_clock(offset=0, stride=1)


class TestStampClock:
    def test_configured_residue_class_holds(self):
        configure_stamp_clock(offset=2, stride=5)
        stamps = [next_stamp() for _ in range(50)]
        assert all(stamp % 5 == 2 for stamp in stamps)
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 50

    def test_configure_starts_past_current_counter(self):
        before = next_stamp()
        start = configure_stamp_clock(offset=1, stride=4)
        assert start > before
        assert start % 4 == 1

    def test_advance_preserves_residue_class(self):
        configure_stamp_clock(offset=3, stride=4)
        advance_stamp_clock(1_000_003)
        stamp = next_stamp()
        assert stamp > 1_000_003
        assert stamp % 4 == 3

    def test_advance_below_current_is_a_noop_forward(self):
        configure_stamp_clock(offset=0, stride=2)
        first = next_stamp()
        advance_stamp_clock(first - 100)
        second = next_stamp()
        assert second > first
        assert second % 2 == 0

    def test_config_is_queryable(self):
        configure_stamp_clock(offset=1, stride=3)
        assert stamp_clock_config() == (1, 3)

    def test_distinct_shards_never_collide(self):
        minted = []
        for shard in range(3):
            configure_stamp_clock(offset=shard, stride=3)
            minted.append({next_stamp() for _ in range(100)})
        assert not (minted[0] & minted[1])
        assert not (minted[0] & minted[2])
        assert not (minted[1] & minted[2])

    @pytest.mark.parametrize("offset,stride", [(-1, 2), (2, 2), (0, 0)])
    def test_bad_configuration_rejected(self, offset, stride):
        with pytest.raises(ValueError):
            configure_stamp_clock(offset=offset, stride=stride)


class TestFlagsSnapshotApply:
    def test_roundtrip(self):
        snapshot = perf.flags.snapshot()
        perf.flags.graft_log = not snapshot["graft_log"]
        perf.flags.apply(snapshot)
        assert perf.flags.snapshot() == snapshot

    def test_unknown_keys_ignored(self):
        perf.flags.apply({"not_a_real_flag": True})
        assert not hasattr(perf.flags, "not_a_real_flag")

    def test_env_disabled_flags_stay_off(self, monkeypatch):
        monkeypatch.setattr(perf, "_ENV_DISABLED",
                            frozenset({"graft_log"}))
        perf.flags.apply({"graft_log": True})
        assert perf.flags.graft_log is False

    def test_env_disabling_an_unknown_flag_is_an_error(self):
        # A misspelt or deleted flag name must fail loudly at import, not
        # pass while testing nothing.
        env = dict(os.environ, PAXML_DISABLE_FLAGS="graft_log,no_such_flag")
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", "import paxml"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert out.returncode != 0
        assert "ValueError" in out.stderr
        assert "no_such_flag" in out.stderr
        for name in perf.flags.snapshot():
            assert name in out.stderr

    def test_env_disabling_known_flags_applies(self):
        env = dict(os.environ,
                   PAXML_DISABLE_FLAGS=" graft_log , incremental_matching")
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c",
             "import json; from paxml import perf; "
             "print(json.dumps(perf.flags.snapshot()))"],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        flags = json.loads(out.stdout)
        assert flags["graft_log"] is False
        assert flags["incremental_matching"] is False
        assert flags["tracing"] is True


class TestBootstrapInProcess:
    def test_resets_stats_and_bus_and_applies_flags(self):
        perf.stats.subsumption_hits += 41
        obs_bus.enable()
        effective = bootstrap_worker(1, 2,
                                     {"graft_log": False,
                                      "canonical_key_cache": False})
        assert perf.stats.subsumption_hits == 0
        assert not obs_bus.ACTIVE
        assert effective["graft_log"] is False
        assert effective["canonical_key_cache"] is False
        assert stamp_clock_config() == (1, 2)

    def test_obs_active_reenables_bus(self):
        bootstrap_worker(0, 1, None, obs_active=True)
        assert obs_bus.ACTIVE


# ----------------------------------------------------------------------
# Cross-process: the worker must see the explicit config, not whatever
# the parent process (fork) or the module defaults (spawn) would give.
# ----------------------------------------------------------------------

def _fork_child(conn, flags):
    try:
        effective = bootstrap_worker(1, 4, flags)
        stamp = next_stamp()
        conn.send({"flags": effective, "stamp": stamp,
                   "subsumption_hits": perf.stats.subsumption_hits,
                   "bus_active": obs_bus.ACTIVE})
    finally:
        conn.close()


def test_forked_worker_uses_explicit_config_not_parent_globals():
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    # Pollute the parent: flags flipped, stats nonzero, bus enabled —
    # everything a forked child would wrongly inherit.
    perf.flags.graft_log = False
    perf.flags.subsumption_cache = False
    perf.stats.subsumption_hits = 999
    obs_bus.enable()
    explicit = dict(perf.flags.snapshot(), graft_log=True,
                    subsumption_cache=True, canonical_key_cache=False)

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_fork_child, args=(child_conn, explicit))
    process.start()
    child_conn.close()
    report = parent_conn.recv()
    process.join(timeout=30)

    assert report["flags"]["graft_log"] is True
    assert report["flags"]["subsumption_cache"] is True
    assert report["flags"]["canonical_key_cache"] is False
    assert report["subsumption_hits"] == 0
    assert report["bus_active"] is False
    assert report["stamp"] % 4 == 1


_SPAWN_SCRIPT = """
import json, sys
from paxml import perf
from paxml.shard.bootstrap import bootstrap_worker
from paxml.tree.node import next_stamp

flags = json.loads(sys.argv[1])
effective = bootstrap_worker(3, 4, flags)
print(json.dumps({"flags": effective, "stamp": next_stamp()}))
"""


def test_spawned_worker_applies_explicit_config_over_defaults():
    # A fresh interpreter (what the spawn start method gives a worker)
    # boots with compiled-in defaults; the explicit snapshot must win.
    explicit = dict(perf.flags.snapshot(), graft_log=False,
                    canonical_key_cache=False)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _SPAWN_SCRIPT, json.dumps(explicit)],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    report = json.loads(out.stdout)
    assert report["flags"]["graft_log"] is False
    assert report["flags"]["canonical_key_cache"] is False
    assert report["stamp"] % 4 == 3
