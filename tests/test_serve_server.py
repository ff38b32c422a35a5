"""End-to-end tests of the JSONL/TCP server through the client.

Each test boots a real :class:`PaxmlServer` on an ephemeral port inside
one event loop and drives it with :class:`ServeClient` — the same code
path as ``paxml serve`` / ``paxml client``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from paxml.serve import PaxmlServer, ServeClient, ServeError, ServerOptions

TC_SYSTEM = """
@document d0
r{t{c0{1}, c1{2}}, t{c0{2}, c1{3}}}

@document d1
r{!g, !f}

@service g
t{c0{$x}, c1{$y}} :- d0/r{t{c0{$x}, c1{$y}}}

@service f
t{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}
"""

CLOSURE = "r{!f, !g, t{c0{1}, c1{2}}, t{c0{1}, c1{3}}, t{c0{2}, c1{3}}}"


def run_scenario(scenario, *, options=None):
    """Boot a server, run ``scenario(server, client)``, tear down."""
    async def main():
        server = PaxmlServer(options or ServerOptions())
        await server.start()
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            await server.shutdown()
    return asyncio.run(main())


def test_create_run_read_roundtrip():
    async def scenario(server, client):
        created = await client.create("alpha", TC_SYSTEM)
        assert created["documents"] == ["d0", "d1"]
        result = await client.run("alpha", timeout=30.0)
        assert result["fixpoint"]
        read = await client.read("alpha", "d1")
        assert read["tree"] == CLOSURE
    run_scenario(scenario)


def test_tenants_are_isolated():
    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        await client.create("beta", TC_SYSTEM)
        await client.run("alpha", timeout=30.0)
        await client.run("beta", timeout=30.0)
        # An injection into alpha must not leak into beta.
        await client.inject("alpha", "d0", "t{c0{3}, c1{4}}")
        await client.run("alpha", timeout=30.0)
        alpha = await client.read("alpha", "d1")
        beta = await client.read("beta", "d1")
        assert "c1{4}" in alpha["tree"]
        assert beta["tree"] == CLOSURE
        listing = await client.request("tenants")
        assert {t["tenant"] for t in listing["tenants"]} == {"alpha", "beta"}
    run_scenario(scenario)


def test_subscription_pushes_over_tcp():
    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        sub = await client.subscribe(
            "alpha", "pair{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$y}}}")
        await client.run("alpha", timeout=30.0)
        seen = set(sub["initial"])
        while len(seen) < 3:
            batch = await client.next_delta(sub["sub"], timeout=10.0)
            assert batch is not None, f"stream stalled at {sorted(seen)}"
            seen |= set(batch)
        assert seen == {"pair{c0{1}, c1{2}}", "pair{c0{2}, c1{3}}",
                        "pair{c0{1}, c1{3}}"}
        closed = await client.unsubscribe(sub["sub"])
        assert closed["closed"]
    run_scenario(scenario)


def test_two_tenants_subscribed_on_one_connection():
    """Subscription ids stay distinct across tenants: each stream gets
    only its tenant's deltas, unsubscribing one leaves the other
    flowing, and closing the connection ends both pumps."""
    pairs = "pair{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$y}}}"
    beta_system = TC_SYSTEM.replace("1}", "7}").replace(
        "2}", "8}").replace("3}", "9}")
    expected = {
        "alpha": {"pair{c0{1}, c1{2}}", "pair{c0{2}, c1{3}}",
                  "pair{c0{1}, c1{3}}"},
        "beta": {"pair{c0{7}, c1{8}}", "pair{c0{8}, c1{9}}",
                 "pair{c0{7}, c1{9}}"},
    }

    def live_pumps():
        return [task for task in asyncio.all_tasks()
                if not task.done() and task.get_coro().__qualname__
                == "_Connection._pump"]

    async def collect(client, sub, seen, want):
        while not want <= seen:
            batch = await client.next_delta(sub["sub"], timeout=10.0)
            assert batch is not None, f"stream stalled at {sorted(seen)}"
            seen |= set(batch)
        return seen

    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        await client.create("beta", beta_system)
        shared = await ServeClient.connect("127.0.0.1", server.port)
        subs = {name: await shared.subscribe(name, pairs)
                for name in ("alpha", "beta")}
        assert subs["alpha"]["sub"] != subs["beta"]["sub"]
        await client.run("alpha", timeout=30.0)
        await client.run("beta", timeout=30.0)
        for name, sub in subs.items():
            seen = await collect(shared, sub, set(sub["initial"]),
                                 expected[name])
            assert seen == expected[name], f"{name} got foreign deltas"
        assert len(live_pumps()) == 2

        await shared.unsubscribe(subs["alpha"]["sub"])
        await client.inject("beta", "d0", "t{c0{9}, c1{10}}")
        await client.run("beta", timeout=30.0)
        await collect(shared, subs["beta"], set(), {"pair{c0{9}, c1{10}}"})
        assert len(live_pumps()) == 1

        second = await shared.subscribe("alpha", pairs)
        assert len(live_pumps()) == 2
        await shared.close()
        for _ in range(200):
            if not live_pumps():
                break
            await asyncio.sleep(0.01)
        assert not live_pumps()
        for name, sub in (("alpha", second), ("beta", subs["beta"])):
            assert server.sessions[name].hub.get(sub["sub"]) is None
    run_scenario(scenario)


def test_errors_keep_the_connection_usable():
    async def scenario(server, client):
        with pytest.raises(ServeError, match="unknown tenant"):
            await client.read("ghost", "d0")
        with pytest.raises(ServeError, match="unknown op"):
            await client.request("frobnicate")
        with pytest.raises(ServeError):
            await client.create("bad/../name", TC_SYSTEM)
        with pytest.raises(ServeError, match="expected"):
            await client.create("alpha", "@chapter nope\nx")
        # After four failures the same connection still serves.
        created = await client.create("alpha", TC_SYSTEM)
        assert created["tenant"] == "alpha"
    run_scenario(scenario)


def test_suspend_and_transparent_resume(tmp_path):
    options = ServerOptions(spool_dir=str(tmp_path / "spool"))

    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        await client.run("alpha", timeout=30.0)
        before = await client.read("alpha", "d1")
        suspended = await client.request("suspend", tenant="alpha")
        assert suspended["suspended"]
        stats = await client.request("tenants")
        assert stats["tenants"][0]["suspended"]
        # The next touch resumes the tenant without any client ceremony.
        after = await client.read("alpha", "d1")
        assert after["tree"] == before["tree"]
        stats = await client.request("stats", tenant="alpha")
        assert not stats["suspended"]
    run_scenario(scenario, options=options)


def test_shutdown_spools_and_restart_restores(tmp_path):
    spool = str(tmp_path / "spool")

    async def first(server, client):
        await client.create("alpha", TC_SYSTEM)
        await client.run("alpha", timeout=30.0)
        return (await client.read("alpha", "d1"))["tree"]
    tree = run_scenario(first, options=ServerOptions(spool_dir=spool))

    manifest = json.load(open(f"{spool}/manifest.json"))
    assert manifest["alpha"]["bundle"]

    async def second(server, client):
        listing = await client.request("tenants")
        assert listing["tenants"][0]["suspended"]
        read = await client.read("alpha", "d1")
        assert read["tree"] == tree
    run_scenario(second, options=ServerOptions(spool_dir=spool))


def test_idle_janitor_spools_idle_tenants(tmp_path):
    options = ServerOptions(spool_dir=str(tmp_path / "spool"),
                            idle_suspend=0.2)

    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        await client.run("alpha", timeout=30.0)
        deadline = asyncio.get_event_loop().time() + 5.0
        while not server.sessions["alpha"].suspended:
            assert asyncio.get_event_loop().time() < deadline, \
                "janitor never spooled the idle tenant"
            await asyncio.sleep(0.05)
        # And the tenant comes back on touch, state intact.
        read = await client.read("alpha", "d1")
        assert read["tree"] == CLOSURE
    run_scenario(scenario, options=options)


def test_point_in_time_read_over_the_wire():
    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        await client.run("alpha", timeout=30.0)
        grafts = (await client.read("alpha", "d1"))["grafts"]
        await client.inject("alpha", "d0", "t{c0{3}, c1{4}}")
        await client.run("alpha", timeout=30.0)
        then = await client.read("alpha", "d1", at=grafts)
        now = await client.read("alpha", "d1")
        assert then["historical"] and "c1{4}" not in then["tree"]
        assert "c1{4}" in now["tree"]
    run_scenario(scenario)


def test_concurrent_clients_one_tenant():
    async def scenario(server, client):
        await client.create("alpha", TC_SYSTEM)
        second = await ServeClient.connect("127.0.0.1", server.port)
        try:
            sub = await second.subscribe(
                "alpha", "pair{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$y}}}")
            await client.run("alpha", timeout=30.0)
            seen = set(sub["initial"])
            while len(seen) < 3:
                batch = await second.next_delta(sub["sub"], timeout=10.0)
                assert batch is not None
                seen |= set(batch)
        finally:
            await second.close()
        # The subscriber's connection closing retired its subscription.
        deadline = asyncio.get_event_loop().time() + 5.0
        while server.sessions["alpha"].hub.subscriber_count():
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.01)
    run_scenario(scenario)


def test_oversized_request_gets_an_error_and_the_connection_survives():
    async def scenario(server, client):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        try:
            # A ~100 KB system: over the 64 KiB request-line limit.
            filler = ", ".join(f"t{{c0{{{i}}}, c1{{{i + 1}}}}}"
                               for i in range(5000))
            system = f"@document d0\nr{{{filler}}}\n"
            request = {"id": 1, "op": "create", "tenant": "big",
                       "system": system}
            line = json.dumps(request).encode() + b"\n"
            assert len(line) > 100_000
            # In pieces: the server first overruns its limit with no
            # newline in sight, then finds it in a later read.
            for start in range(0, len(line), 40_000):
                writer.write(line[start:start + 40_000])
                await writer.drain()
                await asyncio.sleep(0.02)
            writer.write(json.dumps({"id": 2, "op": "tenants"}).encode()
                         + b"\n")
            await writer.drain()
            error = json.loads(await asyncio.wait_for(reader.readline(), 10))
            assert error["ok"] is False
            assert error["error_type"] == "request_too_large"
            reply = json.loads(await asyncio.wait_for(reader.readline(), 10))
            assert reply["id"] == 2 and reply["ok"] is True
            assert reply["tenants"] == []
        finally:
            writer.close()
            await writer.wait_closed()
        assert "big" not in server.sessions
    run_scenario(scenario)
