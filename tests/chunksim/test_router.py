"""Router pipeline tests: FIB forwarding, detours, back-pressure relay."""

import pytest

from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.chunksim.messages import Backpressure, DataChunk, Gossip
from repro.chunksim.tracing import Trace
from repro.topology import Topology, fig3_topology, line_topology
from repro.units import mbps


def test_fibs_point_along_shortest_paths():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrpp")
    assert net.routers[1].fib[4] == 2
    assert net.routers[2].fib[4] == 4
    assert net.routers[3].fib[4] == 4
    assert net.routers[5].fib[1] == 2


def test_detour_options_oriented_per_router():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrpp")
    assert net.routers[2].detour_options[4] == [(2, 3, 4)]
    assert net.routers[4].detour_options[2] == [(4, 3, 2)]
    # The access link 1-2 has no detour.
    assert net.routers[1].detour_options[2] == []


def test_tunnel_chunks_follow_forced_hops():
    # Inject a tunnelled chunk at router 2 and verify it goes via 3.
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrpp")
    net.add_flow(1, 4, num_chunks=1)  # registers receiver app at 4
    chunk = DataChunk(
        flow_id=0, chunk_id=0, size_bytes=10_000,
        receiver=4, sender=1, tunnel=(3, 4),
    )
    router2 = net.routers[2]
    router2.forward(chunk, next_hop=3, upstream=1)
    net.sim.run(until=1.0)
    receiver = net.routers[4].receiver_app.flows[0]
    assert len(receiver.received) == 1
    # 2 -> 3 -> 4 is two router hops from injection.
    assert receiver.hops_total == 2


def test_unroutable_data_counts_as_drop():
    topo = line_topology(2)
    net = ChunkNetwork(topo, mode="inrpp")
    trace = net.trace
    chunk = DataChunk(flow_id=5, chunk_id=0, size_bytes=100, receiver="ghost")
    via = net.routers[1].ifaces[0].link  # the 1 -> 0 direction
    net.routers[0].receive(chunk, via)
    assert net.routers[0].drops == 1
    assert trace.count("data-unroutable") == 1


def test_backpressure_relay_toward_sender():
    # BP arriving at a transit router must be relayed along the FIB
    # toward the flow's sender.
    topo = line_topology(4, capacity=mbps(10))
    net = ChunkNetwork(topo, mode="inrpp")
    net.add_flow(0, 3, num_chunks=1)
    signal = Backpressure(
        flow_id=0, congested_link=(2, 3), allowed_bps=1e6, origin=2
    )
    signal.sender = 0
    net.routers[2]._on_backpressure(signal)
    net.sim.run(until=0.1)
    assert net.trace.count("bp-relayed") >= 1
    # The sender app saw it and switched the flow's mode.
    sender = net.routers[0].sender_app
    assert sender.flows[0].mode == "backpressure" or sender.bp_signals >= 1


def test_gossip_state_propagates():
    topo = fig3_topology()
    config = ChunkSimConfig(ti=0.05)
    net = ChunkNetwork(topo, mode="inrpp", config=config)
    net.sim.run(until=0.3)
    # Router 2 must know about node 3's interfaces by now.
    assert 3 in net.routers[2].neighbor_backlog


def _gossip_line():
    # 0 -- 1 -- 2 with a 2 Mbps bottleneck out of router 1, so the
    # backlog router 1 gossips keeps changing under a long transfer.
    topo = Topology()
    topo.add_link(0, 1, capacity=mbps(10), delay=0.01)
    topo.add_link(1, 2, capacity=mbps(2), delay=0.01)
    net = ChunkNetwork(topo, mode="inrpp", config=ChunkSimConfig(ti=0.05))
    net.add_flow(0, 2, num_chunks=10_000_000)
    origin = net.routers[1]
    sent = []  # (arrival time, receiver, message, copy made at send time)
    call_after = origin._call_after

    def spy(delay, fn, *args):
        if args and isinstance(args[0], Gossip):
            message, link = args
            sent.append(
                (net.sim.now + delay, link.dst, message, dict(message.backlog_bytes))
            )
        call_after(delay, fn, *args)

    # The first tick is already scheduled; every later one, and every
    # delivery, goes through the spy.
    origin._call_after = spy
    return net, origin, sent


def test_gossip_view_is_the_snapshot_sent_one_delay_earlier():
    net, origin, sent = _gossip_line()
    neighbour = net.routers[0]
    differs_from_live = False
    checked = 0
    while checked < 40:
        net.sim.run(until=net.sim.now + 0.01)
        arrivals = [entry for entry in sent if entry[1] == 0]
        if not arrivals:
            continue
        arrival, _, message, copy = arrivals[-1]
        net.sim.run(until=arrival)
        view = neighbour.neighbor_backlog[1]
        assert view is message.backlog_bytes
        assert view == copy
        live = {
            hop: iface.link.queue_bytes + iface.custody.used_bytes
            for hop, iface in origin.ifaces.items()
        }
        differs_from_live = differs_from_live or view != live
        checked += 1
        sent.clear()
    # Otherwise the test could not tell a snapshot from the live state.
    assert differs_from_live


def test_gossip_snapshots_are_never_mutated_after_sending():
    net, origin, sent = _gossip_line()
    net.sim.run(until=1.0)
    held = net.routers[0].neighbor_backlog[1]
    held_copy = dict(held)
    net.sim.run(until=3.0)
    assert held == held_copy
    for _, _, message, copy in sent:
        assert message.backlog_bytes == copy
    snapshots = [message.backlog_bytes for _, _, message, _ in sent]
    # One fresh dict per tick, shared by both neighbours, and the
    # backlog moved meanwhile.
    assert len({id(snapshot) for snapshot in snapshots}) == len(sent) // 2
    assert any(snapshot != held_copy for snapshot in snapshots)


def test_aimd_mode_has_no_detour_or_custody():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="aimd")
    f1 = net.add_flow(1, 4, num_chunks=2_000)
    report = net.run(duration=4.0, warmup=0.0)
    assert report.detour_events == 0
    assert report.custody_events == 0
