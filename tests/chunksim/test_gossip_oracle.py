"""Gossip state held as per-origin snapshots equals the flat copy.

A router keeps, per neighbour, a reference to the latest backlog
snapshot that neighbour gossiped.  The oracle below is the earlier
design: every delivery copies each entry of the snapshot into one
flat ``(origin, next_hop) -> bytes`` map, sent through the link's
generic ``send_control``.  Both must produce the same run, event for
event, on both chunk engines.
"""

import pytest

import repro.chunksim.network as network_module
from repro import build_isp_topology
from repro.chunksim import ChunkNetwork
from repro.chunksim.messages import Gossip
from repro.chunksim.router import Router
from repro.rng import make_rng
from repro.workloads import local_pairs


class FlatCopyRouter(Router):
    """Router with the flat per-delivery copy of gossiped state."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Detour options the gossiped state ruled out.
        self.vetoes = 0

    def start_gossip(self) -> None:
        if not self.config.gossip or self.mode != "inrpp":
            return
        self.sim.call_after(self.config.ti, self._gossip_tick)

    def _gossip_tick(self) -> None:
        message = Gossip(
            origin=self.node_id,
            backlog_bytes={
                neighbor: iface.link.queue_bytes + iface.custody.used_bytes
                for neighbor, iface in self.ifaces.items()
            },
        )
        for iface in self.ifaces.values():
            iface.link.send_control(message)
        self.sim.call_after(self.config.ti, self._gossip_tick)

    def _on_gossip(self, message, via_link=None) -> None:
        for next_hop, backlog in message.backlog_bytes.items():
            self.neighbor_backlog[(message.origin, next_hop)] = backlog

    def _gossip_clear(self, option) -> bool:
        for hop_from, hop_to in zip(option[1:], option[2:]):
            backlog = self.neighbor_backlog.get((hop_from, hop_to))
            if backlog is not None and backlog >= self._high_wm_bytes:
                self.vetoes += 1
                return False
        return True


def _run(engine: str, router_cls, monkeypatch) -> tuple:
    # Local transfers on exodus with staggered starts, like the
    # chunk-isp benchmark workload, packed tightly enough that custody
    # builds up and gossiped backlog rules detours out.
    topo = build_isp_topology("exodus", seed=0)
    sampler = local_pairs(topo, seed=4, max_hops=5)
    starts = make_rng(4, "gossip-oracle-starts")
    with monkeypatch.context() as patch:
        patch.setattr(network_module, "Router", router_cls)
        net = ChunkNetwork(topo, mode="inrpp", engine=engine)
    assert net.config.gossip
    assert all(type(router) is router_cls for router in net.routers.values())
    start = 0.0
    for _ in range(30):
        source, destination = sampler()
        net.add_flow(source, destination, 200, start_time=start)
        start += float(starts.exponential(0.002))
    report = net.run(duration=10.0, warmup=0.0)
    vetoes = sum(getattr(router, "vetoes", 0) for router in net.routers.values())
    return vetoes, (
        report.events_processed,
        report.detour_events,
        report.custody_events,
        report.drops,
        [
            (flow.flow_id, flow.received_chunks, flow.completion_time)
            for flow in report.flows
        ],
    )


@pytest.mark.parametrize("engine", ["modern", "reference"])
def test_snapshot_gossip_matches_flat_copy(engine, monkeypatch):
    vetoes, expected = _run(engine, FlatCopyRouter, monkeypatch)
    _, actual = _run(engine, Router, monkeypatch)
    # Detours are the only reader of gossiped state; make sure it was
    # read, and that it changed some decisions.
    assert expected[1] > 0
    assert vetoes > 0
    assert actual == expected
