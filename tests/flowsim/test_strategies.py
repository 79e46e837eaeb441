"""Strategy object tests (SP / ECMP / INRP)."""

import pytest

from repro.errors import ConfigurationError
from repro.flowsim import make_strategy
from repro.topology import Topology, fig3_topology
from repro.units import mbps


def test_factory_names():
    topo = fig3_topology()
    assert make_strategy("sp", topo).name == "SP"
    assert make_strategy("ECMP", topo).name == "ECMP"
    assert make_strategy("inrp", topo).name == "INRP"
    assert make_strategy("urp", topo).name == "INRP"  # paper's legend label
    with pytest.raises(ConfigurationError):
        make_strategy("ospf", topo)


def test_sp_allocation_matches_paper():
    topo = fig3_topology()
    strategy = make_strategy("sp", topo)
    flows = {
        1: (strategy.route(1, 1, 4), mbps(10)),
        2: (strategy.route(2, 1, 5), mbps(10)),
    }
    outcome = strategy.allocate(flows)
    assert outcome.rates[1] == pytest.approx(mbps(2))
    assert outcome.rates[2] == pytest.approx(mbps(8))
    assert outcome.switches == 0


def test_inrp_allocation_matches_paper():
    topo = fig3_topology()
    strategy = make_strategy("inrp", topo)
    flows = {
        1: (strategy.route(1, 1, 4), mbps(10)),
        2: (strategy.route(2, 1, 5), mbps(10)),
    }
    outcome = strategy.allocate(flows)
    assert outcome.rates[1] == pytest.approx(mbps(5))
    assert outcome.rates[2] == pytest.approx(mbps(5))
    assert outcome.switches >= 1


def test_inrp_backpressured_flows_reported():
    # Line with a hard bottleneck and no detour: the flow freezes with
    # "no-detour", i.e. the fluid equivalent of back-pressure.
    topo = Topology.from_links([(0, 1), (1, 2)], capacity=mbps(2))
    topo.set_capacity(0, 1, mbps(10))
    strategy = make_strategy("inrp", topo)
    flows = {1: (strategy.route(1, 0, 2), mbps(10))}
    outcome = strategy.allocate(flows)
    assert outcome.rates[1] == pytest.approx(mbps(2))
    assert outcome.backpressured == [1]


def test_ecmp_spreads_flows_on_square():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])
    strategy = make_strategy("ecmp", topo)
    routes = {strategy.route(fid, 0, 2) for fid in range(40)}
    assert routes == {(0, 1, 2), (0, 3, 2)}


def test_sp_route_is_cached_and_deterministic():
    topo = fig3_topology()
    strategy = make_strategy("sp", topo)
    assert strategy.route(1, 1, 4) is strategy.route(2, 1, 4)


def test_inrp_depth_zero_equals_sp():
    topo = fig3_topology()
    sp = make_strategy("sp", topo)
    inrp0 = make_strategy("inrp", topo, detour_depth=0)
    flows = {
        1: (sp.route(1, 1, 4), mbps(10)),
        2: (sp.route(2, 1, 5), mbps(10)),
    }
    assert inrp0.allocate(flows).rates == pytest.approx(sp.allocate(flows).rates)


def test_inrp_rejects_negative_depth():
    with pytest.raises(ConfigurationError):
        make_strategy("inrp", fig3_topology(), detour_depth=-1)


def test_inrp_pooling_fraction_scales_allocation():
    topo = fig3_topology()
    flows = {1: ((1, 2, 4), mbps(10))}
    half = make_strategy("inrp", topo, pooling_fraction=0.5)
    full = make_strategy("inrp", topo)
    assert half.allocate(flows).rates[1] == pytest.approx(mbps(3.5))
    assert full.allocate(flows).rates[1] == pytest.approx(mbps(5.0))


def test_inrp_rejects_bad_pooling_fraction():
    for bad in (-0.1, 1.01):
        with pytest.raises(ConfigurationError):
            make_strategy("inrp", fig3_topology(), pooling_fraction=bad)


def test_partial_pooling_fills_through_the_kernel(monkeypatch):
    """A pooled INRP allocator fills through ``kernel.inrp_fill`` (no
    second, scalar fill path) and gets the pooled rate."""
    from repro.flowsim import kernel

    calls = []
    original = kernel.inrp_fill

    def spy(*args, **kwargs):
        calls.append(kwargs.get("pooling_fraction"))
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "inrp_fill", spy)
    topo = fig3_topology()
    allocator = make_strategy(
        "inrp", topo, pooling_fraction=0.5
    ).incremental_allocator()
    allocator.add_flow(1, (1, 2, 4), mbps(10))
    rates, _, _ = allocator.recompute()
    assert calls == [0.5]
    assert rates[1] == pytest.approx(mbps(3.5))


@pytest.mark.parametrize("name", ["sp", "ecmp", "inrp"])
def test_incremental_allocator_rejects_unknown_kernel(name):
    strategy = make_strategy(name, fig3_topology())
    assert strategy.incremental_allocator(kernel="vectorized") is not None
    with pytest.raises(ConfigurationError, match="vectorized"):
        strategy.incremental_allocator(kernel="scalar")
