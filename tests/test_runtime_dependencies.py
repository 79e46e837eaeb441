"""The runtime imports only declared dependencies.

``numpy`` is the one hard dependency (``pyproject.toml``); networkx
serves the test suite as a cross-check oracle only.  The check runs in
a fresh interpreter, because this test process imports networkx for
the oracle tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_PROGRAM = """
import sys

import repro
from repro.chunksim import ChunkNetwork
from repro.flowsim.simulator import FlowLevelSimulator
from repro.flowsim.strategies import make_strategy
from repro.topology import build_isp_topology, fig3_topology
from repro.workloads import FlowWorkload, local_pairs

topo = build_isp_topology("vsnl", seed=0)
for name in ("sp", "inrp"):
    workload = FlowWorkload(
        topo, arrival_rate=50.0, mean_size_bits=1e6, demand_bps=1e6, seed=1,
        pair_sampler=local_pairs(topo, seed=2, max_hops=3),
    )
    specs = workload.generate(max_flows=20)
    result = FlowLevelSimulator(topo, make_strategy(name, topo), specs).run()
    assert result.records, name

ChunkNetwork(fig3_topology(), mode="inrpp")
assert "networkx" not in sys.modules, "repro imported networkx"
print("ok")
"""


def test_repro_never_imports_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    run = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
