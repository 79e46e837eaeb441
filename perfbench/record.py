#!/usr/bin/env python3
"""Record the workloads' expected simulated outputs into ``expected.json``.

Run from the root of a checkout, only when the simulated outputs are
meant to change (the run is then no longer comparable with earlier
ones)::

    python3 perfbench/record.py                 # the recorded seeds
    python3 perfbench/record.py --seeds 0 7     # a chosen set

Each seed gets one fingerprint per input of the workload (see
``Workload.inputs`` in :mod:`perfbench.workloads`), from one untraced
run, written one fingerprint a line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Seed 0 is the default; 1-9 cover the seeds a run sweep usually
#: takes; 104729 was used by no run while the workloads were tuned.
DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 104729)


def dumps(table: dict) -> str:
    """``table`` as JSON with one fingerprint a line."""
    workloads = []
    for name in sorted(table):
        seeds = []
        for seed in sorted(table[name], key=int):
            rows = ",\n".join(
                "   " + json.dumps(fingerprint, sort_keys=True)
                for fingerprint in table[name][seed]
            )
            seeds.append(f"  {json.dumps(seed)}: [\n{rows}\n  ]")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(seeds) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--out", type=Path, default=EXPECTED)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, input_seed

    table = json.loads(args.out.read_text()) if args.out.is_file() else {}
    for name in args.workloads or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            fingerprints = []
            for index in range(workload.inputs):
                prepared = workload.setup(input_seed(seed, index))
                fingerprint = workload.fingerprint(workload.run(prepared))
                problems = workload.check(fingerprint)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {'; '.join(problems)}")
                fingerprints.append(fingerprint)
            table.setdefault(name, {})[str(seed)] = fingerprints
            args.out.write_text(dumps(table))
            print(f"{name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
