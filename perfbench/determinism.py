"""Determinism report: the benchmark's work counts repeat exactly for one seed.

Runs every workload traced twice on ``--seed`` and once on ``--other-seed``
and compares the counts that depend on the inputs only: pass runs and gates
removed, transpile calls, shots, compile-cache hits and misses, service
pool compiles, total CNOTs and the paper's geomeans.  Two runs of one seed
must agree exactly; the other seed must change at least one count of every
workload, which shows that each workload honours ``--seed``::

    python3 perfbench/determinism.py --seed 11 --other-seed 12

Exits non-zero when a count differs between the two runs of one seed, or a
workload ignores its seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: ``--seconds`` of each run; the counts come from the traced round, which
#: every run has however short it is.
SECONDS = 4
LAYER_COUNTS = ("compiler.calls", "sim.shots", "service.cache.hits",
                "service.cache.misses", "service.pool_compiles")
OUTPUT_COUNTS = ("cnots_total", "geomean_cnot_reduction", "geomean_success_ratio",
                 "toffoli_success_improvement")


def counts(workload: str, seed: int) -> dict:
    """Run one traced benchmark and pick its deterministic counts."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1", "--size", "full"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(
        (HERE / "out" / f"result-{workload}-seed{seed}-trace1.json").read_text())
    layers = result["per_layer"]
    picked = {name: layers[name] for name in LAYER_COUNTS}
    picked.update({name: value for name, value in layers.items()
                   if name.startswith("passes.") and name.endswith((".runs", ".gates_removed"))})
    picked.update({name: result["end_to_end"][name] for name in OUTPUT_COUNTS
                   if name in result["end_to_end"]})
    return picked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--other-seed", type=int, default=12)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        first = counts(workload, args.seed)
        second = counts(workload, args.seed)
        other = counts(workload, args.other_seed)
        differing = sorted(name for name in first if first[name] != second[name])
        moved = sorted(name for name in first if first[name] != other[name])
        print(f"{workload}: {len(first)} counts; seed {args.seed} twice: "
              f"{'identical' if not differing else 'DIFFERS ' + ', '.join(differing)}; "
              f"seed {args.other_seed} changes {len(moved)} of them "
              f"({', '.join(moved[:4])}{', ...' if len(moved) > 4 else ''})")
        for name in sorted(first):
            print(f"  {name:52s} {first[name]:>14.6g} {second[name]:>14.6g} "
                  f"{other[name]:>14.6g}")
        if differing or not moved:
            status = 1
    print("determinism: " + ("ok" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    sys.exit(main())
