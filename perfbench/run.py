"""End-to-end benchmark of the Trios reproduction, with a traced per-layer run.

Run one workload from the repository root::

    python3 perfbench/run.py --workload fig9_11_sweep --seed 11 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another.  The
workloads (see :mod:`workloads`) drive the public API only.  The command
clears ``REPRO_VALIDATE``, ``REPRO_TRACE`` and ``REPRO_FAULTS`` so that it
times the compiler rather than the contract checker or the program's own
tracer, and leaves BLAS threading as users get it (it is recorded).

Each run has three phases:

* **set-up** (``setup_s``): the median of three imports of the ``repro``
  modules, each in a fresh interpreter, plus the workload's untimed warm-up
  round (and, for the service, the cold pre-warm of its cache);
* **timed rounds**: whole cycles of the workload's rounds (every cycle on
  the same inputs) while another cycle fits in ``--seconds`` seconds, and
  at least one; they give the end-to-end metrics.  Throughput and CPU per
  op are medians over the rounds, so one heavy draw of inputs or one burst
  of load on the host moves them little; latency is over every op.  With
  ``--trace 1`` the rounds run for half the time and are followed by one
  round with the layer shims of :mod:`tracing` installed, on the inputs of
  the first round; the output is then the per-layer metrics of that traced
  round;
* **checks**, outside the timed region: every output of the last round is
  verified (see ``check`` of each workload), and every round, warm-up
  included, must reproduce the warm-up's results exactly.

Lines of the form ``metric <name> <value> <unit>`` report every metric;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output is correct and no op failed.  The full result and,
for a traced run, every span are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("fig9_11_sweep", "toffoli_fig8", "service_warm_stream")
PINNED_ENV = ("REPRO_VALIDATE", "REPRO_TRACE", "REPRO_FAULTS")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORTED = ("repro.experiments.benchmarks", "repro.experiments.toffoli", "repro.service")

#: Units of the metrics printed but not listed in BENCHMARK.json, which lists
#: only metrics that every workload emits, that are never 0 and that repeat
#: within their bound: the latency tail and peak RSS of
#: toffoli_fig8 follow its few widest triplets, and failures and mismatches
#: are 0 (they set ``correct``, ``failed`` and the exit code instead).
PRINTED_UNITS = {
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "toffoli_success_improvement": "ratio",
    "failed_ops_ratio": "ratio",
    "output_mismatches": "count",
    "latency_samples": "count",
    "rounds": "count",
}

#: Which end-to-end metric, on which workload, each per-layer metric should
#: move (longest matching prefix wins).
FEEDS = (
    ("compiler.", "ops_per_s on fig9_11_sweep (slightly on toffoli_fig8)"),
    ("passes.", "ops_per_s on fig9_11_sweep"),
    ("sim.estimator", "ops_per_s on fig9_11_sweep"),
    ("sim.sampler", "ops_per_s on toffoli_fig8"),
    ("sim.shots", "ops_per_s on toffoli_fig8"),
    ("bench_circuits.", "latency_p50_ms on service_warm_stream"),
    ("circuits.", "latency_p50_ms on service_warm_stream"),
    ("service.jobs.", "latency_p50_ms on service_warm_stream"),
    ("service.cache.get_s", "latency_p50_ms on service_warm_stream"),
    ("service.cache.hit", "latency_p50_ms on service_warm_stream"),
    ("service.cache.", "ops_per_s on fig9_11_sweep (every op is a put)"),
    ("service.", "latency_p99_ms (the miss path) on service_warm_stream"),
    ("runtime.", "latency_p99_ms on service_warm_stream, ops_per_s on toffoli_fig8"),
    ("experiments.unattributed_s", "every time metric: dark time, in no layer span"),
    ("trace_overhead_ratio", "none: the cost of the traced run itself"),
)


def feeds(name: str) -> str:
    matches = [(len(prefix), text) for prefix, text in FEEDS if name.startswith(prefix)]
    return max(matches)[1] if matches else ""


def load_file(name: str, path: Path):
    """Import a helper module of the repository by path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_imports(repeats: int = 3) -> float:
    """Median time a fresh interpreter takes to import the modules the
    workloads use, as a user's process pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "; ".join(f"import {m}" for m in IMPORTED)]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_rounds(workload, seconds: float) -> list:
    """Untraced whole cycles of rounds while another cycle fits in
    ``seconds`` of timed work (checks between rounds are not timed)."""
    rounds = []
    while True:
        rounds += [workload.run_round(None, index) for index in range(workload.cycle)]
        cycles = len(rounds) // workload.cycle
        if sum(r.wall for r in rounds) * (cycles + 1) / cycles > seconds:
            return rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        status |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            check=False,
        ).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import_s = time_imports()
    # The same imports again in this process, already counted in import_s.
    import tracing
    import workloads

    setup_start = time.perf_counter()
    freeze = load_file("freeze_fig9_10_reference",
                       ROOT / "benchmarks" / "freeze_fig9_10_reference.py")
    reference = json.loads(
        (ROOT / "tests" / "data" / "fig9_10_compiled_sha256.json").read_text())["hashes"]
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.size == "tiny", reference, freeze.canonical_bytes)
    workload.setup()
    setup_s = import_s + time.perf_counter() - setup_start

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_rounds(workload, untraced_seconds)
    traced, tracer = [], None
    if args.trace:
        # One traced round, on the inputs of the first untraced round, so
        # its counts are those of a fixed input and its time compares with
        # that round's.
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced = [workload.run_round(tracer, 0)]

    problems = workload.check()
    first_of_seed = {workload.warmup.seed: workload.warmup}
    for index, round_ in enumerate(untraced + traced, start=1):
        earlier = first_of_seed.setdefault(round_.seed, round_)
        if round_.fingerprint != earlier.fingerprint:
            problems.append(f"round {index} differs from an earlier round on the same inputs")

    timed = untraced + traced
    attempted = sum(r.ops for r in timed)
    failed = sum(r.failed for r in timed)
    latencies = [value for r in untraced for value in r.latencies]
    outputs = dict(untraced[0].outputs, **workload.extra_outputs())
    end_to_end = {
        "ops_per_s": statistics.median([r.ops / r.wall for r in untraced]),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p99_ms": tracing.percentile(latencies, 99) * 1000.0,
        "cpu_ms_per_op": statistics.median([r.cpu / r.ops for r in untraced]) * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **outputs,
    }
    reported = {
        "failed_ops_ratio": failed / attempted,
        "output_mismatches": len(problems),
        "latency_samples": len(latencies),
        "rounds": len(untraced),
    }

    layers = {}
    if args.trace:
        pass_names = [m["name"][len("passes."):-len(".self_s")]
                      for m in spec["per_layer"]
                      if m["name"].startswith("passes.") and m["name"].endswith(".self_s")]
        (round_,) = traced
        layers = tracing.layer_metrics(tracer.spans, pass_names,
                                       round_.counts.get("service.pool_compiles", 0))
        for name in ("service.batches", "service.pool_compiles",
                     "service.cache.evictions", "service.cache.bytes"):
            layers[name] = round_.counts.get(name, 0)
        layers["trace_overhead_ratio"] = round_.wall / untraced[0].wall

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    # bench_metadata asks git for the revision; keep git from searching
    # directories above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    common = load_file("_common", ROOT / "benchmarks" / "_common.py")
    meta = dict(common.bench_metadata(f"perfbench/{args.workload}"),
                nproc=os.cpu_count(), seed=args.seed, seconds=args.seconds,
                trace=args.trace, size=args.size,
                blas_env={name: os.environ.get(name) for name in BLAS_ENV})
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    units = dict(PRINTED_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for name, value in {**end_to_end, **reported}.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, value in sorted(layers.items()):
        unlisted = "" if name in units else "  (not in BENCHMARK.json)"
        print(f"metric {name} {value:.6g} {units.get(name, '?')}  -> {feeds(name)}{unlisted}")
    if args.trace:
        self_seconds = tracing.layer_self_seconds(tracer.spans)
        print(f"layer self seconds {json.dumps(self_seconds, sort_keys=True)}; "
              f"sum {sum(self_seconds.values()):.6f} s vs traced round time "
              f"{traced[0].wall:.6f} s")
    for problem in problems:
        print(f"MISMATCH {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"meta": meta, "end_to_end": end_to_end, "reported": reported,
         "per_layer": layers, "problems": problems}, indent=1, sort_keys=True))
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"meta": meta, "spans": [s.to_json() for s in tracer.spans]}))

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
