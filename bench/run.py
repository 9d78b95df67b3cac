"""shapefn benchmark: three closed-loop workloads through the public entry
points, each checked against independent references.

    python3 bench/run.py --workload ledger_exact --seed 0 --seconds 40 --trace 0

Workloads (see workloads.py):
  ledger_exact  `shapefn verify` over balls and ellipsoids, d = 2..6; exact
                backends only.
  ledger_mc     `shapefn verify --walks 10000` over the cube, the square, a
                random 3-D polytope and a random heptagon; every T and cap is
                stochastic.
  slab_search   `maximize_constrained(G, d=4, epsilon=0.05)` at 1000 walks.

The workload seed generates the inputs: corpora and estimator seeds (the
slab search keeps criterion 10's search seed). After set-up, the run repeats
the workload's timed pass until --seconds have been spent and reports the
median. With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics of the first traced pass. Spans, counters and a record of
every run go to bench/out/. The program is imported from src/ of the
checkout; the run exits 2 without a result when src/shapefn is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path("bench/golden")
OUT = Path("bench/out")
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # at the start of a run and again at its end


def parse_args(spec, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="store this run's verify output as the golden files "
                         "(ledger workloads at the default seed)")
    return ap.parse_args(argv)


def source_hash(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_shapefn():
    """Seconds to import shapefn afresh. Earlier imports stay referenced by
    whoever holds them, so this does not disturb a run in progress."""
    for name in [m for m in sys.modules if m == "shapefn" or m.startswith("shapefn.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("shapefn")
    return time.perf_counter() - t0


def setup_samples(workload, n):
    """n timings each of a fresh shapefn import and of the workload's set-up
    (corpus generation and writing, building the bodies)."""
    imports = [import_shapefn() for _ in range(n)]
    setups = []
    for _ in range(n):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    return imports, setups


def machine_info():
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "source_sha256_16": source_hash(SRC / "shapefn"), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    if not (SRC / "shapefn" / "__init__.py").is_file():
        sys.stderr.write(f"no shapefn sources under {SRC}; run from a checkout\n")
        return 2
    os.chdir(ROOT)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    # shapefn's third-party imports load first, so that setup_s times the
    # package's own import (module code and compilation), not the loading
    # of numpy and scipy, whose time swings with the file cache
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401
    import scipy.special  # noqa: F401
    import_shapefn()
    import tracing
    import workloads

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    import_times, setup_times = setup_samples(workload, SETUP_REPEATS)

    tracer = tracing.Tracer(spans=bool(args.trace)).install()
    try:
        passes, layer, spans, traced, plain, problems = run_passes(
            workload, tracer, args, tracing.DETERMINISTIC)
    finally:
        tracer.uninstall()
    # set-up is sampled again after the passes, so that setup_s does not rest
    # on the machine's speed at one instant
    more = setup_samples(workload, SETUP_REPEATS)
    import_times += more[0]
    setup_times += more[1]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    for i, p in enumerate(passes):
        problems += [f"pass {i}: {why}" for why in p.problems]
        if p.outputs != passes[0].outputs:
            problems.append(f"pass {i}: output differs from pass 0 on the same input")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes),
              "pass_seconds": [p.seconds for p in passes],
              "setup_seconds": setup_times, "import_seconds": import_times,
              "attempted": attempted, "failed": failed,
              "machine": machine_info()}
    golden = golden_match(args, passes[0])
    if args.trace:
        layer["cli.golden_match"] = int(golden)
        layer["trace.overhead_s"] = (statistics.median(traced)
                                     - statistics.median(plain))
        problems += check_counters(args, layer, tracing.DETERMINISTIC)
        problems += [f"{k} = {layer[k]} on a workload designed to bypass it"
                     for k in workload.idle_layers if layer[k]]
        computed = layer
        write_json(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                   {"metrics": layer, "spans": spans, "run": result})
    else:
        wall_s = statistics.median(p.seconds for p in passes)
        computed = {"wall_s": wall_s, "setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0}
        factor = [p.info["s_to_1pct_factor"] for p in passes
                  if p.info.get("s_to_1pct_factor") is not None]
        result["s_to_1pct"] = wall_s * statistics.median(factor) if factor else None
        result["fail_frac"] = failed / attempted
        result["cli_golden_match"] = golden
        best = [p.info["best_over_gball"] for p in passes if "best_over_gball" in p.info]
        if best:
            result["best_value_over_gball_max"] = max(best)
    metrics = {name: computed[name] for name in units}
    result["metrics"] = metrics
    result["problems"] = problems
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(result) + "\n")

    report(args, result, problems, units)
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_passes(workload, tracer, args, deterministic):
    """Timed passes of the workload's one input until --seconds are spent.
    With tracing, passes alternate untraced and traced. The first, untraced pass
    warms caches and is left out of the tracing overhead; the per-layer
    metrics come from the first traced pass, and every later traced pass
    must repeat its deterministic counters."""
    passes, traced, plain, problems = [], [], [], []
    layer = spans = None
    start = time.perf_counter()
    while True:
        i = len(passes)
        if args.trace:
            is_traced = i % 2 == 1
            tracer.recording = is_traced
            tracer.reset()
            p = workload.run_pass(tracer)
            if is_traced:
                traced.append(p.seconds)
                counts = tracer.layer_metrics()
                if layer is None:
                    layer, spans = counts, tracer.dump_spans()
                problems += [f"pass {i}: counter {k} = {counts[k]}, first traced "
                             f"pass {layer[k]}" for k in deterministic
                             if counts[k] != layer[k]]
            elif i > 0:
                plain.append(p.seconds)
            tracer.recording = True
        else:
            tracer.reset()
            p = workload.run_pass(tracer)
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.seconds for q in passes)
        if elapsed + typical > args.seconds and (not args.trace or plain):
            return passes, layer, spans, traced, plain, problems


def golden_match(args, first):
    """True when the first pass's verify stdout and ledger JSON equal the
    stored golden files byte for byte (ledger workloads, default seed)."""
    if args.workload == "slab_search" or args.seed != DEFAULT_SEED:
        return False
    stdout, ledger = first.outputs if first.outputs else (None, None)
    paths = (GOLDEN / f"{args.workload}.stdout.json",
             GOLDEN / f"{args.workload}.ledger.json")
    if args.write_golden and stdout is not None:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        paths[0].write_text(stdout)
        paths[1].write_text(ledger)
    return all(p.exists() for p in paths) and \
        (paths[0].read_text(), paths[1].read_text()) == (stdout, ledger)


def check_counters(args, layer, deterministic):
    """Deterministic counters must repeat exactly at a fixed workload seed:
    they are stored per (workload, seed, hash of the program and benchmark
    sources) and compared on the next traced run of the same code."""
    counters = {k: layer[k] for k in deterministic}
    code = source_hash(SRC / "shapefn", ROOT / "bench")
    path = OUT / "counters" / f"{args.workload}-seed{args.seed}-{code}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = [f"{k}: {before.get(k)} then {v}" for k, v in counters.items()
                if before.get(k) != v]
        return [f"deterministic counter changed between runs: {d}" for d in diff]
    write_json(path, counters)
    return []


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def report(args, result, problems, units):
    """Human-readable lines before the result line: every metric with its
    unit, the failure ratio with its base, and the run's provenance."""
    m = result["metrics"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} passes, {result['attempted']} operations")
    for k, v in m.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    if not args.trace:
        if result["s_to_1pct"] is not None:
            print(f"  s_to_1pct = {result['s_to_1pct']:.6g} s")
        print(f"  fail_frac = {result['fail_frac']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
        if "best_value_over_gball_max" in result:
            print(f"  best G / G(B4) over passes = {result['best_value_over_gball_max']:.4f}"
                  f" (informational; criterion 10's full search reaches >= 0.9)")
        else:
            print(f"  cli.golden_match = {int(result['cli_golden_match'])} flag")
    print(f"  machine {json.dumps(result['machine'])}")
    for why in problems:
        print(f"  PROBLEM {why}")


if __name__ == "__main__":
    sys.exit(main())
