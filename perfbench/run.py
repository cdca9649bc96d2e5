"""ndppmap benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
The workload is rebuilt from the seed, then its operations run back to back
for S seconds.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Spans, per-operation
records and the machine description go to .perfbench_out/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 120
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def metric_units(trace):
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up once, print the seconds it took, and exit")
    return ap.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at nproc before numpy loads; returns (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        want = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        want = nproc
    threads = max(1, min(want, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def machine(nproc, threads):
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def source_digest():
    """Digest of the package and benchmark sources, keying the exact-count record."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "ndppmap"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def pin(cpu_index):
    """Move the calling thread to one allowed CPU, or back to all of them.

    Each vCPU of a shared host can slow down on its own for minutes at a
    time, so the benchmark spreads its set-ups and operations over the CPUs
    it may use rather than letting one CPU's slow spell set a whole run.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS) if cpu_index is None else {CPUS[cpu_index % len(CPUS)]})


def measure_setup(args):
    """Median seconds of SETUP_REPEATS fresh processes that import, generate,
    write kernel files and warm up, started on each CPU in turn.  Each time is
    scaled to the nominal host speed by reference timings taken on the same
    CPU right before and after the process."""
    import speed

    times = []
    try:
        for i in range(SETUP_REPEATS):
            pin(i)
            refs = [speed.DETERMINANTS.time_s()]
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
            )
            refs.append(speed.DETERMINANTS.time_s())
            times.append(speed.normalize(float(proc.stdout.strip().splitlines()[-1]), refs))
    finally:
        pin(None)
    return statistics.median(times), times


def end_to_end(records):
    """Latency quantiles over successful operations and successes per second
    of operation time, all at the nominal host speed."""
    lat = sorted(r["norm_s"] for r in records if r["error"] is None)
    if len(lat) < 2:
        raise RuntimeError(f"only {len(lat)} successful operations; cannot take percentiles")
    # Inclusive quantiles interpolate between samples and never extrapolate
    # past the slowest one, which matters at a few samples per run.
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
        "ops_per_s": len(lat) / sum(r["norm_s"] for r in records),
    }, {"samples": len(lat), "above_p90": sum(1 for x in lat if x > p90)}


def check_counts(workload, seed, counts_by_pass):
    """Exact counts must agree across passes and with earlier runs of this seed."""
    problems = [f"pass {i} counts differ from pass 0"
                for i, c in enumerate(counts_by_pass) if c != counts_by_pass[0]]
    path = os.path.join(OUT, f"counts-{workload}-seed{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            if json.load(fh) != counts_by_pass[0]:
                problems.append(f"counts differ from the earlier run recorded in {path}")
    else:
        with open(path, "w") as fh:
            json.dump(counts_by_pass[0], fh, indent=1, sort_keys=True)
    return problems


def run_loop(wl, seconds, tracer):
    """Closed loop over the pass for `seconds` and at least one full pass.
    Returns (records, traced pairs, elapsed)."""
    records, pairs = [], []
    # A fixed stream of CPU choices; a plain rotation would put every
    # special kernel of a block on the same CPU.
    cpu_choice = random.Random(0)
    t0 = time.perf_counter()
    i = 0
    while True:
        op = wl.ops[i % len(wl.ops)]
        pin(cpu_choice.randrange(max(len(CPUS), 1)))
        if tracer is None:
            records.append(wl.execute(op))
        else:
            # Each operation runs untraced and traced, in alternating order,
            # so the tracing overhead is measured pair by pair.
            pair = {}
            for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if use_trace:
                    with tracer.tracing(i):
                        pair[True] = wl.execute(op)
                else:
                    pair[False] = wl.execute(op)
            records.extend(pair.values())
            pairs.append((pair[False], pair[True]))
        i += 1
        if time.perf_counter() - t0 >= seconds and i >= len(wl.ops):
            elapsed = time.perf_counter() - t0
            pin(None)
            return records, pairs, elapsed


def traced_metrics(args, tracer, pairs, npass, info):
    """Per-layer metrics of the first traced pass; exact counts must repeat
    in every later full pass and in earlier runs of this seed."""
    from spans import EXACT_COUNTS, layer_metrics

    by_pass = [
        layer_metrics(tracer.spans, {j: pairs[j][1] for j in range(p * npass, (p + 1) * npass)})
        for p in range(len(pairs) // npass)
    ]
    metrics, info["layers"] = by_pass[0]
    metrics["trace.overhead_frac"] = (
        sum(t["norm_s"] for _, t in pairs) / sum(u["norm_s"] for u, _ in pairs) - 1.0
    )
    info["passes_traced"] = len(by_pass)
    problems = check_counts(args.workload, args.seed,
                            [{k: m[k] for k in EXACT_COUNTS} for m, _ in by_pass])
    with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(tracer.dump(), fh)
    return metrics, problems


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ndppmap", "__init__.py")):
        print(f"perfbench: no ndppmap package under {SRC}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    nproc, threads = cap_blas_threads()
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")

    if args.setup_only:
        try:
            import workloads

            workloads.build(args.workload, args.seed, workdir)
            print(time.perf_counter() - T_START)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s, setup_runs = (None, []) if args.trace else measure_setup(args)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        records, pairs, elapsed = run_loop(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"{r['label']}: {r['error']}" for r in records if r["failed"]]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(nproc, threads),
            "setup_runs_s": setup_runs, "elapsed_s": elapsed}
    if tracer is None:
        metrics, info["latency_samples"] = end_to_end(records)
        metrics["setup_s"] = setup_s
    else:
        metrics, count_problems = traced_metrics(args, tracer, pairs, len(wl.ops), info)
        problems += count_problems
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    info.update(records=records, problems=problems, result=result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(info, fh, indent=1)
    print("machine: " + json.dumps(info["machine"], sort_keys=True))
    for prefix in wl.known_failures:
        hits = sum(r["known"] and r["error"].startswith(prefix) for r in records)
        print(f"known failure {prefix!r}: {hits} of {len(records)} operations")
    if tracer is None:
        print("latency samples: " + json.dumps(info["latency_samples"]))
    else:
        for name, row in info["layers"].items():
            print(f"layer {name}: calls/op {row['calls']:.4g} busy {row['busy_s']:.4g} s/op "
                  f"self {row['self_s']:.4g} s/op")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
