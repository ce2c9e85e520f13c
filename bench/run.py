#!/usr/bin/env python3
"""Benchmark of the confloss command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (toytrain, flow_frames or stereo_frames; see
workloads.py) as a single-process, single-client closed loop: the next op
starts when the previous one has finished and its outputs are checked. Ops
run until their summed time reaches --seconds. The first op is an untimed
warm-up whose outputs are checked in full against the oracles.

--trace 0 prints every end-to-end metric and ends with one JSON line carrying
setup_s, ops_per_s, op_s_p50 and peak_rss_mb. --trace 1 alternates untraced
and traced ops, prints the per-layer table and ends with a JSON line of the
per-layer metrics (see tracing.py), the tracing overhead and the machine's
copy bandwidth. The program's outputs are checked on every op; a failed
check, a nonzero exit code or an exception counts the op as failed.

Exits 2 without a result when the checkout holds no confloss sources.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

import machine  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7  # setup_s sums the medians of this many imports and generations
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("toytrain", "flow_frames", "stereo_frames"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_runner(cli):
    """cli.main(argv) -> (exit code or exception text, stdout, seconds)."""

    def run_cli(argv):
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - an op failure, reported as such
            code = f"{type(exc).__name__}: {exc}"
        return code, buf.getvalue(), time.perf_counter() - t

    return run_cli


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that imports numpy and confloss."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import numpy, confloss.cli"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code], check=True)
    return time.perf_counter() - t


def median_or_none(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = machine.pin_threads()
    src = ROOT / "src"
    if not (src / "confloss" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"bench: {ROOT} holds no confloss sources and oracles", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import confloss.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported confloss from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads  # imports numpy: only after pin_threads()

    wl = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        imports, gens = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(src))
            workloads.reset(work)
            t = time.perf_counter()
            wl.generate(args.seed, work)
            gens.append(time.perf_counter() - t)
        setup_s = statistics.median(imports) + statistics.median(gens)
        return measure(args, wl, cli, setup_s, blas_threads)
    finally:
        workloads.reset(work)


def measure(args, wl, cli, setup_s: float, blas_threads: int) -> int:
    import numpy as np

    import common
    import tracing

    oracles = common.load_oracles(ROOT)
    run_cli = make_runner(cli)
    tracer = tracing.Tracer() if args.trace else None
    errors: list[str] = []
    counts = {"attempted": 0, "failed": 0}

    def one_op(index: int, traced: bool):
        wl.clear_outputs()
        if traced:
            tracer.op_id = index
            tracer.install()
        try:
            t = time.perf_counter()
            result = wl.run_op(run_cli)
            result.seconds = time.perf_counter() - t
        finally:
            if traced:
                tracer.uninstall()
        try:
            wl.check(oracles, result, np.random.default_rng([args.seed, index]), full=index == 0)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
            result.errors.append(f"output check raised {type(exc).__name__}: {exc}")
        counts["attempted"] += 1
        if result.errors:
            counts["failed"] += 1
            errors.extend(f"op {index}: {e}" for e in result.errors[:3])
        return result

    one_op(0, False)  # warm-up: untimed, checked in full
    plain, traced = [], []
    timed, index = 0.0, 1
    while timed < args.seconds or (tracer and not traced):
        use_trace = tracer is not None and index % 2 == 0
        result = one_op(index, use_trace)
        (traced if use_trace else plain).append(result)
        timed += result.seconds
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for line in errors[:20]:
        print(f"# FAILED {line}", file=sys.stderr)

    env = machine.environment(ROOT, args.seed, blas_threads)
    print("# env " + json.dumps(env))
    seconds = [r.seconds for r in plain]
    e2e = {  # the metrics of BENCHMARK.json
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "op_s_p50": (statistics.median(seconds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = dict(e2e)
    report["failed_op_ratio"] = (counts["failed"] / counts["attempted"], "ratio")
    if len(seconds) >= P90_MIN_SAMPLES:
        report["op_s_p90"] = (statistics.quantiles(seconds, n=10)[-1], "s")
    for stage in wl.stages:
        samples = [ms for r in plain for ms in r.stages.get(stage, [])]
        report[f"{stage}_ms_p50"] = (median_or_none(samples), "ms")
    if wl.name == "toytrain":
        report["train_steps_per_s"] = (wl.train_steps / statistics.median(seconds), "1/s")
    print(f"# {wl.name}: {len(seconds)} timed ops, {counts['attempted']} attempted "
          f"(warm-up included), {counts['failed']} failed")
    print("# op seconds: " + " ".join(f"{s:.3f}" for s in seconds))
    if "op_s_p90" not in report:
        print(f"# op_s_p90 not reported: {len(seconds)} samples, "
              f"needs {P90_MIN_SAMPLES} for ten beyond the 90th percentile")
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{wl.name:14s} {name:28s} {shown:>12s} {unit}")

    if tracer is None:
        metrics = e2e
    else:
        t_sec = [r.seconds for r in traced]
        metrics = tracer.layer_metrics(len(t_sec), sum(t_sec))
        metrics["trace.ops_per_s_traced"] = (len(t_sec) / sum(t_sec), "1/s")
        metrics["trace.ops_per_s_untraced"] = e2e["ops_per_s"]
        metrics["trace.overhead_pct"] = (
            100.0 * (1.0 - metrics["trace.ops_per_s_traced"][0] / e2e["ops_per_s"][0]), "%")
        spans = ROOT / ".bench_work" / f"spans_{wl.name}_seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"# {len(tracer.names)} spans written to {spans.relative_to(ROOT)}")
        llc = machine.llc_bytes()
        bandwidth, array_mb = machine.copy_bandwidth(llc)
        metrics["machine.copy_gb_per_s"] = (bandwidth, "GB/s")
        print(f"# copy bandwidth over a {array_mb:.0f} MB array "
              f"(LLC {llc / 1e6:.0f} MB): {bandwidth:.2f} GB/s")
        print(f"# per-layer, per traced op ({len(t_sec)} traced, {len(seconds)} untraced ops)")
        for name, (value, unit) in metrics.items():
            print(f"{wl.name:14s} {name:48s} {value:14.6g} {unit}")

    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
