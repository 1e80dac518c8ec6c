"""Run one workload of the service benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload seek --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced blocks of equal length and
reports the per-layer metrics of the traced blocks, plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the run's config record and a readable table. The full
result, and in a traced run every span, is written under
``perfbench/out/``. The exit code is 0 only when every correctness check
passed.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Traced runs alternate untraced and traced blocks, this many in all.
TRACE_BLOCKS = 4
#: CPU ms of one ``workloads.yardstick_ms`` probe on the reference
#: host. Measured-phase times are reported at that host speed: a
#: latency is divided, a rate multiplied, by median probe / reference.
YARDSTICK_REF_MS = 2.5
NPROC = len(os.sched_getaffinity(0))

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "served_frac": "ratio",
    "read_psnr_db": "dB", "cells_per_pixel": "cells/px",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "playback", "seek",
                                 "aged_repair"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


async def drive(bench, args, timer):
    """Set up, then run the measured blocks; returns the block list."""
    loop = asyncio.get_running_loop()
    executor = ThreadPoolExecutor(max_workers=NPROC)
    loop.set_default_executor(executor)
    try:
        await bench.setup()
        bench.setup_s = time.perf_counter() - _T0
        blocks = []
        if args.replay:
            await bench.replay()
            return blocks
        count = TRACE_BLOCKS if timer is not None else 1
        for number in range(count):
            traced = number % 2 == 1
            before = len(bench.records)
            probes = len(bench.yardstick)
            if traced:
                timer.install()
            try:
                elapsed = await bench.run_block(args.seconds / count,
                                                timer if traced else None)
            finally:
                if traced:
                    timer.uninstall()
            blocks.append({"traced": traced, "elapsed": elapsed,
                           "records": bench.records[before:],
                           "slowdown": slowdown(bench.yardstick[probes:])})
        return blocks
    finally:
        await bench.close()
        executor.shutdown(wait=True)


def slowdown(probes):
    """Host slowdown against the reference host, from probe samples.

    The median, not the mean: one stall of a few ms inflates the mean
    of 2.5 ms probes far more than it moves a latency percentile.
    """
    return statistics.median(probes) / YARDSTICK_REF_MS


def replay_child(args):
    """Set up a fresh process on the same inputs and replay the prefix.

    Returns its ``setup_s``, the digest of its first
    ``Workload.replay_ops`` ops and the problems its checks found.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--replay"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=90)
    if proc.returncode != 0:
        raise RuntimeError(f"replay process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(bench, blocks, workloads):
    """The ``--trace 0`` metrics plus the per-op-type readable table.

    Table rows are ``name -> (value, unit, as measured)``; the last is
    set for the times that are reported at reference-host speed.
    """
    records = [(r, b["slowdown"]) for b in blocks for r in b["records"]]
    elapsed = sum(b["elapsed"] for b in blocks)
    factor = sum(b["slowdown"] * b["elapsed"] for b in blocks) / elapsed
    attempted = len(records)
    failed = sum(r["failed"] for r, _ in records)
    latency = {kind: [(r["ms"], r["ms"] / f) for r, f in records
                      if r["kind"] == kind]
               for kind in ("put", "get", "get_frame")}
    primary = [norm for _, norm
               in latency[workloads.PRIMARY_OP[bench.name]]]
    rate = attempted / elapsed
    metrics = {
        "setup_s": bench.setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": sum(len(b["records"]) * b["slowdown"]
                         for b in blocks) / elapsed,
        "op_p50_ms": percentile(primary, 50),
        "op_p90_ms": percentile(primary, 90),
        "served_frac": (attempted - failed) / attempted,
        "read_psnr_db": bench.read_psnr_db(),
        "cells_per_pixel": bench.cells_per_pixel,
    }
    table = {"setup_s": (metrics["setup_s"], "s", None),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB", None),
             "ops_per_s": (metrics["ops_per_s"], "1/s", rate),
             "failed_frac": (failed / attempted, "ratio", None)}
    for kind, pairs in latency.items():
        if pairs:
            for q in (50, 90):
                table[f"{kind}_p{q}_ms"] = (
                    percentile([norm for _, norm in pairs], q), "ms",
                    percentile([raw for raw, _ in pairs], q))
            table[f"{kind}_samples"] = (len(pairs), "count", None)
    table["read_psnr_db"] = (metrics["read_psnr_db"], "dB", None)
    table["cells_per_pixel"] = (metrics["cells_per_pixel"], "cells/px",
                                None)
    table["host_slowdown"] = (factor, "ratio", None)
    return metrics, table, attempted, failed


def per_layer(bench, blocks, timer, layers):
    """The ``--trace 1`` metrics: per completed op of the traced blocks."""
    traced = [b for b in blocks if b["traced"]]
    plain = [b for b in blocks if not b["traced"]]
    ops = sum(len(b["records"]) for b in traced)
    rate = {kind: sum(len(b["records"]) * b["slowdown"] for b in group)
            / sum(b["elapsed"] for b in group)
            for kind, group in (("traced", traced), ("plain", plain))}
    self_s = timer.self_times()
    counts = timer.counts
    metrics = {}
    for layer in layers.TIME_LAYERS:
        metrics[layer] = (self_s.get(layer, 0.0) * 1e3 / ops, "ms/op")
    metrics["frontend.queue_wait_ms"] = (
        counts["frontend.queue_wait_ms"] / ops, "ms/op")
    metrics["frontend.batch_clips"] = (
        counts["frontend.batch_clips_sq"] / counts["frontend.batch_clips"]
        if counts["frontend.batch_clips"] else 0.0, "count/op")
    for name, unit in (("codec.encoded_frames", "count/op"),
                       ("codec.decoded_frames", "count/op"),
                       ("crypto.bytes", "B/op"),
                       ("cache.hits", "count/op"),
                       ("cache.misses", "count/op"),
                       ("cache.evictions", "count/op"),
                       ("shards.bytes_read", "B/op"),
                       ("shards.replica_reads", "count/op"),
                       ("storage.failed_blocks", "count/op"),
                       ("storage.retry_successes", "count/op"),
                       ("repair.streams_rewritten", "count/op"),
                       ("repair.cell_writes", "count/op")):
        metrics[name] = (counts[name] / ops, unit)
    lookups = counts["cache.hits"] + counts["cache.misses"]
    metrics["cache.hit_share"] = (
        counts["cache.hits"] / lookups if lookups else 0.0, "ratio")
    frames = [r for b in traced for r in b["records"]
              if r["kind"] == "get_frame"]
    total = sum(r["bytes_total"] for r in frames)
    metrics["seek.bytes_read_share"] = (
        sum(r["bytes_read"] for r in frames) / total if total else 0.0,
        "ratio")
    metrics["shards.quarantined"] = (
        len(bench.frontend.store.pool.quarantined()), "count")
    metrics["repair.backlog"] = (timer.repair_backlog, "count")
    metrics["first_op_ms"] = (bench.first_op_ms, "ms")
    metrics["trace.overhead_frac"] = (
        rate["traced"] / rate["plain"] - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # Measure the code's defaults: no REPRO_* knob leaks in from the
    # caller's environment (the workloads set none on purpose).
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    bench = workloads.make(args.workload, args.seed, args.seconds)
    timer = (layers.LayerTimer() if args.trace and not args.replay
             else None)
    blocks = asyncio.run(drive(bench, args, timer))
    if args.replay:
        print(json.dumps({"setup_s": bench.setup_s,
                          "digest": bench.digest(),
                          "problems": bench.problems}))
        return 0

    bench.finish()
    problems = list(bench.problems)
    digest = bench.digest()
    child = replay_child(args)
    problems += [f"replay process: {problem}"
                 for problem in child["problems"]]
    if child["digest"] != digest:
        problems.append(f"replay digest {digest[:16]} differs from a "
                        f"fresh process's {child['digest'][:16]} on the "
                        f"first {bench.replay_ops} ops of seed {args.seed}")
    OUT.mkdir(exist_ok=True)
    config = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": NPROC,
        "python": platform.python_version(), "numpy": np.__version__,
        "clip": {"width": workloads.WIDTH, "height": workloads.HEIGHT,
                 "frames": workloads.FRAMES, "gop": workloads.GOP,
                 "crf": workloads.CRF},
        "service": workloads.resolved_config(),
        "yardstick_ref_ms": YARDSTICK_REF_MS,
        "blas_threads": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if args.workload == "aged_repair":
        config["warmup_rounds"] = bench.warmup_rounds
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics, table, attempted, failed = end_to_end(bench, blocks,
                                                   workloads)
    if timer is None:
        setups = [bench.setup_s, child["setup_s"]]
        metrics["setup_s"] = statistics.median(setups)
        table["setup_s"] = (metrics["setup_s"], "s", None)
        config["setup_runs_s"] = setups
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END.items()}
    else:
        problems += timer.check()
        timer.write_spans(OUT / f"{stem}-spans.jsonl")
        result_metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in per_layer(bench, blocks, timer,
                                                 layers).items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"config": config, "digest": digest, "problems": problems,
         "table": table, "result": result}, indent=1))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("config " + json.dumps(config, sort_keys=True))
    for name, (value, unit, raw) in table.items():
        measured = "" if raw is None else f"  (as measured {raw:.4f})"
        print(f"  {name:<22} {value:>14.4f} {unit:<8}{measured}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
