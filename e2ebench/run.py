"""End-to-end LogStore benchmark: one workload per run, one client.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload ingest_archive --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20
    python3 e2ebench/run.py --workload query_cold --seed 1 --seconds 20 --check-determinism

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced on the same seed, prints the
per-layer split, and writes the span dump to ``e2ebench/out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer,
a failed invariant, or a percentile without 10 samples beyond it ends
the run with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("ingest_archive", "query_cold", "dashboard_mixed")
MIN_TAIL_SAMPLES = 10


class SampleGuardError(Exception):
    """A percentile was asked of too few samples to support it."""


def percentile(values, q: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 100_000))  # ceil(q/100 * n)
    return ordered[rank - 1], len(ordered) - rank


def tail(name: str, values, q: float) -> tuple[float, int]:
    if not values:
        raise SampleGuardError(f"{name}: no samples")
    value, beyond = percentile(values, q)
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        raise SampleGuardError(
            f"{name}: only {beyond} of {len(values)} samples lie beyond p{q:g} "
            f"(need {MIN_TAIL_SAMPLES}); the workload is too short for this tail"
        )
    return value, len(values)


def end_to_end_metrics(samples, counts: dict) -> dict:
    """name -> (value, unit, samples) for all 15 end-to-end metrics."""
    s = samples
    m = {}
    m["setup_s"] = (statistics.median(s.setup_s), "s", len(s.setup_s))
    m["ingest_rows_per_s"] = (s.rows_put / sum(s.put_service), "rows/s", len(s.put_service))
    m["ingest_cpu_us_per_row"] = (sum(s.put_cpu) / s.rows_put * 1e6, "us/row", len(s.put_cpu))
    for q in (50, 99):
        value, n = tail(f"put_p{q}_ms", s.put_latency, q)
        m[f"put_p{q}_ms"] = (value * 1e3, "ms", n)
    m["archive_rows_per_s"] = (s.rows_archived / s.archive_wall, "rows/s", s.archive_calls)
    m["archive_cpu_us_per_row"] = (s.archive_cpu / s.rows_archived * 1e6, "us/row", s.archive_calls)
    for q in (50, 99):
        value, n = tail(f"query_p{q}_ms", s.query_latency, q)
        m[f"query_p{q}_ms"] = (value * 1e3, "ms", n)
    m["queries_per_s"] = (len(s.query_service) / sum(s.query_service), "1/s", len(s.query_service))
    m["query_cpu_ms"] = (statistics.fmean(s.query_cpu) * 1e3, "ms", len(s.query_cpu))
    value, n = tail("query_modeled_p99_ms", s.query_modeled, 99)
    m["query_modeled_p99_ms"] = (value * 1e3, "ms", n)
    m["bytes_stored_per_user_byte"] = (counts["bytes_stored_per_user_byte"], "B/B", counts["acked_rows"])
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    m["failed_ops_ratio"] = (s.failed / max(1, s.attempted), "ratio", s.attempted)
    return m


def run_workload(name: str, seed: int, seconds: float, recorder=None, setup_repeats=None):
    """Set up (several times, keeping the last store), measure, verify.

    Returns (samples, counts, per-layer metrics or None).
    """
    from workloads import WORKLOADS, Client, HostSpeed, Samples

    workload = WORKLOADS[name](seed, seconds)
    samples = Samples()
    speed = HostSpeed()
    state = None
    for _ in range(setup_repeats or workload.setup_repeats):
        state = None
        gc.collect()
        before = speed.factor(fresh=HostSpeed.WINDOW)
        t0 = time.perf_counter()
        state = workload.setup(lambda store: Client(store, samples, speed))
        elapsed = time.perf_counter() - t0
        after = speed.factor(fresh=HostSpeed.WINDOW)
        samples.setup_s.append(elapsed / ((before + after) / 2))
    client = state["client"]
    store = state["store"]
    digest = hashlib.sha256()
    args = ()
    if name == "query_cold":
        picks = workload.queries()
        args = (picks, workload.reference(state, picks))
    gc.collect()

    layer_metrics = None
    if recorder is not None:
        import layers
        from spans import Instrumenter

        recorder.virtual_now = store.clock.now
        client.recorder = recorder
        instrumenter = Instrumenter(recorder)
        before = layers.cache_counters(store)
        layers.install(instrumenter)
    try:
        t0 = time.perf_counter()
        workload.measure(state, client, digest, *args)
        samples.measure_wall = time.perf_counter() - t0
    finally:
        if recorder is not None:
            instrumenter.restore()
            client.recorder = None
    if recorder is not None:
        layer_metrics = layers.per_layer_metrics(
            recorder, client.traced_ops, samples, before, layers.cache_counters(store)
        )
    workload.verify(state, client)
    counts = {"inputs_sha256": digest.hexdigest(), "acked_rows": sum(client.acked.values())}
    counts.update(client.program_counts())
    counts["pruning.rows_examined_per_row_returned"] = (
        samples.candidate_rows / max(1, samples.rows_returned)
    )
    samples.speed_factors = speed.factors
    return samples, counts, layer_metrics


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for metric, (value, unit, *rest) in metrics.items():
        n = f"  (n={rest[0]})" if rest else ""
        print(f"  {metric:<42} {value:>16.6g} {unit:<14}{n}")


def result_line(attempted: int, failed: int, metrics: dict, trace: bool) -> str:
    """The result object: exactly the metrics BENCHMARK.json declares
    for this mode (end_to_end untraced, per_layer traced)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    out = {}
    for spec in declared:
        value, unit = metrics[spec["name"]][:2]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit!r}, declared {spec['unit']!r}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": out})


def main_single(args) -> int:
    from workloads import CorrectnessError

    try:
        if args.trace:
            import test_spans
            from spans import SpanRecorder

            test_spans.run_all()  # the tracer checks itself before it is trusted
            plain, _, _ = run_workload(args.workload, args.seed, args.seconds, setup_repeats=1)
            gc.collect()
            recorder = SpanRecorder()
            samples, counts, layer = run_workload(
                args.workload, args.seed, args.seconds, recorder=recorder, setup_repeats=1
            )
            layer["trace.overhead_ratio"] = (
                samples.service_total() / plain.service_total(), "ratio"
            )
            os.makedirs(OUT_DIR, exist_ok=True)
            dump = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
            recorder.dump(dump)
            print(f"span dump: {dump} ({len(recorder.spans)} spans)")
            metrics = layer
            attempted = plain.attempted + samples.attempted
            failed = plain.failed + samples.failed
        else:
            samples, counts, _ = run_workload(args.workload, args.seed, args.seconds)
            metrics = end_to_end_metrics(samples, counts)
            attempted, failed = samples.attempted, samples.failed
    except (CorrectnessError, SampleGuardError) as exc:
        print(f"FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if samples.errors:
        print("first failed operations: " + "; ".join(samples.errors))
    if args.trace:
        print_table("per-layer metrics (traced run):", metrics)
    else:
        deciles = statistics.quantiles(samples.speed_factors, n=10)
        print(f"measured phase: {samples.measure_wall:.3f} s wall; generator lag p99 "
              f"{(percentile(samples.lag, 99)[0] * 1e3 if samples.lag else 0):.3f} ms (raw)")
        print(f"host speed factor (times are divided by it): median "
              f"{statistics.median(samples.speed_factors):.3f}, p10 {deciles[0]:.3f}, "
              f"p90 {deciles[-1]:.3f}, n={len(samples.speed_factors)}")
        print_table("end-to-end metrics:", metrics)
    print("counts: " + json.dumps(counts, sort_keys=True))
    print(result_line(attempted, failed, metrics, bool(args.trace)))
    return 0


def child_run(argv: list[str], timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv],
        capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"child run {argv} exited with {done.returncode}")
    return done.stdout


def main_determinism(args) -> int:
    """Two runs, one seed: inputs and program counts must be identical."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    outputs = [child_run(argv, 600) for _ in range(2)]
    counts = [
        next(line for line in out.splitlines() if line.startswith("counts: ")) for out in outputs
    ]
    if counts[0] != counts[1]:
        print(f"NOT DETERMINISTIC:\n  {counts[0]}\n  {counts[1]}")
        return 1
    print(f"deterministic: {counts[0]}")
    return 0


def main_all(args) -> int:
    """Every workload in its own process, all metrics printed by name."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        try:
            out = child_run(argv, 900)
        except RuntimeError as exc:
            print(exc)
            status = 1
            continue
        print("\n".join(out.splitlines()[:-1]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the LogStore sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return main_all(args)
    if args.check_determinism:
        return main_determinism(args)
    return main_single(args)


if __name__ == "__main__":
    sys.exit(main())
