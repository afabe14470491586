"""The qbos benchmark: one workload per invocation, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 10 --trace 0

Workloads: paper_sweep, heavy_sweep, noise_scan, map_large (see
``workloads.py``).  The workload seed expands to a fixed list of per-op
inputs; the timed loop runs whole passes over that list while another pass
still fits into ``--seconds`` (always at least one).  Output checks and
digest checks run after each op, outside its timed steps.

``--trace 0`` reports the end-to-end metrics.  The result line carries the
gated ones: ``setup_s`` (median over fresh interpreters, spawn to first op
ready, wall clock scaled to a reference CPU speed as ``child.py`` says),
``op_cpu_p50_ms``, ``validate_cpu_p50_ms``, ``items_per_cpu_s`` (sampled
cells, or mapped pairs on map_large, per CPU second of op) and
``peak_rss_mb``; failed ops are its ``failed`` count.

Op latencies are gated on the process CPU clock, scaled to a reference CPU
speed.  On a shared 2-vCPU virtual machine the wall clock also counts the time
the host deschedules the vCPU, and the CPU itself runs the same op up to 1.8x
slower at some moments than at others, as other tenants load the host.
Between ops the benchmark times a fixed loop of small numpy calls
(``workloads.reference_cpu``) and multiplies each op's CPU time by ``REF_S``
over the mean time of the loops just before and after it.  In five-run trials
on that VM this cut the spread of the op median across seeds (interquartile
range over median) from 14-27% unscaled to 2-12%.

The CPU clock stands for latency only while an op runs on one thread, so
BLAS and OpenMP are held to one thread, and an op step that used clearly
more CPU time than wall time fails.  The readable report adds, ungated, the
scaled tail (``op_cpu_tail_ms``, the highest percentile with at least ten
ops beyond it; on paper_sweep it is set by which calibrations the seed
draws), the reference loop's median time, the wall-clock ``op_p50_ms``,
``op_tail_ms``, ``validate_p50_ms``, ``cells_per_s`` or ``pairs_per_s``, and
``failed_frac``.

The workload seed is taken modulo ``PINNED_SEEDS``: the SHA-256 digests of
every op output of those op lists are pinned in ``digests.json``, so every
run checks its outputs against them.  An op without a pinned digest is
reported as unchecked, and the run is then not ``correct``.

``--trace 1`` makes exactly one pass over the list, running every op once
untraced and once traced, and reports per-layer metrics per op.  Spans go to
``.bench_out/``.  Set-up probes run under ``python -X importtime``.

The last line of stdout is the JSON result; the lines before it are a
readable report.  A run record goes to ``.bench_out/`` as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

# one thread per op, set before numpy is first imported (also in the set-up probes)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports qbos from SRC)
from tracer import Tracer, summarize  # noqa: E402

SETUP_PROBES = 3
TAIL_LEVELS_PER_MILLE = (999, 990, 950, 900, 750, 500)
CPU_NAMES = ("op_cpu_p50_ms", "op_cpu_tail_ms", "validate_cpu_p50_ms", "items_per_cpu_s")
PROBE_TIMEOUT_S = 120
# an op step may use this much CPU time per second of wall time, plus the slack
MAX_CPU_PER_WALL = 1.05
CPU_SLACK_S = 0.002


# --- statistics -----------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(level, value): the highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles over TAIL_LEVELS_PER_MILLE; with fewer than 20 samples no
    level qualifies and the median is reported as the p50 level.
    """
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS_PER_MILLE:
        rank = max(1, -(-level * n // 1000))  # nearest rank, in exact integers
        if n - rank >= 10:
            return level / 10, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


# --- set-up ---------------------------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of ``import qbos`` (cumulative) and of scipy/numpy modules (self)."""
    self_us: dict[str, int] = defaultdict(int)
    qbos_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own, cumulative, name = int(parts[0]), int(parts[1]), parts[2].strip()
        self_us[name.split(".")[0]] += own
        if name == "qbos":
            qbos_us = cumulative
    return {"import_s": qbos_us / 1e6, "import_scipy_s": self_us["scipy"] / 1e6,
            "import_numpy_s": self_us["numpy"] / 1e6}


def setup_probe(name: str, seed: int, workdir: Path, importtime: bool) -> dict:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "child.py"), name, str(seed), str(workdir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # spawn to first op ready, less the child's first speed reading, at reference speed
    rec["setup_wall_s"] = rec["ready"] - t0 - rec["ref_wall_s"]
    rec["setup_s"] = rec["setup_wall_s"] * rec["speed"]
    if importtime:
        rec.update(parse_importtime(proc.stderr))
    return rec


# --- ops ------------------------------------------------------------------------------

def check_one_cpu(result) -> list[str]:
    """Errors for op steps that ran on more than one CPU at a time."""
    return [f"step {name} used {result.cpu[name]:.4f} s CPU in {wall:.4f} s wall, "
            "more than one CPU: its CPU time no longer measures its latency"
            for name, wall in result.steps.items()
            if result.cpu[name] > MAX_CPU_PER_WALL * wall + CPU_SLACK_S]


class Runner:
    """Executes and checks ops; keeps the latencies and failure counts."""

    def __init__(self, wl, ctx, pinned):
        self.wl, self.ctx, self.pinned = wl, ctx, pinned
        self.attempted = self.failed = 0
        self.digests: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []

    def execute(self, index: int, item, tracer=None):
        """Run one op; returns its OpResult, or None when it failed."""
        result = workloads.OpResult()
        steps = workloads.Steps(result, tracer)
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.op = index
                tracer.install()
            try:
                self.wl.run(self.ctx, item, steps)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            errors = self.wl.check(self.ctx, item, result) + check_one_cpu(result)
            status, digest_errors = workloads.check_digests(self.pinned, index, result.outputs)
            self.digests[status] += 1
            errors += digest_errors
        except Exception:  # an op that raises is a failed op; the run goes on
            errors = [traceback.format_exc()]
        if errors:
            self.failed += 1
            self.errors.append(f"op {index}: " + "; ".join(errors))
            print(f"op {index} failed: {errors[0]}", file=sys.stderr)
            return None
        return result

    def timings(self, result) -> dict[str, float]:
        """Seconds of the op and of its validate step, on the wall and CPU clocks."""
        op, val = self.wl.op_steps, self.wl.validate_step
        return {"op_wall": sum(result.steps[s] for s in op),
                "op_cpu": sum(result.cpu[s] for s in op),
                "validate_wall": result.steps[val], "validate_cpu": result.cpu[val]}


def timed_loop(runner: Runner, inputs: list, seconds: float):
    """Whole passes over ``inputs`` while another pass still fits into ``seconds``."""
    samples: dict[str, list[float]] = defaultdict(list)
    t0 = time.perf_counter()
    passes = 0
    while True:
        p0 = time.perf_counter()
        before = workloads.reference_cpu()
        for index, item in enumerate(inputs):
            result = runner.execute(index, item)
            after = workloads.reference_cpu()
            if result is not None:
                # the CPU's speed during the op: the reference loop just before and after it
                ref = (before + after) / 2
                times = runner.timings(result)
                times.update(ref=ref, op_scaled=times["op_cpu"] * workloads.REF_S / ref,
                             validate_scaled=times["validate_cpu"] * workloads.REF_S / ref)
                for key, value in times.items():
                    samples[key].append(value)
            before = after
        passes += 1
        now = time.perf_counter()
        if (now - t0) + (now - p0) > seconds:
            return samples, passes, now - t0


# --- metrics --------------------------------------------------------------------------

def latency_metrics(wl, samples, clock: str, names: tuple[str, ...]) -> dict:
    """Median and tail op latency, median validate latency and throughput."""
    p50, tail_name, validate, rate = names
    ops = samples[f"op_{clock}"]
    level, tail = tail_percentile(ops)
    return {
        p50: (statistics.median(ops) * 1e3, "ms"),
        tail_name: (tail * 1e3, "ms", f"p{level:g} of {len(ops)} ops"),
        validate: (statistics.median(samples[f"validate_{clock}"]) * 1e3, "ms"),
        rate: (wl.items_per_op() * len(ops) / math.fsum(ops), "1/s"),
    }


def end_to_end(wl, probes, samples) -> tuple[dict, dict]:
    """(gated, reported): the gated metrics are set-up time and op CPU time,
    both scaled to the reference CPU speed, and peak memory.  The tail, the
    unscaled set-up time and the reference loop's time are reported only,
    with the wall-clock figures.
    """
    cpu = latency_metrics(wl, samples, "scaled", CPU_NAMES)
    gated = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s",
                    f"median of {len(probes)} fresh interpreters"),
        **{k: v for k, v in cpu.items() if k != "op_cpu_tail_ms"},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = {
        "op_cpu_tail_ms": cpu["op_cpu_tail_ms"],
        "setup_wall_s": (statistics.median(p["setup_wall_s"] for p in probes), "s"),
        "ref_loop_ms": (statistics.median(samples["ref"]) * 1e3, "ms",
                        f"reference speed {workloads.REF_S * 1e3:g} ms"),
    }
    return gated, reported


def wall_clock(wl, samples, runner) -> dict:
    """The same latencies on the wall clock, and the failed share; reported only."""
    rate = "pairs_per_s" if wl.cells_per_op == 0 else "cells_per_s"
    metrics = latency_metrics(wl, samples, "wall",
                              ("op_p50_ms", "op_tail_ms", "validate_p50_ms", rate))
    metrics["failed_frac"] = (runner.failed / runner.attempted, "1",
                              f"{runner.failed} of {runner.attempted} ops")
    return metrics


def per_layer(wl, probes, summary, n_ops, counts, untraced, traced) -> dict:
    calls, incl, own = summary["calls"], summary["inclusive"], summary["layer_self"]
    circuits = calls["noise.noisy_distribution"]
    cells = wl.cells_per_op * n_ops

    def ms(seconds):
        return (seconds / n_ops * 1e3, "ms")

    def per_op(count, unit="count"):
        return (count / n_ops, unit)

    def ratio(num, den, unit):
        return (num / den if den else 0.0, unit)

    def probe_ms(key):
        return (statistics.median(p[key] for p in probes) * 1e3, "ms")

    return {
        "setup.import_ms": probe_ms("import_s"),
        "setup.import_scipy_ms": probe_ms("import_scipy_s"),
        "setup.import_numpy_ms": probe_ms("import_numpy_s"),
        "setup.prepare_ms": probe_ms("prepare_s"),
        "gcm.self_ms": ms(own["gcm"]),
        "gcm.select_ms": ms(incl["gcm.select_pairs"]),
        "gcm.verify_ms": ms(incl["gcm.verify_separation"]),
        "gcm.select_calls": per_op(calls["gcm.select_pairs"]),
        "gcm.pairs_placed": per_op(counts["gcm.pairs_placed"]),
        "device.self_ms": ms(own["device"]),
        "device.load_ms": ms(incl["device.load_calibration"] + incl["device.load_coupling_map"]),
        "device.pair_calls": per_op(calls["device.CalibrationSnapshot.pair"]),
        "device.pair_calls_per_circuit": ratio(
            calls["device.CalibrationSnapshot.pair"], wl.circuits_per_op * n_ops,
            "calls/circuit"),
        "noise.self_ms": ms(own["noise"]),
        "noise.circuits_evolved": per_op(circuits),
        "noise.us_per_circuit": ratio(incl["noise.noisy_distribution"] * 1e6, circuits, "us"),
        "statevec.self_ms": ms(own["statevec"]),
        "statevec.sample_ms": ms(incl["statevec.sample_counts"]),
        "statevec.seed_ms": ms(incl["statevec.derive_seed"]),
        "statevec.gate_ms": ms(incl["statevec.gate_library"]),
        "statevec.sample_calls": per_op(calls["statevec.sample_counts"]),
        "statevec.shots_sampled": per_op(counts["statevec.shots_sampled"]),
        "statevec.seed_calls_per_cell": ratio(calls["statevec.derive_seed"], cells, "calls/cell"),
        "statevec.gate_builds_per_circuit": ratio(
            calls["statevec.gate_library"], circuits, "builds/circuit"),
        "game.self_ms": ms(own["game"]),
        "game.calls": per_op(sum(c for name, c in calls.items() if name.startswith("game."))),
        "stats.self_ms": ms(own["stats"]),
        "stats.aggregate_calls": per_op(calls["stats.aggregate_runs"]),
        "cli.self_ms": ms(own["cli"]),
        "cli.rows_written": per_op(counts["cli.rows_written"], "rows"),
        "cli.rows_read": per_op(counts["cli.rows_read"], "rows"),
        "cli.bytes_written": per_op(counts["cli.bytes_written"], "bytes"),
        "trace.unattributed_ms": ms(own["bench"]),
        "trace.overhead_ms": ((statistics.median(traced) - statistics.median(untraced)) * 1e3,
                              "ms"),
    }


# --- run record -----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, nproc: int, load_before) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "list_seed": args.seed % workloads.PINNED_SEEDS, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "load_before": list(load_before),
        "busy_at_start": load_before[0] > nproc,
    }


def load_pins(workload: str, seed: int):
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def digest_summary(runner: Runner) -> str:
    parts = [f"{k} {v}" for k, v in sorted(runner.digests.items())]
    return ", ".join(parts) or "none checked"


# --- main -----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workloads.require_qbos_from(SRC)

    nproc = os.cpu_count() or 1
    record = run_record(args, nproc, os.getloadavg())
    wl = workloads.WORKLOADS[args.workload]
    seed = args.seed % workloads.PINNED_SEEDS
    inputs = wl.inputs(seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        probes = [setup_probe(wl.name, seed, workdir / f"probe-{i}", bool(args.trace))
                  for i in range(SETUP_PROBES)]
        ctx = wl.prepare(workdir / "run", seed, inputs)
        runner = Runner(wl, ctx, load_pins(wl.name, seed))
        if args.trace:
            metrics, extra = traced_run(wl, runner, inputs, probes, args)
            reported = {}
        else:
            samples, passes, elapsed = timed_loop(runner, inputs, args.seconds)
            if not samples:
                raise RuntimeError("no op succeeded: " + " | ".join(runner.errors[:3]))
            metrics, reported = end_to_end(wl, probes, samples)
            reported.update(wall_clock(wl, samples, runner))
            extra = {"passes": passes, "measured_s": elapsed, "samples_s": samples,
                     "probes": probes}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(extra, ops=runner.attempted, failed=runner.failed,
                  list_len=len(inputs), digests=dict(runner.digests),
                  load_after=list(os.getloadavg()), errors=runner.errors[:20],
                  metrics={k: v[0] for k, v in {**metrics, **reported}.items()})
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print_report(wl, args, record, metrics, reported, runner)
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.digests.get("unchecked"),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


def traced_run(wl, runner: Runner, inputs: list, probes, args):
    tracer = Tracer()
    counts: dict[str, float] = defaultdict(float)
    untraced, traced = [], []
    step_wall = 0.0
    for index, item in enumerate(inputs):
        plain = runner.execute(index, item)
        result = runner.execute(index, item, tracer)
        if plain is None or result is None:
            continue
        untraced.append(runner.timings(plain)["op_cpu"])
        traced.append(runner.timings(result)["op_cpu"])
        step_wall += math.fsum(result.steps.values())
        for k, v in result.counts.items():
            counts[k] += v
    if not traced:
        raise RuntimeError("no traced op succeeded: " + " | ".join(runner.errors[:3]))
    for k, v in tracer.tallies.items():
        counts[k] += v
    summary = summarize(tracer)
    metrics = per_layer(wl, probes, summary, len(traced), counts, untraced, traced)
    tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.tsv.gz")
    return metrics, {"spans": len(tracer.starts), "traced_wall_s": summary["root_seconds"],
                     "traced_steps_s": step_wall, "layer_self_s": dict(summary["layer_self"])}


def print_report(wl, args, record, metrics, reported, runner) -> None:
    print(f"workload {wl.name}  seed {args.seed} (list {record['list_seed']})  "
          f"trace {args.trace}  ops {runner.attempted} (list of {record['list_len']})")
    print(f"machine  nproc {record['nproc']}  cpu {record['cpu']}  python "
          f"{record['python']}  numpy {record['numpy']}  scipy {record['scipy']}")
    print(f"load     {record['load_before'][0]:.2f} -> {record['load_after'][0]:.2f}"
          + ("  WARNING: load above nproc at start" if record["busy_at_start"] else ""))
    if args.trace:
        wall = record["traced_wall_s"]
        print(f"traced ops: {wall * 1e3:.1f} ms wall over {record['spans']} spans; "
              "self time by layer:")
        for layer, s in sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1]):
            name = "unattributed" if layer == "bench" else layer
            print(f"  {name:<13}{s * 1e3:10.1f} ms  {100 * s / wall:5.1f}%")
        print(f"  {'sum':<13}{sum(record['layer_self_s'].values()) * 1e3:10.1f} ms  "
              f"(op steps as timed: {record['traced_steps_s'] * 1e3:.1f} ms)")
    for title, group in (("metrics", metrics), ("reported only", reported)):
        if group:
            print(f"-- {title}")
        for name, (value, unit, *note) in group.items():
            print(f"{name:<34}{value:14.4f} {unit:<14}{note[0] if note else ''}")
    note = ("" if runner.pinned is not None
            else f"  (no digests pinned for list {record['list_seed']})")
    print(f"digests  {digest_summary(runner)}{note}")


if __name__ == "__main__":
    sys.exit(main())
