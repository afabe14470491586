"""The four benchmark workloads and their independent output checks.

Each workload expands the workload seed into a fixed list of per-op inputs;
a run cycles through the whole list.  Mapping time depends strongly on the
calibration (``select_pairs`` takes 25-480 ms at 127 qubits depending on the
calibration seed), so the op mix of a run must not depend on how many ops
fit into the time budget.

An op is a list of timed steps.  ``op_steps`` make up the op latency;
``validate_step`` is the step reported as validate latency:

* paper_sweep / heavy_sweep: ``qbos sweep --synth --seed S`` (op), then
  ``qbos validate`` of the CSV just written (validate);
* noise_scan: ``simulate_job`` for the 4 strategies, then
  ``build_validation_report`` (both op; the report is also validate);
* map_large: ``qbos map`` (op), then re-loading the written plan and checking
  it with ``verify_separation`` (validate).

CLI ops run in-process through ``qbos.cli.main(argv)`` with stdout captured.
Every qbos call goes through a module attribute so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import qbos
from qbos import cli, device, game, gcm, noise, stats

STRATEGY_LABELS = ("I", "H", "RY(pi/4)", "RY(pi)")
GAMMA_STEPS = 31
CSV_COLUMNS = ["strategy", "gamma", "run", "p00", "p01", "p10", "p11",
               "ea", "eb", "ea_analytic", "eb_analytic"]
# Battle-of-the-Sexes payoff per outcome 00, 01, 10, 11: only the two
# coordinated outcomes pay, (3, 2) and (2, 3)
BOS_ALICE = (3.0, 0.0, 0.0, 2.0)
BOS_BOB = (2.0, 0.0, 0.0, 3.0)
# workload seeds 0..PINNED_SEEDS-1 have pinned output digests; others map onto them
PINNED_SEEDS = 20
PROB_SUM_TOL = 1e-9
PAYOFF_TOL = 1e-12
# the reference loop: REF_ITERATIONS small complex matrix products.  REF_S is its
# median CPU time on the 2-vCPU Intel Xeon VM the baseline was recorded on; scaled
# times are CPU times at that speed.
REF_ITERATIONS = 2000
REF_S = 0.0093
REF_MATRIX = np.arange(16, dtype=complex).reshape(4, 4) * (1 + 1j)
REF_MATRIX /= np.linalg.norm(REF_MATRIX)


class OpFailed(Exception):
    """A qbos command returned a non-zero exit code."""


@dataclass
class OpResult:
    steps: dict[str, float] = field(default_factory=dict)   # step -> seconds
    cpu: dict[str, float] = field(default_factory=dict)     # step -> CPU seconds
    outputs: dict[str, bytes] = field(default_factory=dict)  # digested outputs
    counts: dict[str, int] = field(default_factory=dict)     # cli.* counts
    data: object = None                                      # for the checks


class Steps:
    """Times the steps of one op; a tracer, if given, opens a root span each."""

    def __init__(self, result: OpResult, tracer=None):
        self.result = result
        self.tracer = tracer

    @contextlib.contextmanager
    def step(self, name: str):
        span = self.tracer.root(name) if self.tracer else contextlib.nullcontext()
        with span:
            c0, t0 = process_time(), perf_counter()
            try:
                yield
            finally:
                self.result.steps[name] = perf_counter() - t0
                self.result.cpu[name] = process_time() - c0


def reference_cpu() -> float:
    """CPU seconds of the reference loop, with the GC held off.

    On a shared virtual machine the same op can take 1.8x more CPU time at one
    moment than at another, as other tenants load the host.  The loop, run
    between ops, measures the CPU's speed at that moment with the kind of work
    the ops do: Python calls into numpy on tiny arrays.  Ops are scaled by it.
    """
    a = m = REF_MATRIX
    gc.disable()
    c0 = process_time()
    try:
        for _ in range(REF_ITERATIONS):
            m = (m @ a) * 0.5 + a
            float(np.abs(m).sum())
        return process_time() - c0
    finally:
        gc.enable()


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qbos {argv[0]} exited with code {code}")
    return buf.getvalue()


def op_seeds(name: str, seed: int, count: int) -> list[int]:
    # a str seed is hashed with SHA-512, so the list is the same in every process
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def check_validate_stdout(text: str) -> list[str]:
    named = {line.split("|")[0].strip() for line in text.splitlines() if "|" in line}
    missing = [s for s in STRATEGY_LABELS if s not in named]
    return [f"validate report does not name {missing}"] if missing else []


def check_csv(data: bytes, runs: int) -> list[str]:
    """Row count, probability sums and payoffs re-derived from p00..p11."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    errors = []
    if not rows or rows[0] != CSV_COLUMNS:
        return [f"unexpected CSV header {rows[:1]}"]
    body = rows[1:]
    expected = len(STRATEGY_LABELS) * GAMMA_STEPS * runs
    if len(body) != expected:
        errors.append(f"{len(body)} rows, expected {expected}")
    if {r[0] for r in body} != set(STRATEGY_LABELS):
        errors.append(f"strategies {sorted({r[0] for r in body})}")
    for n, r in enumerate(body, start=2):
        p = [float(x) for x in r[3:7]]
        ea, eb = float(r[7]), float(r[8])
        if abs(math.fsum(p) - 1.0) > PROB_SUM_TOL:
            errors.append(f"line {n}: p00..p11 sum to {math.fsum(p)!r}")
        want_a = math.fsum(w * x for w, x in zip(BOS_ALICE, p))
        want_b = math.fsum(w * x for w, x in zip(BOS_BOB, p))
        if abs(ea - want_a) > PAYOFF_TOL or abs(eb - want_b) > PAYOFF_TOL:
            errors.append(f"line {n}: ea/eb {ea!r}/{eb!r} != {want_a!r}/{want_b!r}")
        if len(errors) > 5:
            break
    return errors


def check_plan(plan, graph, k: int, verified: tuple) -> list[str]:
    errors = []
    if len(plan.assignments) != k:
        errors.append(f"plan has {len(plan.assignments)} pairs, expected {k}")
    edges = set(graph.edges)
    off = [p for p in plan.assignments if tuple(sorted(p)) not in edges]
    if off:
        errors.append(f"pairs {off[:3]} are not graph edges")
    qubits = [q for p in plan.assignments for q in p]
    if len(set(qubits)) != len(qubits):
        errors.append("plan reuses a qubit")
    ok, violation = verified
    if not ok:
        errors.append(f"verify_separation: {violation}")
    return errors


class Workload:
    name = ""
    list_len = 0
    op_steps: tuple[str, ...] = ()
    validate_step = ""
    cells_per_op = 0      # sampled (strategy, angle, run) cells
    pairs_per_op = 0      # pairs placed by the op, counted as work on map_large
    circuits_per_op = 0   # two-qubit circuits the op places or evolves

    def inputs(self, seed: int) -> list:
        return op_seeds(self.name, seed, self.list_len)

    def prepare(self, workdir: Path, seed: int, inputs: list) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        return {"dir": workdir}

    def run(self, ctx: dict, item, steps: Steps) -> None:
        raise NotImplementedError

    def check(self, ctx: dict, item, result: OpResult) -> list[str]:
        raise NotImplementedError

    def items_per_op(self) -> int:
        return self.cells_per_op or self.pairs_per_op


class SweepWorkload(Workload):
    op_steps = ("sweep",)
    validate_step = "validate"
    circuits_per_op = len(STRATEGY_LABELS) * GAMMA_STEPS

    def __init__(self, name, list_len, runs, flags=()):
        self.name, self.list_len = name, list_len
        self.runs, self.flags = runs, list(flags)
        self.cells_per_op = len(STRATEGY_LABELS) * GAMMA_STEPS * runs

    def run(self, ctx, item, steps):
        out = str(ctx["dir"] / "sweep.csv")
        argv = ["sweep", "--synth", "--seed", str(item), *self.flags, "--out", out]
        with steps.step("sweep"):
            run_cli(argv)
        with steps.step("validate"):
            report = run_cli(["validate", out])
        data = Path(out).read_bytes()
        rows = data.count(b"\n") - 1
        steps.result.outputs = {"csv": data, "validate": report.encode("utf-8")}
        steps.result.counts = {"cli.rows_written": rows, "cli.rows_read": rows,
                               "cli.bytes_written": len(data)}

    def check(self, ctx, item, result):
        return (check_csv(result.outputs["csv"], self.runs)
                + check_validate_stdout(result.outputs["validate"].decode("utf-8")))


class NoiseScan(Workload):
    name = "noise_scan"
    op_steps = ("simulate", "report")
    validate_step = "report"
    circuits_per_op = len(STRATEGY_LABELS) * GAMMA_STEPS

    def __init__(self, shots=256, runs=3, scales=tuple(i / 4 for i in range(9))):
        # scales run from 0 (the ideal case) to 2
        self.shots, self.runs, self.scales = shots, runs, scales
        self.cells_per_op = len(STRATEGY_LABELS) * GAMMA_STEPS * runs

    def inputs(self, seed):
        points = [(plan, scale) for plan in ("separated", "packed") for scale in self.scales]
        seeds = op_seeds(self.name, seed, len(points) * len(STRATEGY_LABELS))
        return [(plan, scale, tuple(seeds[4 * i:4 * i + 4]))
                for i, (plan, scale) in enumerate(points)]

    def prepare(self, workdir, seed, inputs):
        ctx = super().prepare(workdir, seed, inputs)
        graph = device.heavy_hex_graph(6)
        cal_seed = op_seeds(f"{self.name}/calibration", seed, 1)[0]
        calib = device.synth_calibration(graph, seed=cal_seed, profile="uniform")
        ctx.update(
            calib=calib,
            plans={"separated": gcm.select_pairs(graph, calib, k=GAMMA_STEPS),
                   "packed": gcm.packed_plan(graph, GAMMA_STEPS)},
            specs=[game.GameSpec(strategy_a=s, strategy_b=s)
                   for s in game.CANONICAL_STRATEGIES],
            grid_spec=game.GameSpec(),
        )
        return ctx

    def run(self, ctx, item, steps):
        plan_name, scale, seeds = item
        plan, model = ctx["plans"][plan_name], noise.NoiseModel(scale=scale)
        with steps.step("simulate"):
            results = {
                spec.strategy_a.label: noise.simulate_job(
                    plan, spec, ctx["calib"], model, self.shots, self.runs, s)
                for spec, s in zip(ctx["specs"], seeds)
            }
        with steps.step("report"):
            report = stats.build_validation_report(results, ctx["grid_spec"])
        steps.result.outputs = {
            "report": json.dumps(report.to_json(), indent=1).encode("utf-8")}
        steps.result.data = (results, report)

    def check(self, ctx, item, result):
        results, report = result.data
        errors = []
        cells = sum(len(r) for r in results.values())
        if cells != self.cells_per_op:
            errors.append(f"{cells} sampled cells, expected {self.cells_per_op}")
        bad = [r for rs in results.values() for r in rs
               if sum(r.counts.counts.values()) != self.shots]
        if bad:
            errors.append(f"{len(bad)} cells without {self.shots} shots")
        named = [sv.strategy for sv in report.strategies]
        if sorted(named) != sorted(STRATEGY_LABELS):
            errors.append(f"report names {named}")
        return errors


class MapLarge(Workload):
    name = "map_large"
    op_steps = ("map",)
    validate_step = "verify"

    def __init__(self, list_len=16, pairs=100, distance=14):
        # heavy_hex_graph(14) has 575 qubits and 672 edges
        self.list_len, self.pairs, self.distance = list_len, pairs, distance
        self.pairs_per_op = self.circuits_per_op = pairs

    def inputs(self, seed):
        return list(enumerate(op_seeds(self.name, seed, self.list_len)))

    def prepare(self, workdir, seed, inputs):
        ctx = super().prepare(workdir, seed, inputs)
        graph = device.heavy_hex_graph(self.distance)
        graph.save(workdir / "graph.json")
        for i, cal_seed in inputs:
            device.synth_calibration(graph, seed=cal_seed).save(workdir / f"cal-{i}.json")
        ctx["graph"] = graph
        return ctx

    def run(self, ctx, item, steps):
        i, _ = item
        out = ctx["dir"] / "plan.json"
        argv = ["map", "--coupling-map", str(ctx["dir"] / "graph.json"),
                "--calibration", str(ctx["dir"] / f"cal-{i}.json"),
                "--pairs", str(self.pairs), "--out", str(out)]
        with steps.step("map"):
            run_cli(argv)
        with steps.step("verify"):
            plan = gcm.load_plan(out)
            verified = gcm.verify_separation(plan, ctx["graph"])
        data = out.read_bytes()
        steps.result.outputs = {"plan": data}
        steps.result.counts = {"cli.bytes_written": len(data)}
        steps.result.data = (plan, verified)

    def check(self, ctx, item, result):
        plan, verified = result.data
        return check_plan(plan, ctx["graph"], self.pairs, verified)


WORKLOADS = {
    w.name: w for w in (
        SweepWorkload("paper_sweep", list_len=60, runs=5),
        SweepWorkload("heavy_sweep", list_len=16, runs=50,
                      flags=("--runs", "50", "--shots", "8192")),
        NoiseScan(),
        MapLarge(),
    )
}


# --- golden digests -------------------------------------------------------------------

def digest_outputs(outputs: dict[str, bytes]) -> dict[str, str]:
    return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(outputs.items())}


def check_digests(pinned: list | None, index: int, outputs: dict[str, bytes]):
    """('unchecked', []) without a pin for this seed, else ('passed'|'failed', errors)."""
    if pinned is None:
        return "unchecked", []
    if index >= len(pinned):
        return "failed", [f"no pinned digest for op {index}"]
    got = digest_outputs(outputs)
    errors = [f"{k} sha256 {got.get(k)} != pinned {v}"
              for k, v in pinned[index].items() if got.get(k) != v]
    errors += [f"{k} has no pinned digest" for k in got if k not in pinned[index]]
    return ("failed" if errors else "passed"), errors


def require_qbos_from(src: Path) -> None:
    """Refuse to measure any qbos but the one under ``src``."""
    where = Path(qbos.__file__).resolve().parent
    if where.parent != src.resolve():
        raise SystemExit(f"error: qbos imported from {where}, not from {src}")
