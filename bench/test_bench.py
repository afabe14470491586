"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import pytest

import run
import workloads
from tracer import Tracer, self_times, summarize

import qbos.cli
import qbos.statevec

DERIVE_SEED = qbos.statevec.derive_seed


# --- self time ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_root_time():
    tracer = Tracer()
    tracer.starts.extend([0.0, 1.0, 2.0, 5.0])
    tracer.ends.extend([10.0, 4.0, 3.0, 9.0])
    tracer.parents.extend([-1, 0, 1, 0])
    for name in ("bench.op", "gcm.select_pairs", "device.CalibrationSnapshot.pair",
                 "gcm.verify_separation"):
        tracer.name_ids.append(tracer._name_id(name))
    summary = summarize(tracer)
    assert dict(summary["layer_self"]) == {"bench": 3.0, "gcm": 6.0, "device": 1.0}
    assert sum(summary["layer_self"].values()) == summary["root_seconds"] == 10.0
    assert summary["inclusive"]["gcm.select_pairs"] == 3.0


# --- tail percentile ---------------------------------------------------------------------

@pytest.mark.parametrize("n, level", [
    (1, 50.0), (12, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond_it(n, level):
    values = [float(v) for v in range(1, n + 1)]
    got_level, value = run.tail_percentile(values)
    assert got_level == level
    if n >= 20:
        assert sum(v > value for v in values) >= 10
        assert value == values[-1 - sum(v > value for v in values)]


def test_tail_with_few_samples_is_the_median():
    assert run.tail_percentile([3.0, 1.0, 2.0, 10.0]) == (50.0, 2.5)


def test_parse_importtime_attributes_scipy_and_numpy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       700 |        700 |     scipy.stats",
        "import time:        20 |        720 |   scipy",
        "import time:        30 |       1000 | qbos",
    ])
    got = run.parse_importtime(text)
    assert got == {"import_s": 0.001, "import_scipy_s": 0.00072, "import_numpy_s": 0.00015}


# --- digests -----------------------------------------------------------------------------

OUTPUTS = {"csv": b"a,b\n", "validate": b"ok\n"}


def test_unpinned_seed_is_unchecked_not_passed():
    assert workloads.check_digests(None, 0, OUTPUTS) == ("unchecked", [])


def test_matching_digests_pass():
    pinned = [workloads.digest_outputs(OUTPUTS)]
    assert workloads.check_digests(pinned, 0, OUTPUTS) == ("passed", [])


@pytest.mark.parametrize("outputs, index", [
    ({"csv": b"a,b\n", "validate": b"changed\n"}, 0),
    ({"csv": b"a,b\n"}, 0),
    ({**OUTPUTS, "extra": b""}, 0),
    (OUTPUTS, 1),
])
def test_mismatched_or_missing_digests_fail(outputs, index):
    pinned = [workloads.digest_outputs(OUTPUTS)]
    status, errors = workloads.check_digests(pinned, index, outputs)
    assert status == "failed" and errors


# --- output checks -----------------------------------------------------------------------

def test_csv_check_rederives_payoffs():
    header = ",".join(workloads.CSV_COLUMNS)
    good = "I,0.0,0,0.5,0.0,0.0,0.5,2.5,2.5,2.5,2.5"
    bad = "I,0.0,0,0.5,0.0,0.0,0.5,2.6,2.5,2.5,2.5"
    assert not any("line" in e for e in workloads.check_csv(f"{header}\n{good}\n".encode(), 1))
    errors = workloads.check_csv(f"{header}\n{bad}\n".encode(), 1)
    assert any("ea/eb" in e for e in errors)
    assert any("rows, expected" in e for e in errors)


# --- one CPU per op ----------------------------------------------------------------------

def test_step_using_more_cpu_than_wall_time_is_an_error():
    result = workloads.OpResult(steps={"sweep": 0.5, "validate": 0.1},
                                cpu={"sweep": 0.49, "validate": 0.2})
    errors = run.check_one_cpu(result)
    assert len(errors) == 1 and errors[0].startswith("step validate")


def test_op_cpu_is_scaled_by_the_reference_loops_around_it(monkeypatch):
    refs = iter([0.01, 0.03, 0.02])  # before op 0, between ops 0 and 1, after op 1
    monkeypatch.setattr(workloads, "reference_cpu", lambda: next(refs))

    class FixedRunner:
        def execute(self, index, item):
            return workloads.OpResult()

        def timings(self, result):
            return {"op_wall": 0.2, "op_cpu": 0.1, "validate_wall": 0.06, "validate_cpu": 0.05}

    samples, passes, _ = run.timed_loop(FixedRunner(), [0, 1], seconds=0)
    assert passes == 1
    assert samples["ref"] == pytest.approx([0.02, 0.025])
    assert samples["op_scaled"] == pytest.approx([0.1 * workloads.REF_S / r for r in (0.02, 0.025)])
    assert samples["validate_scaled"] == pytest.approx(
        [0.05 * workloads.REF_S / r for r in (0.02, 0.025)])


# --- smoke runs of each workload ---------------------------------------------------------

SMOKE = [
    workloads.SweepWorkload("paper_sweep", list_len=2, runs=2,
                            flags=("--runs", "2", "--shots", "64")),
    workloads.NoiseScan(shots=16, runs=2, scales=(0.0, 2.0)),
    workloads.MapLarge(list_len=2, pairs=5, distance=3),
]


@pytest.mark.parametrize("wl", SMOKE, ids=lambda wl: wl.name)
def test_smoke_workload_runs_checks_and_traces(wl, tmp_path):
    inputs = wl.inputs(7)
    assert inputs == wl.inputs(7) and inputs != wl.inputs(8)
    ctx = wl.prepare(tmp_path, 7, inputs)
    runner = run.Runner(wl, ctx, None)
    tracer = Tracer()
    for index, item in enumerate(inputs):
        assert runner.execute(index, item) is not None
        assert runner.execute(index, item, tracer) is not None
    assert runner.failed == 0 and runner.digests == {"unchecked": 2 * len(inputs)}
    assert qbos.cli.derive_seed is DERIVE_SEED and qbos.statevec.derive_seed is DERIVE_SEED
    assert not hasattr(qbos.cli.main, "__wrapped__")
    summary = summarize(tracer)
    assert summary["root_seconds"] > 0
    if wl.cells_per_op:
        cells = wl.cells_per_op * len(inputs)
        assert summary["calls"]["statevec.sample_counts"] == cells
    if isinstance(wl, workloads.SweepWorkload):
        # cli binds derive_seed by name and calls it twice per cell
        assert summary["calls"]["statevec.derive_seed"] == 2 * cells
    if isinstance(wl, workloads.MapLarge):
        assert summary["calls"]["device.load_calibration"] == len(inputs)
        assert tracer.tallies["gcm.pairs_placed"] == wl.pairs * len(inputs)


def test_failing_op_counts_as_failed(tmp_path):
    wl = workloads.MapLarge(list_len=1, pairs=10_000, distance=3)
    inputs = wl.inputs(0)
    runner = run.Runner(wl, wl.prepare(tmp_path, 0, inputs), None)
    assert runner.execute(0, inputs[0]) is None
    assert (runner.attempted, runner.failed) == (1, 1)
