"""Every BENCH_<n>.json at the repository root, the perf record of one change,
parses and gives a parent and a change median for every workload and every
end-to-end metric that BENCHMARK.json declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(path for path in ROOT.glob("BENCH_*.json")
                 if re.fullmatch(r"BENCH_\d+\.json", path.name))


def test_bench_records_were_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_bench_record_covers_every_workload_and_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"nproc", "python", "numpy"} <= record["machine"].keys()
    for workload in BENCHMARK["workloads"]:
        measured = record["workloads"][workload["name"]]
        assert measured["seeds"] and measured["seconds"] >= 1
        for metric in BENCHMARK["end_to_end"]:
            entry = measured["metrics"][metric["name"]]
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert type(median) in (int, float), (workload["name"], metric["name"], side)
