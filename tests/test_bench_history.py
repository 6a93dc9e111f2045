"""``BENCH_history.jsonl``: one record per parent/change pair of the repo
benchmark (``benchmarks/e2e``), appended by each change that ran the perf
protocol.  The file is read by people and scripts, so its shape is checked:
every line parses, names a workload ``BENCHMARK.json`` declares, carries the
four end-to-end metrics and the failed-op count on both sides, and maps its
parent commit to one change number.  A traced attribution pair (``"trace":
1``, run for the per-layer split) may carry fewer values, never fewer than
the failed-op count."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _records():
    lines = (ROOT / "BENCH_history.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_every_record_is_a_complete_pair():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in spec["workloads"]}
    values = {metric["name"] for metric in spec["end_to_end"]} | {"failed"}
    records = _records()
    assert records
    for record in records:
        assert record["workload"] in workloads, record
        assert record["first"] in ("parent", "change"), record
        assert isinstance(record["seed"], int), record
        for side in ("parent_values", "change_values"):
            if record.get("trace"):
                assert "failed" in record[side] and len(record[side]) > 1, record
            else:
                assert set(record[side]) == values, (record, side)
            assert all(isinstance(v, (int, float)) for v in record[side].values())


def test_each_parent_is_one_change():
    numbers = {}
    for record in _records():
        assert len(record["parent"]) == 40 and isinstance(record["pr"], int)
        numbers.setdefault(record["parent"], set()).add(record["pr"])
    assert all(len(prs) == 1 for prs in numbers.values()), numbers
    # Different parents are different changes.
    assert len({pr for prs in numbers.values() for pr in prs}) == len(numbers)
