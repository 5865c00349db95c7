"""Unit tests of the metrics exporters and the JSONL schema."""

import json

import pytest

from repro.obs.export import (
    collect_records,
    dumps_records,
    read_jsonl,
    summary_table,
    validate_record,
    write_jsonl,
)
from repro.obs.registry import GLOBAL_REGISTRY


@pytest.fixture(autouse=True)
def clean_registry():
    GLOBAL_REGISTRY.clear()
    yield
    GLOBAL_REGISTRY.clear()


def _counter(name="c", value=1.0, labels=None):
    return {
        "type": "counter",
        "name": name,
        "labels": labels or {},
        "value": value,
    }


class TestValidateRecord:
    def test_accepts_counter(self):
        validate_record(_counter())

    def test_accepts_histogram(self):
        validate_record(
            {
                "type": "histogram",
                "name": "h",
                "labels": {},
                "count": 2,
                "total": 1.5,
                "buckets": {"1.0": 2},
            }
        )

    @pytest.mark.parametrize("missing", ["type", "name", "labels"])
    def test_rejects_missing_required_key(self, missing):
        record = _counter()
        del record[missing]
        with pytest.raises(ValueError, match="missing"):
            validate_record(record)

    def test_rejects_unknown_type(self):
        record = _counter()
        record["type"] = "timer"
        with pytest.raises(ValueError, match="unknown"):
            validate_record(record)

    def test_rejects_non_string_labels(self):
        record = _counter(labels={"k": 1})
        with pytest.raises(ValueError, match="labels"):
            validate_record(record)

    def test_rejects_extra_keys(self):
        record = _counter()
        record["count"] = 3
        with pytest.raises(ValueError, match="unexpected"):
            validate_record(record)

    def test_rejects_missing_value(self):
        record = _counter()
        del record["value"]
        with pytest.raises(ValueError, match="numeric value"):
            validate_record(record)

    def test_rejects_non_int_histogram_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            validate_record(
                {
                    "type": "histogram",
                    "name": "h",
                    "labels": {},
                    "count": 1,
                    "total": 1.0,
                    "buckets": {"1.0": 1.5},
                }
            )


class TestCollectAndDump:
    def test_registry_records_validate(self):
        GLOBAL_REGISTRY.inc("sim.runs", 2.0)
        GLOBAL_REGISTRY.observe("engine.queue_wait_seconds", 1e-4)
        records = collect_records()
        assert records
        for record in records:
            validate_record(record)

    def test_sorted_output(self):
        GLOBAL_REGISTRY.inc("z.last")
        GLOBAL_REGISTRY.inc("a.first")
        records = collect_records()
        keys = [(r["type"], r["name"]) for r in records]
        assert keys == sorted(keys)

    def test_run_metrics_included(self):
        from repro.obs.derive import derive_run_metrics

        metrics = derive_run_metrics([])
        records = [
            r for r in collect_records(run_metrics=[metrics])
            if not r["name"].startswith("cache.")
        ]
        assert any(r["name"] == "run.makespan_seconds" for r in records)
        assert all(r["type"] == "derived" for r in records)

    def test_cache_series_validate(self, hw, monkeypatch):
        """Memo caches count in the registry: a cache that was called
        exports schema-valid ``cache.hits``/``cache.misses`` counters
        whose sum is its calls; one that was not exports nothing."""
        from repro.algorithms import GeMMConfig
        from repro.core.gemm import GeMMShape
        from repro.mesh import Mesh2D
        from repro.perf import simulated_pass

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cfg = GeMMConfig(GeMMShape(512, 512, 512), Mesh2D(2, 2), slices=2)
        for _ in range(3):
            simulated_pass("meshslice", cfg, hw)
        cache = [
            r for r in collect_records() if r["name"].startswith("cache.")
        ]
        for record in cache:
            validate_record(record)
            assert record["type"] == "counter"
            assert set(record["labels"]) == {"cache"}
            assert record["value"] > 0
        calls = sum(
            r["value"] for r in cache
            if r["labels"]["cache"] == "simulated_pass"
        )
        assert calls == 3
        assert "faulted_pass" not in {r["labels"]["cache"] for r in cache}

    def test_dumps_one_sorted_line_per_record(self):
        text = dumps_records([_counter("b"), _counter("a")])
        lines = text.splitlines()
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)
        assert text.endswith("\n")

    def test_file_roundtrip(self, tmp_path):
        records = [_counter("a"), _counter("b", 2.0, {"k": "v"})]
        path = tmp_path / "m.jsonl"
        write_jsonl(records, str(path))
        assert read_jsonl(str(path)) == records

    def test_read_rejects_invalid_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "timer", "name": "x", "labels": {}}\n')
        with pytest.raises(ValueError):
            read_jsonl(str(path))

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n" + dumps_records([_counter()]) + "\n")
        assert read_jsonl(str(path)) == [_counter()]


class TestSummaryTable:
    def test_renders_all_types(self):
        GLOBAL_REGISTRY.inc("sim.runs", 3.0, labels={"kind": "x"})
        GLOBAL_REGISTRY.set_gauge("level", 0.5)
        GLOBAL_REGISTRY.observe("h", 2.0)
        GLOBAL_REGISTRY.observe("h", 4.0)
        table = summary_table(collect_records())
        assert "sim.runs" in table
        assert "kind=x" in table
        assert "n=2" in table and "mean=3" in table

    def test_empty_records(self):
        table = summary_table([])
        assert "name" in table
