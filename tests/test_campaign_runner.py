"""The resumable, fail-soft campaign runner."""

import os

import pytest

from repro.campaign import CampaignRunner, CampaignStore, point_key
from repro.obs.registry import registry


def _square(n):
    return n * n


def _fail_on_three(n):
    if n == 3:
        raise ValueError("boom on 3")
    return n


def _flaky(point):
    """Fails once per marker path, then succeeds: a transient fault."""
    n, marker = point
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient")
    return n


def _store_bytes(store, name):
    with open(store.path_for(name), "rb") as handle:
        return handle.read()


class TestCampaignRunner:
    def test_cold_run_records_every_point(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(store, "demo", _square, jobs=1)
        summary = runner.run([1, 2, 3])
        assert (summary.total, summary.ran, summary.ok) == (3, 3, 3)
        assert summary.failed == 0 and summary.skipped == 0
        assert summary.complete
        records = store.load("demo")
        assert [r["result"] for r in records.values()] == [1, 4, 9]

    def test_records_append_in_input_point_order(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        points = [5, 1, 4, 2]
        CampaignRunner(store, "demo", _square, jobs=1).run(points)
        keys = list(store.load("demo"))
        assert keys == [point_key("demo", p) for p in points]

    def test_second_run_is_idempotent(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(store, "demo", _square, jobs=1)
        runner.run([1, 2, 3])
        first = _store_bytes(store, "demo")
        summary = runner.run([1, 2, 3])
        assert summary.ran == 0 and summary.skipped == 3
        assert summary.complete
        assert _store_bytes(store, "demo") == first

    def test_resume_after_partial_run_fills_the_gap(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(store, "demo", _square, jobs=1)
        runner.run([1, 2])  # the "killed early" prefix
        partial = _store_bytes(store, "demo")
        summary = runner.run([1, 2, 3, 4])
        assert summary.ran == 2 and summary.skipped == 2
        resumed = _store_bytes(store, "demo")
        assert resumed.startswith(partial)
        cold = CampaignStore(str(tmp_path / "cold"))
        CampaignRunner(cold, "demo", _square, jobs=1).run([1, 2, 3, 4])
        assert resumed == _store_bytes(cold, "demo")

    def test_failed_points_record_fail_soft(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(
            store, "demo", _fail_on_three, retries=0, jobs=1
        )
        summary = runner.run([1, 2, 3, 4])
        assert summary.ran == 4 and summary.ok == 3 and summary.failed == 1
        assert summary.complete  # fail-soft still covers the grid
        record = store.load("demo")[point_key("demo", 3)]
        assert record["status"] == "failed" and record["result"] is None
        assert record["error"]["type"] == "ValueError"
        assert "boom on 3" in record["error"]["message"]
        # The worker-side stack survives into the record: the original
        # exception object dies at the pool boundary, but the record
        # still says where the point failed.
        assert "_fail_on_three" in record["error"]["traceback"]
        assert "ValueError: boom on 3" in record["error"]["traceback"]

    def test_failed_points_record_traceback_across_pool(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(
            store, "demo", _fail_on_three, retries=0, jobs=2
        )
        runner.run([1, 2, 3, 4])
        record = store.load("demo")[point_key("demo", 3)]
        assert "_fail_on_three" in record["error"]["traceback"]

    def test_failed_points_are_terminal_on_resume(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(
            store, "demo", _fail_on_three, retries=0, jobs=1
        )
        runner.run([3])
        summary = runner.run([3])
        assert summary.ran == 0 and summary.skipped == 1

    def test_retry_failed_appends_superseding_record(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        CampaignRunner(store, "demo", _fail_on_three, retries=0,
                       jobs=1).run([3])
        marker = str(tmp_path / "flaky-3")
        point = (3, marker)
        CampaignRunner(store, "demo", _flaky, retries=0, jobs=1,
                       backoff_s=0.0).run([point])
        # Same key never stored: different point tuple. Re-run the
        # original failure with a now-succeeding function instead.
        retry = CampaignRunner(store, "demo", _square, retries=0,
                               jobs=1, retry_failed=True)
        summary = retry.run([3])
        assert summary.ran == 1 and summary.ok == 1
        record = store.load("demo")[point_key("demo", 3)]
        assert record["status"] == "ok" and record["result"] == 9
        with open(store.path_for("demo")) as handle:
            lines = handle.readlines()
        assert len(lines) == 3  # superseded by append, not rewrite

    def test_retries_rescue_transient_failures(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        before = registry().counter_value("campaign.retries")
        point = (7, str(tmp_path / "marker"))
        summary = CampaignRunner(
            store, "demo", _flaky, retries=1, backoff_s=0.0, jobs=1
        ).run([point])
        assert summary.ok == 1 and summary.failed == 0
        assert registry().counter_value("campaign.retries") == before + 1
        assert store.load("demo")[point_key("demo", point)]["result"] == 7

    def test_zero_retries_fail_immediately(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        point = (7, str(tmp_path / "marker"))
        summary = CampaignRunner(
            store, "demo", _flaky, retries=0, jobs=1
        ).run([point])
        assert summary.failed == 1
        record = store.load("demo")[point_key("demo", point)]
        assert record["error"]["type"] == "RuntimeError"

    def test_duplicate_points_run_once(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        summary = CampaignRunner(store, "demo", _square, jobs=1).run(
            [2, 2, 3]
        )
        assert summary.total == 3 and summary.duplicates == 1
        assert summary.ran == 2 and summary.complete
        assert len(store.load("demo")) == 2

    def test_repair_runs_before_resume(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        runner = CampaignRunner(store, "demo", _square, jobs=1)
        runner.run([1, 2])
        with open(store.path_for("demo"), "ab") as handle:
            handle.write(b'{"torn": ')  # killed mid-append
        summary = runner.run([1, 2, 3])
        assert summary.quarantined == 1
        assert summary.ran == 1 and summary.skipped == 2
        cold = CampaignStore(str(tmp_path / "cold"))
        CampaignRunner(cold, "demo", _square, jobs=1).run([1, 2, 3])
        assert _store_bytes(store, "demo") == _store_bytes(cold, "demo")

    def test_parallel_store_matches_serial_bytes(self, tmp_path):
        serial = CampaignStore(str(tmp_path / "serial"))
        CampaignRunner(serial, "demo", _square, jobs=1).run(range(6))
        pooled = CampaignStore(str(tmp_path / "pooled"))
        summary = CampaignRunner(pooled, "demo", _square, jobs=2).run(
            range(6)
        )
        assert summary.ok == 6
        assert _store_bytes(serial, "demo") == _store_bytes(pooled, "demo")

    def test_string_store_root_accepted(self, tmp_path):
        runner = CampaignRunner(str(tmp_path), "demo", _square, jobs=1)
        runner.run([2])
        assert runner.store.load("demo")[point_key("demo", 2)][
            "result"
        ] == 4

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1},
        {"backoff_s": -0.1},
        {"backoff_cap_s": -1.0},
    ])
    def test_invalid_knobs_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            CampaignRunner(str(tmp_path), "demo", _square, **kwargs)
