"""Tests of the profiling workflow and its CLI/API surfaces."""

import pytest

from repro.hw import TPUV4
from repro.models import get_model


@pytest.fixture(scope="module")
def report():
    from repro.obs.profile import profile_block

    # The report lists the hit rates of the caches its search called,
    # so it is built with caching on.
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_CACHE", raising=False)
        return profile_block(get_model("gpt3-175b"), 8, 16, TPUV4)


class TestProfileBlock:
    def test_matches_best_block_run(self, report):
        from repro.experiments.common import best_block_run

        block = best_block_run(
            "meshslice", get_model("gpt3-175b"), 8, 16, TPUV4
        )
        assert report.mesh == block.mesh.shape
        assert report.block_seconds == pytest.approx(block.seconds)
        assert report.flop_utilization == pytest.approx(
            block.utilization(TPUV4)
        )
        assert len(report.per_pass) == len(block.results)

    def test_aggregate_consistent_with_passes(self, report):
        assert report.metrics.makespan == pytest.approx(report.block_seconds)
        assert report.metrics.compute_seconds == pytest.approx(
            sum(m.compute_seconds for _label, m in report.per_pass)
        )
        assert 0.0 < report.metrics.overlap_fraction <= 1.0

    def test_cache_hit_rates_bounded(self, report):
        assert report.cache_hit_rates
        for rate in report.cache_hit_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_render_mentions_everything(self, report):
        text = report.render()
        assert "gpt3-175b" in text
        assert "FLOP utilization" in text
        assert "overlap fraction" in text
        assert "comm breakdown" in text
        assert "core" in text
        assert "hit rate" in text

    def test_unsupported_point_returns_none(self):
        from repro.obs.profile import profile_block

        # Cannon needs a square mesh: 32 chips has none.
        result = profile_block(
            get_model("gpt3-175b"), 8, 32, TPUV4, algorithm="cannon"
        )
        assert result is None


class TestCacheHitRates:
    """The report's hit rates cover the profiled search alone, not
    whatever else the process had cached before it."""

    def test_only_caches_the_search_called(self, monkeypatch):
        from repro.algorithms import GeMMConfig
        from repro.core import Dataflow, GeMMShape
        from repro.faults import FaultSpec
        from repro.mesh import Mesh2D
        from repro.obs.profile import profile_block
        from repro.perf.cache import clear_caches
        from repro.perf.pipeline import faulted_pass

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        clear_caches()
        cfg = GeMMConfig(
            GeMMShape(2048, 2048, 2048), Mesh2D(4, 4), Dataflow.OS, slices=4
        )
        plan = FaultSpec(stragglers=2, seed=3).sample(16, TPUV4)
        faulted_pass("meshslice", cfg, TPUV4, plan)
        model = get_model("gpt3-175b")
        first = profile_block(model, 8, 16, TPUV4)
        assert first.cache_hit_rates
        assert "faulted_pass" not in first.cache_hit_rates
        second = profile_block(model, 8, 16, TPUV4)
        assert second.cache_hit_rates["simulated_pass"] == 1.0
        assert set(second.cache_hit_rates) <= set(first.cache_hit_rates)


class TestPublicApi:
    def test_simulate_attaches_metrics(self, hw):
        from repro import simulate
        from repro.obs.derive import RunMetrics
        from repro.sim import ProgramBuilder

        builder = ProgramBuilder(hw)
        builder.gemm("g", 1024, 1024, 1024)
        result = simulate(builder.build(), hw)
        assert isinstance(result.metrics, RunMetrics)
        assert result.metrics.makespan == pytest.approx(result.makespan)

    def test_top_level_exports(self):
        import repro

        assert repro.RunMetrics is not None
        assert repro.ProfileReport is not None
        assert repro.MetricsRegistry is not None
        assert callable(repro.profile_block)
        for name in (
            "RunMetrics", "ProfileReport", "MetricsRegistry", "profile_block"
        ):
            assert name in repro.__all__

    def test_obs_package_lazy_exports(self):
        import repro.obs as obs

        assert set(obs._LAZY_EXPORTS) <= set(obs.__all__)
        assert obs.derive_run_metrics is not None
        with pytest.raises(AttributeError):
            obs.not_a_real_name


class TestCli:
    def test_profile_command(self, capsys, monkeypatch):
        from repro.cli import main

        # The hit-rate section lists the caches the search called.
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["profile", "gpt3-175b", "--chips", "16",
                     "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "FLOP utilization" in out
        assert "overlap fraction" in out
        assert "hit rate" in out

    def test_profile_requires_model(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_profile_unknown_model(self, capsys):
        from repro.cli import main

        assert main(["profile", "no-such-model"]) == 2

    def test_profile_unsupported_algorithm_point(self, capsys):
        from repro.cli import main

        code = main(["profile", "gpt3-175b", "--chips", "32",
                     "--batch", "8", "--algorithm", "cannon"])
        assert code == 2
        assert "cannot run" in capsys.readouterr().err

    def test_profile_without_caching_drops_only_hit_rates(
        self, capsys, monkeypatch
    ):
        """``REPRO_NO_CACHE=1`` changes only the cache views: the report
        is the cached one minus its hit-rate section, which is left out
        when the search called no cache."""
        from repro.cli import main

        argv = ["profile", "gpt3-175b", "--chips", "16", "--batch", "8"]
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(argv) == 0
        cached = capsys.readouterr().out.splitlines(keepends=True)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(argv) == 0
        uncached = capsys.readouterr().out
        start = next(
            i for i, line in enumerate(cached)
            if line.split() == ["cache", "hit", "rate"]
        )
        end = start
        while end < len(cached) and cached[end].strip():
            end += 1
        assert not cached[start - 1].strip()
        assert uncached == "".join(cached[:start - 1] + cached[end:])

    def test_profile_writes_metrics_file(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.obs.export import read_jsonl

        # The export carries cache.* series only for caches that counted.
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        out = tmp_path / "m.jsonl"
        assert main(["profile", "gpt3-175b", "--chips", "16",
                     "--batch", "8", "--metrics", str(out)]) == 0
        records = read_jsonl(str(out))
        names = {r["name"] for r in records}
        assert "run.overlap_fraction" in names
        assert any(n.startswith("cache.") for n in names)

    def test_tune_writes_metrics_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.export import read_jsonl

        out = tmp_path / "m.jsonl"
        assert main(["tune", "gpt3-175b", "--chips", "16",
                     "--batch", "8", "--metrics", str(out)]) == 0
        names = {r["name"] for r in read_jsonl(str(out))}
        assert "tuner.runs" in names

    def test_failed_command_writes_no_metrics(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.jsonl"
        assert main(["profile", "no-such-model",
                     "--metrics", str(out)]) == 2
        assert not out.exists()

    def test_profile_is_a_command_not_an_experiment(self):
        from repro.cli import normalize_argv

        assert normalize_argv(["profile", "x"]) == ["profile", "x"]
        assert normalize_argv(["fig9"]) == ["run", "fig9"]
