"""Tests for the Figure 4 timeline experiment."""

from repro.experiments import fig04_timelines
from repro.sim.trace import Trace
from repro.sim.engine import CORE, LINK_H, LINK_V


def _timelines():
    """Every algorithm's simulated timeline, with its ``SimResult``."""
    return [
        fig04_timelines.simulate_timeline(algorithm)
        for algorithm in fig04_timelines.ALGORITHMS
    ]


class TestFig4:
    def test_meshslice_fastest(self):
        rows = fig04_timelines.CAMPAIGN.run(fig04_timelines.points())
        order = fig04_timelines.ordering(rows)
        assert order[0] == "meshslice"
        assert set(order) == {
            "cannon", "summa", "collective", "wang", "meshslice",
        }

    def test_meshslice_uses_both_links_while_computing(self):
        """The Figure 4 signature: MeshSlice keeps compute and both
        torus directions busy simultaneously."""
        rows = {r.algorithm: r for r in _timelines()}
        trace = rows["meshslice"].result.trace
        total = rows["meshslice"].result.makespan
        assert trace.busy_time(CORE) > 0.7 * total
        assert trace.busy_time(LINK_H) > 0.3 * total
        assert trace.busy_time(LINK_V) > 0.1 * total

    def test_collective_never_overlaps(self):
        """Collective's core and link busy times sum to the makespan
        (no concurrency between compute and communication)."""
        rows = {r.algorithm: r for r in _timelines()}
        result = rows["collective"].result
        trace = Trace.from_spans(result.spans)
        core = trace.busy_time(CORE)
        links = max(trace.busy_time(LINK_H), trace.busy_time(LINK_V))
        assert core + links >= 0.99 * result.makespan

    def test_main_renders_all_timelines(self):
        spec = fig04_timelines.CAMPAIGN
        report = spec.render(spec.run())
        for name in ("cannon", "summa", "collective", "wang", "meshslice"):
            assert name in report
        assert "fastest to slowest" in report
