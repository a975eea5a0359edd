"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


class TestPercentileRule:
    @pytest.mark.parametrize("n, beyond", [(99, 9), (100, 10), (109, 10), (110, 11), (1000, 100)])
    def test_samples_beyond_p90(self, n, beyond):
        assert measure.samples_beyond(n, 900) == beyond

    @pytest.mark.parametrize("n, permille", [
        (1, None), (99, None), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999),
    ])
    def test_highest_percentile_needs_ten_samples_beyond(self, n, permille):
        assert measure.highest_percentile(n) == permille

    def test_summary_reports_p90_only_from_100_samples(self):
        assert set(measure.timing_summary([float(i) for i in range(99)])) == {"p50", "n"}
        summary = measure.timing_summary([float(i) for i in range(1, 101)])
        assert summary == {"p50": 50.5, "n": 100, "p90": 90.0}

    def test_p99_label(self):
        assert "p99" in measure.timing_summary([1.0] * 1000)
        assert "p99.9" in measure.timing_summary([1.0] * 10000)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        tree = [
            Span("root", 0, 100, -1),
            Span("a", 10, 40, 0),
            Span("a.leaf", 15, 25, 1),
            Span("b", 50, 70, 0),
            Span("c", 60, 80, 0),     # overlaps b: the union 50..80 is covered
            Span("d", 90, 120, 0),    # runs past its parent: clipped to 90..100
        ]
        assert spans.self_times(tree) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]

    def test_totals_group_by_name(self):
        tree = [Span("op", 0, 10, -1), Span("leaf", 2, 5, 0), Span("op", 20, 30, -1)]
        assert spans.totals(tree) == {
            "op": {"calls": 2, "total_ns": 20, "self_ns": 17},
            "leaf": {"calls": 1, "total_ns": 3, "self_ns": 3},
        }


class TestTracer:
    def _module(self):
        mod = SimpleNamespace()
        mod.leaf = lambda x: x + 1
        mod.outer = lambda x: mod.leaf(x) * 2  # looks leaf up through the module

        def broken():
            raise KeyError("boom")

        mod.broken = broken
        return mod

    def test_spans_nest_and_wrappers_are_removed(self):
        mod = self._module()
        originals = dict(vars(mod))
        ticks = iter(range(100))
        tracer = spans.Tracer(
            [(mod, "leaf", "m.leaf"), (mod, "outer", "m.outer")], clock=lambda: next(ticks)
        )
        with tracer:
            assert mod.outer(1) == 4
        assert mod.outer(1) == 4  # untraced call adds no span
        assert [(s.name, s.parent) for s in tracer.spans] == [("m.outer", -1), ("m.leaf", 0)]
        outer, leaf = tracer.spans
        assert outer.start < leaf.start < leaf.end < outer.end
        assert vars(mod) == originals

    def test_exception_closes_the_span(self):
        mod = self._module()
        tracer = spans.Tracer([(mod, "broken", "m.broken"), (mod, "leaf", "m.leaf")])
        with tracer, pytest.raises(KeyError):
            mod.broken()
        with tracer:
            mod.leaf(0)
        assert [(s.name, s.parent) for s in tracer.spans] == [("m.broken", -1), ("m.leaf", -1)]
        assert all(s.end >= s.start for s in tracer.spans)

    def test_double_install_rejected(self):
        tracer = spans.Tracer([(self._module(), "leaf", "m.leaf")])
        with tracer, pytest.raises(RuntimeError):
            tracer.install()


class TestTally:
    def test_error_rate_counts_each_failed_operation_once(self):
        tally = measure.Tally()
        for _ in range(4):
            tally.attempt()
        tally.fail(1, "exception")
        tally.fail(1, "output check")  # the first reason is kept
        tally.fail(3, "output check")
        assert (tally.attempted, tally.failed, tally.error_rate) == (4, 2, 0.5)
        assert tally.failures == {1: "exception", 3: "output check"}

    def test_no_failures_is_zero(self):
        tally = measure.Tally()
        tally.attempt()
        assert tally.error_rate == 0.0

    def test_unattempted_operation_cannot_fail(self):
        with pytest.raises(ValueError):
            measure.Tally().fail(0, "never ran")


class TestLayerMetrics:
    def test_grouping_and_per_operation_division(self):
        prims = ["add", "conv2d", "matmul", "relu", "reshape"]
        op_totals = {
            "autodiff.conv2d": {"calls": 4, "total_ns": 8_000_000, "self_ns": 6_000_000},
            "autodiff.add": {"calls": 2, "total_ns": 1_000_000, "self_ns": 1_000_000},
            "autodiff.relu": {"calls": 2, "total_ns": 3_000_000, "self_ns": 3_000_000},
            "autodiff.matmul": {"calls": 2, "total_ns": 2_000_000, "self_ns": 2_000_000},
            "network.pass1": {"calls": 2, "total_ns": 10_000_000, "self_ns": 1_000_000},
            "network.predict": {"calls": 2, "total_ns": 12_000_000, "self_ns": 500_000},
        }
        setup_totals = {"datagen.gen_scene": {"calls": 6, "total_ns": 9_000_000, "self_ns": 0}}
        m = layers.per_layer(op_totals, 2, setup_totals, 3, prims, [2.0, 4.0], [2.0, 2.0])
        assert set(m) == set(layers.PER_LAYER)
        assert m["autodiff.conv2d.ms"] == 3.0
        assert m["autodiff.conv2d.calls"] == 2
        assert m["autodiff.pointwise.ms"] == 2.0
        assert m["autodiff.other.ms"] == 1.0
        assert m["autodiff.calls"] == 5
        assert m["network.pass1.ms"] == 5.0
        assert m["network.self.ms"] == 0.75
        assert m["datagen.gen_scene.ms"] == 3.0
        assert m["autodiff.backward.ms"] == 0
        assert m["trace.overhead"] == 1.5


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
