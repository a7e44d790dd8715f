"""Tests for the observability subsystem (:mod:`repro.trace`).

Covers the tracer core (nesting, parent links, balance under
exceptions), the Chrome trace_event exporter and its validator, the
bench-trend data layer, and the engine integration rules the design
pins down: spans never leak across scenarios and the delta counters
reset exactly where DESIGN.md §5e says.
"""

import json

import pytest

from repro.circuits import inverter_chain
from repro.core.timing import TimingAnalyzer
from repro.errors import TraceError
from repro.tech import CMOS3
from repro.trace import spans as trace_spans
from repro.trace.export import (aggregate_spans, chrome_trace_events,
                                format_trace_summary, validate_trace,
                                validate_trace_file, write_chrome_trace)
from repro.trace.spans import NULL_SCOPE, SpanRecord, Tracer
from repro.trace.trends import (TrendEntry, collect_metrics, flatten_numeric,
                                format_trend_report, load_history,
                                record_entry)


@pytest.fixture
def tracer():
    """An installed tracer, uninstalled again afterwards."""
    t = Tracer()
    trace_spans.install(t)
    yield t
    trace_spans.uninstall()


def record(name, start, duration, pid=1, tid=0, sid=1, parent=-1,
           phase="X", args=None):
    return SpanRecord(name=name, start=start, duration=duration, pid=pid,
                      tid=tid, sid=sid, parent=parent, phase=phase,
                      args=args)


class TestTracer:
    def test_nesting_records_parent_sids(self, tracer):
        with trace_spans.span("outer"):
            with trace_spans.span("inner"):
                pass
        inner, outer = tracer.records
        assert inner.name == "inner"
        assert outer.name == "outer"
        assert inner.parent == outer.sid
        assert outer.parent == -1
        assert inner.start >= outer.start
        assert inner.duration <= outer.duration

    def test_scope_set_adds_args_mid_body(self, tracer):
        with trace_spans.span("analyze", inputs=4) as scope:
            scope.set(visits=17)
        (rec,) = tracer.records
        assert rec.args == {"inputs": 4, "visits": 17}

    def test_instant_records_parent(self, tracer):
        with trace_spans.span("outer"):
            trace_spans.instant("hit", stage=3)
        hit, outer = tracer.records
        assert hit.phase == "i"
        assert hit.duration == 0.0
        assert hit.parent == outer.sid

    def test_disabled_sites_share_null_scope(self):
        assert trace_spans.current() is None
        scope = trace_spans.span("anything", stage=1)
        assert scope is NULL_SCOPE
        with scope as s:
            s.set(ignored=True)
        trace_spans.instant("nothing")  # no tracer: silently dropped

    def test_balanced_after_exception(self, tracer):
        with pytest.raises(ValueError):
            with trace_spans.span("outer"):
                with trace_spans.span("inner"):
                    raise ValueError("boom")
        assert tracer.open_spans == 0
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_activate_restores_previous(self):
        first, second = Tracer(), Tracer()
        with trace_spans.activate(first):
            assert trace_spans.current() is first
            with trace_spans.activate(second):
                assert trace_spans.current() is second
            assert trace_spans.current() is first
        assert trace_spans.current() is None

    def test_activate_none_is_passthrough(self):
        first = Tracer()
        with trace_spans.activate(first):
            with trace_spans.activate(None):
                assert trace_spans.current() is first

    def test_disabled_site_cost_requires_tracing_off(self, tracer):
        with pytest.raises(AssertionError):
            trace_spans.disabled_site_cost(iterations=10)

    def test_disabled_site_cost_measures(self):
        cost = trace_spans.disabled_site_cost(iterations=1000)
        assert 0.0 < cost < 1e-4  # well under 100 µs per site


class TestChromeExport:
    def test_events_normalized_to_microseconds(self):
        records = [record("outer", start=10.0, duration=0.002, sid=1),
                   record("inner", start=10.001, duration=0.0005, sid=2,
                          parent=1, args={"stage": 3})]
        events = chrome_trace_events(records)
        outer, inner = events
        assert outer["ts"] == 0.0
        assert outer["dur"] == pytest.approx(2000.0)
        assert inner["ts"] == pytest.approx(1000.0)
        assert inner["args"] == {"stage": 3}
        assert all(e["ph"] == "X" for e in events)

    def test_write_validate_round_trip(self, tmp_path, tracer):
        with trace_spans.span("outer"):
            trace_spans.instant("mark")
        path = tmp_path / "trace.json"
        count = write_chrome_trace(tracer, str(path))
        assert count == validate_trace_file(str(path)) == 2
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"

    @pytest.mark.parametrize("payload, message", [
        ([], "not a JSON object"),
        ({}, "no traceEvents"),
        ({"traceEvents": [{}]}, "has no name"),
        ({"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 0}]},
         "bad phase"),
        ({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0,
                           "ts": -1.0, "dur": 1.0}]}, "bad ts"),
        ({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0,
                           "ts": 0.0}]}, "bad dur"),
    ])
    def test_validator_rejects(self, payload, message):
        with pytest.raises(TraceError, match=message):
            validate_trace(payload)

    def test_self_time_is_exact(self):
        # outer (10s) contains two 3s children; one child has a 1s
        # grandchild that must NOT be charged to outer.
        records = [
            record("outer", 0.0, 10.0, sid=1),
            record("child", 1.0, 3.0, sid=2, parent=1),
            record("child", 5.0, 3.0, sid=3, parent=1),
            record("grand", 5.5, 1.0, sid=4, parent=3),
        ]
        stats = {s.name: s for s in aggregate_spans(records)}
        assert stats["outer"].self_time == pytest.approx(4.0)
        assert stats["child"].self_time == pytest.approx(5.0)
        assert stats["child"].count == 2
        assert stats["child"].total == pytest.approx(6.0)

    def test_self_time_keys_on_pid(self):
        # Same sids in two processes: parent links must not cross pids.
        records = [
            record("outer", 0.0, 10.0, sid=1, pid=1),
            record("other", 0.0, 8.0, sid=1, pid=2),
            record("child", 1.0, 2.0, sid=2, parent=1, pid=2),
        ]
        stats = {s.name: s for s in aggregate_spans(records)}
        assert stats["outer"].self_time == pytest.approx(10.0)
        assert stats["other"].self_time == pytest.approx(6.0)

    def test_summary_table(self):
        records = [record("analyze", 0.0, 2.0, sid=1),
                   record("mark", 0.5, 0.0, sid=2, parent=1, phase="i")]
        table = format_trace_summary(records)
        assert "analyze" in table
        assert "mark" in table
        assert "2 event(s) from 1 process(es)" in table


class TestTrends:
    def test_flatten_numeric(self):
        flat = flatten_numeric({
            "a": 1, "b": {"c": 2.5, "identical": True},
            "name": "skipped", "list": [1, 2],
            "history": {"dropped": 9},
        })
        assert flat == {"a": 1.0, "b.c": 2.5, "b.identical": 1.0}

    def test_collect_metrics_prefixes_bench_names(self, tmp_path):
        (tmp_path / "BENCH_alpha.json").write_text(
            json.dumps({"speed": 2.0, "nested": {"n": 3},
                        "history": [{"speed": 1.0}]}))
        (tmp_path / "BENCH_beta.json").write_text(json.dumps({"x": 1}))
        metrics = collect_metrics(tmp_path)
        assert metrics == {"alpha.speed": 2.0, "alpha.nested.n": 3.0,
                           "beta.x": 1.0}

    def test_collect_metrics_errors(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            collect_metrics(tmp_path / "missing")
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        with pytest.raises(TraceError, match="cannot parse"):
            collect_metrics(tmp_path)

    def test_history_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        assert load_history(path) == []
        record_entry(path, {"m": 1.0}, timestamp="t1")
        record_entry(path, {"m": 2.0}, timestamp="t2")
        entries = load_history(path)
        assert [e.timestamp for e in entries] == ["t1", "t2"]
        assert entries[1].metrics == {"m": 2.0}
        assert len(path.read_text().splitlines()) == 2  # append-only

    def test_history_rejects_bad_line(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(TraceError, match="bad history line"):
            load_history(path)

    def test_report_baseline(self):
        report = format_trend_report(
            None, TrendEntry("t1", {"a.x": 1.0, "a.y": 2.0}))
        assert "baseline recorded" in report
        assert "2 metric(s)" in report

    def test_report_deltas_new_and_gone(self):
        previous = TrendEntry("t1", {"same": 5.0, "up": 10.0, "gone": 1.0})
        current = TrendEntry("t2", {"same": 5.0, "up": 15.0, "fresh": 3.0})
        report = format_trend_report(previous, current)
        assert "+50.0%" in report
        assert "new" in report and "gone" in report
        # unchanged metric folded away unless --all
        assert "1 metric(s) within" in report
        assert "same" in format_trend_report(previous, current,
                                             show_all=True)


class TestEngineIntegration:
    """The DESIGN.md §5e / §7 rules: spans follow the run lifecycle and
    the delta counters reset exactly at invalidate_caches."""

    @pytest.fixture
    def chain(self):
        return inverter_chain(CMOS3, 4)

    def test_analyze_emits_nested_spans(self, chain, tracer):
        analyzer = TimingAnalyzer(chain)
        analyzer.analyze({"in": 0.0})
        names = [r.name for r in tracer.records]
        assert "analyze" in names
        assert "stage_eval" in names
        top = next(r for r in tracer.records if r.name == "analyze")
        assert top.parent == -1
        assert top.args["stage_visits"] > 0
        assert top.args["inputs"] == 1
        stage = next(r for r in tracer.records if r.name == "stage_eval")
        # every stage_eval nests (transitively) under the analyze span
        by_sid = {r.sid: r for r in tracer.records}
        parent = stage
        while parent.parent != -1:
            parent = by_sid[parent.parent]
        assert parent.name == "analyze"
        assert tracer.open_spans == 0

    def test_spans_do_not_leak_across_scenarios(self, chain, tracer):
        analyzer = TimingAnalyzer(chain)
        analyzer.analyze_many([{"in": 0.0}, {"in": 0.1e-9}, {"in": 0.2e-9}],
                              delta=True)
        scenario_spans = [r for r in tracer.records if r.name == "scenario"]
        assert len(scenario_spans) == 3
        assert all(r.parent == -1 for r in scenario_spans)
        assert tracer.open_spans == 0

    def test_spans_balanced_when_analysis_raises(self, chain, tracer):
        analyzer = TimingAnalyzer(chain)
        with pytest.raises(Exception):
            analyzer.analyze({"no_such_input": 0.0})
        assert tracer.open_spans == 0
        # the aborted analyze span is still recorded (flushable buffer)
        assert any(r.name == "analyze" for r in tracer.records)

    def test_delta_counters_reset_at_invalidate_caches(self, chain):
        analyzer = TimingAnalyzer(chain)
        analyzer.analyze({"in": 0.0})
        analyzer.invalidate_caches()
        cold = analyzer.analyze_delta({"in": 0.1e-9})
        assert cold.perf.get("delta_scenarios") == 0
        # caches were dropped too: paths re-enumerated from scratch
        assert cold.perf.get("path_enumerations") > 0

    def test_per_run_perf_is_fresh_per_scenario(self, chain):
        analyzer = TimingAnalyzer(chain)
        first = analyzer.analyze({"in": 0.0})
        second = analyzer.analyze({"in": 0.1e-9})
        # run counters are per-scenario snapshots, not cumulative
        assert second.perf.get("stage_visits") == \
            first.perf.get("stage_visits")
        assert analyzer.perf.get("stage_visits") == \
            first.perf.get("stage_visits") + second.perf.get("stage_visits")

    def test_tracer_survives_scenarios_without_cross_talk(self, chain,
                                                          tracer):
        analyzer = TimingAnalyzer(chain)
        analyzer.analyze({"in": 0.0})
        first = len(tracer.records)
        analyzer.analyze({"in": 0.1e-9})
        second = [r for r in tracer.records[first:]]
        # the second run's spans reference only sids recorded after the
        # first run (no parent links reach back into scenario one)
        first_sids = {r.sid for r in tracer.records[:first]}
        for rec in second:
            assert rec.parent == -1 or rec.parent not in first_sids
