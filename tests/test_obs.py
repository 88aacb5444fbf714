"""The telemetry subsystem: metrics model, exporters, laziness profiler.

Exporter output is golden-filed (``tests/golden/metrics.prom``,
``tests/golden/flamegraph.speedscope.json``) from fully synthetic
inputs — a hand-built registry and a tracer whose span clocks are
overwritten with fixed values — so the bytes are deterministic and any
format drift is a visible diff.  Refresh intentionally with
``pytest tests/test_obs.py --update-goldens``.
"""

import json
import pathlib

import pytest

from repro import trace
from repro.obs import export, flamegraph
from repro.obs import lazy as obs_lazy
from repro.obs.metrics import (
    Deltas,
    Histogram,
    MetricError,
    MetricsRegistry,
    sanitize_name,
)
from tests.conftest import compile_source, cyclic_garbage

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, text: str, request) -> None:
    path = GOLDEN_DIR / name
    if request.config.getoption("--update-goldens"):
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden {path.name}; run pytest --update-goldens"
    )
    assert text == path.read_text(), (
        f"{path.name} drifted; rerun with --update-goldens if intended"
    )


# ---------------------------------------------------------------------------
# Metrics model
# ---------------------------------------------------------------------------


class TestThreadSafety:
    """The daemon's worker pool hammers shared families concurrently;
    increments and observations must never be lost or torn."""

    THREADS = 8
    ROUNDS = 2001  # divisible by 3: the histogram total is exact

    def _hammer(self, work):
        import threading

        errors = []

        def run(index):
            try:
                work(index)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        family = registry.counter("t_mt_total", "Hammered.", ("kind",))

        def work(index):
            # Every thread alternates between a shared child and its
            # own, so both child creation and value bumps race.
            own = family.labels(f"thread{index}")
            shared = family.labels("shared")
            for _ in range(self.ROUNDS):
                own.inc()
                shared.inc()

        self._hammer(work)
        assert family.labels("shared").value == \
            self.THREADS * self.ROUNDS
        for index in range(self.THREADS):
            assert family.labels(f"thread{index}").value == self.ROUNDS

    def test_histogram_observations_are_exact(self):
        registry = MetricsRegistry()
        family = registry.histogram("t_mt_ms", "Hammered.",
                                    bounds=(1, 10, 100))

        def work(index):
            for round_number in range(self.ROUNDS):
                family.observe((round_number % 3) * 50)

        self._hammer(work)
        child = family.labels()
        assert child.count == self.THREADS * self.ROUNDS
        assert child.total == self.THREADS * self.ROUNDS // 3 * 150
        assert sum(child.buckets) == child.count

    def test_cache_stats_view_mutations_are_exact(self):
        # Caches bump bound children of the shared cache-events family
        # from concurrent daemon workers; Counter.inc() takes the value
        # lock, so no count is lost.
        from repro.obs.metrics import CACHE_EVENTS

        hits = CACHE_EVENTS.labels("t-mt-view", "hit")
        misses = CACHE_EVENTS.labels("t-mt-view", "miss")
        hits_before, misses_before = hits.value, misses.value

        def work(index):
            for _ in range(self.ROUNDS):
                hits.inc()
                misses.inc()

        self._hammer(work)
        assert hits.value - hits_before == self.THREADS * self.ROUNDS
        assert misses.value - misses_before == self.THREADS * self.ROUNDS

    def test_racing_registration_yields_one_family(self):
        registry = MetricsRegistry()
        families = [None] * self.THREADS

        def work(index):
            families[index] = registry.counter("t_mt_race_total",
                                               "Raced.")

        self._hammer(work)
        assert len({id(f) for f in families}) == 1


class TestRegistry:
    def test_counter_accumulates_per_label_child(self):
        registry = MetricsRegistry()
        family = registry.counter("t_events_total", "Events.", ("kind",))
        family.labels("hit").inc()
        family.labels("hit").inc(2)
        family.labels("miss").inc()
        samples = {
            labels: child.value for labels, child in family.samples()
        }
        assert samples[("hit",)] == 3
        assert samples[("miss",)] == 1

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "T.")
        with pytest.raises(MetricError):
            family.inc(-1)

    def test_same_name_same_kind_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "T.", ("kind",))
        again = registry.counter("t_total", "T.", ("kind",))
        assert first is again

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "T.")
        with pytest.raises(MetricError):
            registry.gauge("t_total", "T.")

    def test_labelnames_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "T.", ("kind",))
        with pytest.raises(MetricError):
            registry.counter("t_total", "T.", ("kind", "extra"))

    def test_invalid_metric_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("0bad-name", "Bad.")

    def test_sanitize_name(self):
        assert sanitize_name("expansion.depth") == "expansion_depth"
        assert sanitize_name("9lives") == "_9lives"


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.cumulative()[-1] == ("+Inf", 0)

    def test_single_sample(self):
        h = Histogram(bounds=(1, 2, 4))
        h.observe(3)
        assert h.count == 1
        assert h.mean == 3.0
        # Cumulative counts: <=1: 0, <=2: 0, <=4: 1, +Inf: 1.
        assert h.cumulative() == [("1", 0), ("2", 0), ("4", 1), ("+Inf", 1)]

    def test_overflow_bucket(self):
        h = Histogram(bounds=(1, 2))
        h.observe(100)
        assert h.cumulative() == [("1", 0), ("2", 0), ("+Inf", 1)]
        assert h.snapshot()["buckets"][">2"] == 1

    def test_cumulative_counts_are_monotone(self):
        h = Histogram()
        for value in (1, 1, 3, 9, 200):
            h.observe(value)
        counts = [count for _, count in h.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == 5


# ---------------------------------------------------------------------------
# Exporters (golden)
# ---------------------------------------------------------------------------


def synthetic_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    cache = registry.counter(
        "demo_cache_events_total", "Cache events.", ("cache", "event"))
    cache.labels("lru", "hit").inc(7)
    cache.labels("lru", "miss").inc(2)
    # Label values needing escaping: backslash, quote, newline.
    odd = registry.counter("demo_odd_total", "Escaping.", ("path",))
    odd.labels('a\\b"c\nd').inc()
    gauge = registry.gauge("demo_depth", "Current depth.")
    gauge.set(3)
    hist = registry.histogram(
        "demo_latency", "Latency.", bounds=(1, 2, 4))
    for value in (0.5, 1.5, 3, 100):
        hist.observe(value)
    return registry


class TestPrometheusExport:
    def test_golden(self, request):
        text = export.to_prometheus(synthetic_registry())
        check_golden("metrics.prom", text, request)

    def test_histogram_exposition_shape(self):
        text = export.to_prometheus(synthetic_registry())
        assert 'demo_latency_bucket{le="+Inf"} 4' in text
        assert "demo_latency_sum 105" in text
        assert "demo_latency_count 4" in text

    def test_label_escaping(self):
        text = export.to_prometheus(synthetic_registry())
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_json_roundtrips(self):
        payload = json.loads(export.to_json_text(synthetic_registry()))
        assert payload["schema"] == "maya.metrics/1"
        families = {f["name"]: f for f in payload["families"]}
        assert families["demo_depth"]["kind"] == "gauge"
        cache_samples = families["demo_cache_events_total"]["samples"]
        assert {"cache": "lru", "event": "hit"} in \
            [s["labels"] for s in cache_samples]
        assert sum(s["value"] for s in cache_samples) == 9


def synthetic_tracer() -> trace.Tracer:
    tracer = trace.Tracer()
    compile_span = tracer.begin("compile", "demo.maya")
    lex = tracer.begin("phase", "lex")
    tracer.end(lex)
    parse = tracer.begin("phase", "parse+expand")
    dispatch = tracer.begin("dispatch", "Statement")
    expand = tracer.begin("expand", "EForEach")
    tracer.end(expand)
    tracer.end(dispatch)
    tracer.end(parse)
    tracer.end(compile_span)
    # Overwrite the clocks with fixed values (seconds) so the exported
    # milliseconds are bytes-stable.
    compile_span.start, compile_span.end = 10.000, 10.010
    lex.start, lex.end = 10.000, 10.001
    parse.start, parse.end = 10.001, 10.009
    dispatch.start, dispatch.end = 10.002, 10.008
    expand.start, expand.end = 10.003, 10.006
    return tracer


class TestFlamegraphExport:
    def test_speedscope_golden(self, request):
        text = flamegraph.to_speedscope_text(synthetic_tracer(), name="demo")
        check_golden("flamegraph.speedscope.json", text, request)

    def test_speedscope_is_well_formed(self):
        doc = json.loads(
            flamegraph.to_speedscope_text(synthetic_tracer(), name="demo"))
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        profile = doc["profiles"][0]
        assert profile["type"] == "evented"
        assert profile["unit"] == "milliseconds"
        events = profile["events"]
        # Monotone timestamps, balanced O/C nesting.
        assert all(a["at"] <= b["at"] for a, b in zip(events, events[1:]))
        stack = []
        for event in events:
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert stack.pop() == event["frame"]
        assert stack == []

    def test_folded_stacks(self):
        folded = flamegraph.folded_stacks(synthetic_tracer())
        lines = dict(
            line.rsplit(" ", 1) for line in folded.splitlines()
        )
        # Self time in integer microseconds per unique path.
        assert lines["compile demo.maya;phase lex"] == "1000"
        assert lines[
            "compile demo.maya;phase parse+expand;dispatch Statement;"
            "expand EForEach"
        ] == "3000"
        # compile self-time: 10ms total - 1ms lex - 8ms parse = 1ms.
        assert lines["compile demo.maya"] == "1000"

    def test_folded_stacks_exact_output(self):
        # Folded stacks read Span.self_time; on a fixed tree the bytes
        # are those the exporter produced when it summed children itself.
        assert flamegraph.folded_stacks(synthetic_tracer()) == (
            "compile demo.maya 1000\n"
            "compile demo.maya;phase lex 1000\n"
            "compile demo.maya;phase parse+expand 2000\n"
            "compile demo.maya;phase parse+expand;dispatch Statement 3000\n"
            "compile demo.maya;phase parse+expand;dispatch Statement;"
            "expand EForEach 3000\n")


def nested_tracer() -> trace.Tracer:
    """Two roots, siblings, four levels, attributes the human view
    prints; the clocks are binary fractions of a second, so every
    exported number is exact."""
    tracer = trace.Tracer()

    def span(kind, name, start, end, children=()):
        entry = tracer.begin(kind, name)
        for child in children:
            span(*child)
        tracer.end(entry)
        entry.start, entry.end = start, end

    span("compile", "a.maya", 0.0, 1.0, [
        ("phase", "lex", 0.0, 0.125),
        ("phase", "parse", 0.125, 0.875, [
            ("dispatch", "Statement", 0.25, 0.75, [
                ("expand", "EForEach", 0.25, 0.5),
                ("expand", "EForEach", 0.5625, 0.6875)])])])
    span("compile", "b.maya", 2.0, 2.5, [("phase", "lex", 2.0, 2.375)])
    tracer.roots[0].children[1].children[0].attrs.update(
        mayan="EForEach", before="x" * 80, after="for (;;) {\n  y();\n}")
    return tracer


class TestExportersOfNestedTraces:
    """The exporters walk the span tree with explicit stacks: their
    output is what the recursive walks printed, and a call leaves no
    cycle for the collector."""

    def test_render(self):
        assert nested_tracer().render() == "\n".join([
            "== mayac trace ==",
            "compile a.maya  [1000.00 ms]",
            "  phase lex  [125.00 ms]",
            "  phase parse  [750.00 ms]",
            "    dispatch Statement  [500.00 ms]",
            "      mayan: EForEach",
            "      before: " + "x" * 72 + "...",
            "      after: for (;;) { y(); }",
            "      expand EForEach  [250.00 ms]",
            "      expand EForEach  [125.00 ms]",
            "compile b.maya  [500.00 ms]",
            "  phase lex  [375.00 ms]"])

    def test_folded_stacks(self):
        assert flamegraph.folded_stacks(nested_tracer()) == (
            "compile a.maya 125000\n"
            "compile a.maya;phase lex 125000\n"
            "compile a.maya;phase parse 250000\n"
            "compile a.maya;phase parse;dispatch Statement 125000\n"
            "compile a.maya;phase parse;dispatch Statement;"
            "expand EForEach 375000\n"
            "compile b.maya 125000\n"
            "compile b.maya;phase lex 375000\n")

    def test_speedscope(self):
        doc = flamegraph.to_speedscope(nested_tracer(), name="demo")
        assert [frame["name"] for frame in doc["shared"]["frames"]] == [
            "compile a.maya", "phase lex", "phase parse",
            "dispatch Statement", "expand EForEach", "compile b.maya"]
        profile = doc["profiles"][0]
        assert profile["endValue"] == 2500.0
        assert [(e["type"], e["frame"], e["at"])
                for e in profile["events"]] == [
            ("O", 0, 0.0), ("O", 1, 0.0), ("C", 1, 125.0),
            ("O", 2, 125.0), ("O", 3, 250.0), ("O", 4, 250.0),
            ("C", 4, 500.0), ("O", 4, 562.5), ("C", 4, 687.5),
            ("C", 3, 750.0), ("C", 2, 875.0), ("C", 0, 1000.0),
            ("O", 5, 2000.0), ("O", 1, 2000.0), ("C", 1, 2375.0),
            ("C", 5, 2500.0)]

    @pytest.mark.parametrize("export", [
        trace.Tracer.render, flamegraph.folded_stacks,
        flamegraph.to_speedscope], ids=["render", "folded", "speedscope"])
    def test_no_cyclic_garbage(self, export):
        tracer = nested_tracer()
        assert cyclic_garbage(lambda: export(tracer)) == 0


# ---------------------------------------------------------------------------
# Laziness profiler
# ---------------------------------------------------------------------------


PLAIN_CLASS = """
    class Plain {
        int one() { return 1; }
        int two() { return 2; }
    }
"""

TYPEDEF_CLASS = """
    class Demo {
        static void main() {
            use maya.util.Typedef;
            typedef (Table = java.util.Hashtable) {
                Table t = new Table();
                t.put("k", "v");
            }
        }
    }
"""


def profile_compile(source: str, **kwargs) -> obs_lazy.LazinessProfiler:
    profiler = obs_lazy.activate()
    try:
        compile_source(source, **kwargs)
    finally:
        obs_lazy.deactivate()
    return profiler


class TestLazinessProfiler:
    def test_forced_never_exceeds_created(self):
        for source, kwargs in (
            (PLAIN_CLASS, {}),
            (TYPEDEF_CLASS, {"macros": True}),
        ):
            profiler = profile_compile(source, **kwargs)
            assert profiler.forced_total <= profiler.created_total

    def test_fully_eager_compile_forces_everything(self):
        # A plain class has no macros to leave work unexpanded: every
        # method-body thunk the parser creates, the compiler forces.
        profiler = profile_compile(PLAIN_CLASS)
        assert profiler.created_total > 0
        assert profiler.forced_total == profiler.created_total
        assert profiler.never_forced_fraction == 0.0

    def test_rescoped_thunks_are_never_forced(self):
        # ``use`` rescopes the remaining lazy bodies into a child
        # environment; the original thunks are abandoned unforced, so
        # a macro-using program has a nonzero never-forced fraction.
        profiler = profile_compile(TYPEDEF_CLASS, macros=True)
        assert profiler.never_forced > 0
        assert 0.0 < profiler.never_forced_fraction < 1.0

    def test_token_accounting(self):
        profiler = profile_compile(TYPEDEF_CLASS, macros=True)
        assert profiler.tokens_forced_total <= profiler.tokens_created_total
        assert 0.0 < profiler.never_parsed_token_fraction < 1.0

    def test_snapshot_shape(self):
        snapshot = profile_compile(PLAIN_CLASS).snapshot()
        assert snapshot["thunks"]["never_forced"] == 0
        assert snapshot["tokens"]["captured"] >= snapshot["tokens"]["parsed"]
        # Creation and forcing happen in *different* phases (that is
        # the point of laziness), so compare totals, not key sets.
        assert sum(snapshot["created_by_phase_symbol"].values()) == \
            sum(snapshot["forced_by_phase_symbol"].values())

    def test_render_mentions_fractions(self):
        text = profile_compile(TYPEDEF_CLASS, macros=True).render()
        assert "== mayac lazy report ==" in text
        assert "never forced" in text
        assert "per production:" in text

    def test_inactive_hooks_are_noops(self):
        assert obs_lazy.active is None
        profiler = profile_compile(PLAIN_CLASS)
        created = profiler.created_total
        # Compiling again without an active profiler must not touch the
        # deactivated profiler's tallies.
        compile_source(PLAIN_CLASS)
        assert profiler.created_total == created


# ---------------------------------------------------------------------------
# mayac CLI surfaces
# ---------------------------------------------------------------------------


from repro.mayac import main as mayac_main  # noqa: E402


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.maya"
    path.write_text("""
        import java.util.*;
        class Demo {
            static void main() {
                use maya.util.ForEach;
                Vector v = new Vector();
                v.addElement("obs");
                v.elements().foreach(String s) {
                    System.out.println(s);
                }
            }
        }
    """)
    return str(path)


class TestCliTelemetry:
    def test_metrics_out_stdout_prometheus(self, demo_file, capsys):
        assert mayac_main([demo_file, "--metrics-out", "-"]) == 0
        out = capsys.readouterr().out
        # The acceptance surface: cache, dispatch, phase-timing, and
        # laziness families, in valid exposition format.
        for family in (
            "maya_cache_events_total",
            "maya_dispatch_reductions_total",
            "maya_phase_seconds_total",
            "maya_lazy_thunks_created_total",
            "maya_lazy_thunks_forced_total",
        ):
            assert family in out
        for line in out.splitlines():
            assert line.startswith("#") or " " in line

    def test_metrics_out_json(self, demo_file, tmp_path):
        out = tmp_path / "m.json"
        assert mayac_main([demo_file, "--metrics-out", str(out),
                           "--metrics-format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "maya.metrics/1"
        names = {f["name"] for f in payload["families"]}
        assert "maya_dispatch_reductions_total" in names

    def test_metrics_out_unwritable_path(self, demo_file, capsys):
        code = mayac_main([demo_file, "--metrics-out",
                           "/nonexistent-dir/metrics.prom"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot write metrics" in err
        assert "Traceback" not in err

    def test_flamegraph_speedscope(self, demo_file, tmp_path):
        out = tmp_path / "flame.json"
        assert mayac_main([demo_file, "--flamegraph", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["profiles"][0]["type"] == "evented"
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert any(name.startswith("compile ") for name in frames)
        assert any(name.startswith("expand ") for name in frames)

    def test_flamegraph_folded(self, demo_file, capsys):
        assert mayac_main([demo_file, "--flamegraph", "-",
                           "--flamegraph-format", "folded"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0
        assert any(";expand " in line for line in out.splitlines())

    def test_flamegraph_unwritable_path(self, demo_file, capsys):
        code = mayac_main([demo_file, "--flamegraph",
                           "/nonexistent-dir/flame.json"])
        assert code == 1
        assert "cannot write flamegraph" in capsys.readouterr().err

    def test_lazy_report(self, demo_file, capsys):
        assert mayac_main([demo_file, "--lazy-report"]) == 0
        err = capsys.readouterr().err
        assert "== mayac lazy report ==" in err
        assert "never forced" in err

    def test_printed_counts_are_family_deltas(self, demo_file, capsys):
        # --profile and --lazy-report print registry growth over the
        # run, not tallies of their own.
        import re

        families = ("maya_dispatch_reductions_total",
                    "maya_parser_unit_reductions_skipped_total",
                    "maya_lazy_thunks_created_total",
                    "maya_lazy_thunks_forced_total")
        deltas = Deltas(*families)
        assert mayac_main([demo_file, "--profile", "--lazy-report",
                           "--run", "Demo"]) == 0
        deltas.freeze()
        err = capsys.readouterr().err
        shown = re.search(r"dispatch: (\d+) reductions dispatched, (\d+) "
                          r"unit reductions skipped", err).groups()
        shown += re.search(r"thunks: (\d+) created, (\d+) forced",
                           err).groups()
        assert [int(n) for n in shown] == \
            [deltas.total(name) for name in families]
        assert all(deltas.total(name) > 0 for name in families)

    def test_lazy_report_nonzero_never_forced(self, tmp_path, capsys):
        # use-rescoped bodies leave abandoned thunks: a visible
        # never-forced fraction, per the acceptance criterion.
        path = tmp_path / "lazy.maya"
        path.write_text("""
            class Demo {
                static void main() {
                    use maya.util.Typedef;
                    typedef (Table = java.util.Hashtable) {
                        Table t = new Table();
                        t.put("k", "v");
                    }
                }
            }
        """)
        assert mayac_main([str(path), "--lazy-report"]) == 0
        err = capsys.readouterr().err
        import re
        match = re.search(r"(\d+) never forced \((\d+\.\d)%", err)
        assert match, err
        assert int(match.group(1)) > 0


# ---------------------------------------------------------------------------
# The structured event log and request context
# ---------------------------------------------------------------------------

import re  # noqa: E402
import threading  # noqa: E402

from repro.obs import log as obs_log  # noqa: E402
from repro.obs.log import EventLog, RequestContext, request_scope  # noqa: E402


class TestEventLog:
    def test_levels_filter_below_threshold(self):
        log = EventLog(level="info")
        assert log.emit("noise", level="debug") is None
        record = log.emit("signal", level="warn", detail=1)
        assert record["name"] == "signal" and record["detail"] == 1
        assert [r["name"] for r in log.records()] == ["signal"]
        log.set_level("debug")
        assert log.emit("noise", level="debug") is not None

    def test_ring_is_bounded_but_emitted_is_monotone(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit(f"e{i}")
        assert len(log) == 4
        assert log.emitted == 10
        assert [r["name"] for r in log.records()] == ["e6", "e7", "e8",
                                                      "e9"]

    def test_records_filter_by_name_prefix_and_request(self):
        log = EventLog()
        with request_scope() as context:
            log.emit("server.request.received")
            log.emit("server.worker.crash")
        log.emit("server.request.received")  # outside any scope
        assert len(log.records(name="server.request.")) == 2
        scoped = log.records(request_id=context.request_id)
        assert [r["name"] for r in scoped] == ["server.request.received",
                                               "server.worker.crash"]

    def test_scope_stamps_ids_and_explicit_fields_win(self):
        log = EventLog()
        with request_scope() as context:
            stamped = log.emit("auto")
            overridden = log.emit("manual", request_id="r-aaaaaaaaaaaa")
        assert stamped["request_id"] == context.request_id
        assert stamped["trace_id"] == context.trace_id
        assert overridden["request_id"] == "r-aaaaaaaaaaaa"
        bare = log.emit("outside")
        assert "request_id" not in bare

    def test_minted_ids_match_their_contracts(self):
        assert obs_log.REQUEST_ID_RE.match(obs_log.mint_request_id())
        assert obs_log.TRACE_ID_RE.match(obs_log.mint_trace_id())
        assert not obs_log.REQUEST_ID_RE.match("r-XYZ")
        assert not obs_log.TRACE_ID_RE.match("t-short")

    def test_sink_is_a_flight_recorder(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sink_path=str(path))
        log.emit("one", n=1)
        log.emit("two", n=2)
        lines = [json.loads(line) for line in
                 path.read_text(encoding="utf-8").splitlines()]
        assert [r["name"] for r in lines] == ["one", "two"]
        assert all(r["type"] == "event" for r in lines)
        log.set_sink(None)
        log.emit("three")  # ring only; the sink is closed
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_bad_level_is_rejected(self):
        with pytest.raises(ValueError):
            EventLog(level="loud")
        with pytest.raises(ValueError):
            EventLog().set_level("silent")


class TestRequestContext:
    def test_note_merges_outcomes(self):
        context = RequestContext()
        context.note(artifact="miss")
        context.note(modules_reused=3)
        assert context.outcomes == {"artifact": "miss",
                                    "modules_reused": 3}

    def test_same_context_shared_across_threads(self):
        # The daemon's handler/worker/degraded-rerun discipline: other
        # threads re-bind the SAME object, so accumulation is shared.
        context = RequestContext()

        def worker():
            with request_scope(context):
                obs_log.current_request().note(work="done")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert context.outcomes == {"work": "done"}

    def test_contextvars_do_not_leak_across_threads(self):
        seen = []

        def probe():
            seen.append(obs_log.current_request())

        with request_scope():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert obs_log.current_request() is not None
        assert seen == [None]
        assert obs_log.current_request() is None

    def test_nested_scopes_restore(self):
        with request_scope() as outer:
            with request_scope() as inner:
                assert obs_log.current_request() is inner
            assert obs_log.current_request() is outer


class TestExemplars:
    @staticmethod
    def _sample(registry, name):
        family = next(f for f in registry.snapshot()["families"]
                      if f["name"] == name)
        return family["samples"][0]

    def test_histogram_exemplar_under_request_scope(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("obs_exemplar_ms", "t")
        with request_scope() as context:
            histogram.observe(7.0)
        exemplar = self._sample(registry, "obs_exemplar_ms")["exemplar"]
        assert exemplar == {"value": 7.0,
                            "request_id": context.request_id,
                            "trace_id": context.trace_id}

    def test_no_exemplar_outside_scope(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("obs_plain_ms", "t")
        histogram.observe(1.0)
        assert "exemplar" not in self._sample(registry, "obs_plain_ms")

    def test_exemplar_stays_out_of_prometheus_text(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("obs_prom_ms", "t")
        with request_scope():
            histogram.observe(3.0)
        text = export.to_prometheus(registry)
        assert "exemplar" not in text
        assert "r-" not in text


# ---------------------------------------------------------------------------
# Concurrent exposition (the daemon exports while workers write)
# ---------------------------------------------------------------------------

_PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")


class TestConcurrentExposition:
    """Hammer counters/gauges/histograms from threads while exporting:
    every exposition must stay parse-clean Prometheus 0.0.4 text, and
    counters must read monotone across successive exports."""

    WRITERS = 6

    @staticmethod
    def _assert_parse_clean(text: str) -> None:
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _PROM_SAMPLE_RE.match(line), f"unparseable: {line!r}"
            value = line.rsplit(" ", 1)[1]
            float(value)  # raises on torn/garbled values

    @staticmethod
    def _samples(text: str, prefix: str):
        for line in text.splitlines():
            if line.startswith(prefix) and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                yield name, float(value)

    def test_exposition_under_concurrent_writes(self):
        registry = MetricsRegistry()
        counter = registry.counter("obs_hammer_total", "writes",
                                   ("lane",))
        gauge = registry.gauge("obs_hammer_gauge", "level", ("lane",))
        histogram = registry.histogram("obs_hammer_ms", "latencies",
                                       bounds=(1, 2, 4, 8))
        stop = threading.Event()
        errors = []

        def writer(lane: int) -> None:
            try:
                i = 0
                while not stop.is_set():
                    counter.labels(str(lane)).inc()
                    gauge.labels(str(lane)).set(i % 17)
                    histogram.observe(float(i % 10))
                    i += 1
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(lane,))
                   for lane in range(self.WRITERS)]
        for thread in threads:
            thread.start()
        last: dict = {}
        try:
            for _ in range(40):
                text = export.to_prometheus(registry)
                self._assert_parse_clean(text)
                # Counters are monotone export-over-export.
                for name, value in self._samples(text,
                                                 "obs_hammer_total"):
                    assert value >= last.get(name, 0.0), name
                    last[name] = value
                # Histogram buckets are cumulative within one export.
                buckets = [v for _, v in self._samples(
                    text, "obs_hammer_ms_bucket")]
                assert buckets == sorted(buckets)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        # The writers made progress while exports were happening.
        assert sum(last.values()) > 0
