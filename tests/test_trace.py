"""The observability layer: span tracing, provenance, trace metrics."""

import gc
import json
import time

import pytest

from repro import trace
from repro.diag import SourceSpan
from repro.mayac import main
from repro.obs import profile as obs_profile
from repro.obs.metrics import REGISTRY, Histogram, current_phase
from tests.conftest import compile_source, make_compiler

FOREACH_SOURCE = """
    import java.util.*;
    class Demo {
        static void main() {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.addElement("traced");
            v.elements().foreach(String s) {
                System.out.println(s);
            }
        }
    }
"""


@pytest.fixture
def tracer():
    tracer = trace.activate()
    yield tracer
    trace.deactivate()


def compile_traced(source: str, tracer) -> "trace.Tracer":
    compile_source(source, macros=True)
    return tracer


def profile_rows(report: str):
    """The ``--profile`` self-time rows (name -> ms) and the total."""
    lines = report.splitlines()
    start = lines.index("self times:") + 1
    rows = {}
    for line in lines[start:]:
        name, ms = line.split()[:2]
        if name == "total":
            return rows, float(ms)
        rows[name] = float(ms)
    raise AssertionError("no total row")


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest(self):
        tracer = trace.Tracer()
        with tracer.span("compile", "outer"):
            with tracer.span("phase", "inner"):
                pass
            with tracer.span("phase", "sibling"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert all(child.parent_id == outer.id for child in outer.children)

    def test_span_timing_contained(self):
        tracer = trace.Tracer()
        with tracer.span("compile", "outer"):
            with tracer.span("phase", "inner"):
                pass
        outer, = tracer.roots
        inner, = outer.children
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_exception_unwinds_cleanly(self):
        tracer = trace.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("compile", "outer"):
                with tracer.span("phase", "inner"):
                    raise RuntimeError("boom")
        assert tracer.stack == []
        assert all(span.end is not None for span in tracer.iter_spans())

    def test_module_level_span_noop_when_inactive(self):
        assert trace.active is None
        with trace.span("phase", "nothing") as span:
            assert span is None

    def test_jsonl_roundtrip(self):
        tracer = trace.Tracer()
        with tracer.span("compile", "unit", filename="x.maya"):
            with tracer.span("phase", "lex"):
                pass
        records = [json.loads(line) for line in
                   tracer.to_jsonl({"dispatches": 3}).splitlines()]
        assert records[0]["type"] == "trace"
        assert records[0]["spans"] == 2
        spans = [r for r in records if r["type"] == "span"]
        assert [s["kind"] for s in spans] == ["compile", "phase"]
        assert spans[1]["parent"] == spans[0]["id"]
        assert records[-1] == {"type": "metrics", "dispatches": 3}


# ---------------------------------------------------------------------------
# Compile-pipeline spans
# ---------------------------------------------------------------------------


class TestCompileSpans:
    def test_phases_recorded(self):
        # A first compile fills the table cache; a miss would add an
        # lalr.generate phase.
        compile_source("class Empty { }", macros=True)
        tracer = trace.activate()
        try:
            compile_source("class Empty { }", macros=True)
        finally:
            trace.deactivate()
        names = [span.name for span in tracer.spans_of_kind("phase")]
        assert names == ["lex", "parse+expand", "shape", "bodies+check"]

    def test_expansion_spans_record_rewrite(self, tracer):
        compile_traced(FOREACH_SOURCE, tracer)
        expansions = tracer.spans_of_kind("expand")
        assert len(expansions) == 1
        span = expansions[0]
        assert span.attrs["mayan"] == "EForEach"
        assert "foreach" in span.attrs["before"]
        assert "hasMoreElements" in span.attrs["after"]
        assert span.attrs["location"].endswith(":8:13")

    def test_dispatch_span_wraps_expansion(self, tracer):
        compile_traced(FOREACH_SOURCE, tracer)
        dispatch, = tracer.spans_of_kind("dispatch")
        assert dispatch.attrs["candidates"] >= 1
        assert any(child.kind == "expand" for child in dispatch.children)

    def test_template_span_nested_in_expansion(self, tracer):
        compile_traced(FOREACH_SOURCE, tracer)
        expand, = tracer.spans_of_kind("expand")
        kinds = {child.kind for child in expand.children}
        assert "template" in kinds

    def test_no_spans_for_plain_reductions(self, tracer):
        compile_traced("class Plain { static void main() { int x = 1; } }",
                       tracer)
        assert tracer.spans_of_kind("expand") == []
        assert tracer.spans_of_kind("dispatch") == []

    def test_tracing_does_not_change_expansion(self):
        from repro.hygiene.fresh import reset_fresh_names

        reset_fresh_names()
        plain = compile_source(FOREACH_SOURCE, macros=True).source()
        trace.activate()
        try:
            reset_fresh_names()
            traced = compile_source(FOREACH_SOURCE, macros=True).source()
        finally:
            trace.deactivate()
        assert traced == plain


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


class TestProvenance:
    def test_generated_nodes_carry_origin(self):
        program = compile_source(FOREACH_SOURCE, macros=True)
        generated = [node for node in _all_nodes(program)
                     if node.origin is not None]
        assert generated, "expansion produced no origin-stamped nodes"
        mayans = {node.origin.mayan for node in generated}
        assert "EForEach" in mayans

    def test_origin_chain_terminates_at_real_span(self):
        program = compile_source(FOREACH_SOURCE, macros=True)
        for node in _all_nodes(program):
            if node.origin is None:
                continue
            assert node.origin.root.use_site.is_known, \
                f"origin chain of {node!r} dead-ends without a source span"

    def test_user_written_nodes_have_no_origin(self):
        program = compile_source(
            "class Plain { static void main() { int x = 1; } }")
        assert all(node.origin is None for node in _all_nodes(program))

    def test_nested_expansion_chains_origins(self):
        # collect() expands into foreach syntax that foreach Mayans then
        # expand again: inner nodes must link both activations.
        program = compile_source("""
            import java.util.*;
            class Demo {
                static void main() {
                    use maya.util.Collect;
                    Vector src = new Vector();
                    Vector dst = new Vector();
                    collect(dst, x : Object x : src.elements());
                }
            }
        """, macros=True)
        chains = [
            [link.mayan for link in node.origin.chain()]
            for node in _all_nodes(program) if node.origin is not None
        ]
        assert any(len(chain) >= 2 for chain in chains), \
            "no node records the nested collect -> foreach expansion"

    def test_check_error_in_generated_code_names_use_site(self):
        # foreach(int n) over a Vector casts Object to int inside the
        # *generated* code; the error must point back at the use site.
        with pytest.raises(Exception) as excinfo:
            compile_source("""
                import java.util.*;
                class Demo {
                    static void main() {
                        use maya.util.ForEach;
                        Vector v = new Vector();
                        v.elements().foreach(int n) {
                            System.out.println(n);
                        }
                    }
                }
            """, macros=True)
        notes = getattr(excinfo.value, "diagnostic").notes
        assert any("expanded from" in note and ":7:" in note
                   for note in notes), notes

    def test_origin_describe_mentions_template(self):
        program = compile_source(FOREACH_SOURCE, macros=True)
        described = [node.origin.describe() for node in _all_nodes(program)
                     if node.origin is not None and node.origin.template]
        assert any("via Template(" in text for text in described)

    def test_provenance_notes_elide_long_chains(self):
        span = SourceSpan("f.maya", 1, 1)
        origin = trace.Origin("M0", None, span)
        for index in range(1, 12):
            origin = trace.Origin(f"M{index}", None, span, origin)

        class Fake:
            pass

        node = Fake()
        node.origin = origin
        notes = trace.provenance_notes(node)
        assert len(notes) == trace.MAX_ORIGIN_NOTES + 1
        assert notes[-1].startswith("...")

    def test_unparse_provenance_annotation(self):
        program = compile_source(FOREACH_SOURCE, macros=True)
        annotated = program.source(provenance=True)
        assert "/* from EForEach @" in annotated
        # The plain unparse stays comment-free.
        assert "/* from" not in program.source()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_expansion_counters_and_depth_histogram(self, tracer):
        compile_traced(FOREACH_SOURCE, tracer)
        counters, depth = obs_profile.expansions(tracer)
        assert counters["expansions"] == 1
        assert counters["expansions[EForEach]"] == 1
        assert depth.count == 1 and depth.max == 1

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("h")
        for value in (1, 1, 3, 9, 200):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 1 and snap["max"] == 200
        assert snap["buckets"]["<=1"] == 2
        assert snap["buckets"][">128"] == 1

    def test_profiler_snapshot_shape(self):
        tracer = trace.Tracer()
        with tracer.span("phase", "lex"):
            pass
        for depth in (1, 3):
            with tracer.span("expand", "EForEach", depth=depth):
                pass
        snap = obs_profile.snapshot(tracer)
        assert "lex" in snap["phases"]
        assert snap["counters"] == {"expansions": 2,
                                    "expansions[EForEach]": 2}
        assert snap["histograms"][0]["name"] == "expansion.depth"
        assert snap["histograms"][0]["max"] == 3
        json.dumps(snap)  # must be plain data


# ---------------------------------------------------------------------------
# Self time: the one timing source
# ---------------------------------------------------------------------------


def fixed_tracer(spans):
    """A tracer whose spans have fixed clocks: ``spans`` is a list of
    (kind, name, start_ms, end_ms, children)."""
    tracer = trace.Tracer()

    def build(kind, name, start, end, children):
        span = tracer.begin(kind, name)
        for child in children:
            build(*child)
        tracer.end(span)
        span.start, span.end = start / 1e3, end / 1e3

    for entry in spans:
        build(*entry)
    return tracer


class TestSelfTime:
    def test_self_time_excludes_children(self):
        tracer = fixed_tracer([
            ("compile", "u", 0, 10, [
                ("phase", "parse+expand", 1, 9, [
                    ("phase", "lalr.generate", 2, 6, []),
                ]),
            ]),
        ])
        compile_span, = tracer.roots
        parse, = compile_span.children
        generate, = parse.children
        assert compile_span.self_time == pytest.approx(0.002)
        assert parse.self_time == pytest.approx(0.004)
        assert generate.self_time == pytest.approx(0.004)
        total = sum(span.self_time for span in tracer.iter_spans())
        assert total == pytest.approx(compile_span.duration)

    def test_phase_self_times_accumulate_and_round(self):
        from repro.server.daemon import _phase_self_ms

        tracer = fixed_tracer([
            ("compile", "u", 0, 30, [
                ("phase", "lex", 0, 10.1, []),
                ("phase", "parse", 11, 18, [
                    ("phase", "lex", 12, 17.2, []),
                ]),
            ]),
        ])
        assert _phase_self_ms(tracer) == {"lex": 15.3, "parse": 1.8}

    def test_phase_records_self_seconds_in_the_registry(self):
        seconds = REGISTRY.get("maya_phase_seconds_total")
        runs = REGISTRY.get("maya_phase_runs_total")
        before = (seconds.labels("t-outer").value,
                  runs.labels("t-outer").value)
        with trace.scoped() as tracer:
            with trace.phase("t-outer"):
                with trace.phase("t-inner"):
                    time.sleep(0.002)
        outer, = tracer.roots
        assert seconds.labels("t-outer").value - before[0] == \
            pytest.approx(outer.self_time)
        assert outer.self_time < outer.duration
        assert runs.labels("t-outer").value == before[1] + 1

    def test_phase_without_tracer_only_labels(self):
        assert trace.current() is None
        with trace.phase("t-label"):
            assert current_phase() == "t-label"
        assert current_phase() == ""

    def test_phase_spans_lalr_generation(self):
        from repro.lalr.tables import ParseTables
        from tests.test_lalr import expr_grammar

        with trace.scoped() as tracer:
            ParseTables(expr_grammar())
        assert [span.name for span in tracer.iter_spans()] == \
            ["lalr.generate"]

    def test_consecutive_collections_share_a_gc_span(self):
        tracer = trace.activate()
        try:
            with tracer.span("phase", "t-outer") as outer:
                gc.collect(0)
                gc.collect(0)
                gc.collect(2)
                with tracer.span("phase", "t-inner") as inner:
                    pass
                gc.collect(1)
        finally:
            trace.deactivate()
        assert [span.kind for span in outer.children] == \
            ["gc", "phase", "gc"]
        first, _, last = outer.children
        assert first.name == "gen2"
        assert first.attrs["collections"] >= 3
        assert first.attrs["collected"] >= 0
        assert last.attrs["collections"] >= 1
        assert outer.start <= first.start <= first.end <= inner.start
        assert inner.end <= last.start <= last.end <= outer.end
        assert outer.self_time == pytest.approx(
            outer.duration - first.duration - inner.duration
            - last.duration)

    def test_gc_spans_only_under_the_process_wide_tracer(self):
        tracer = trace.activate()
        try:
            gc.collect()
        finally:
            trace.deactivate()
        full, = [span for span in tracer.spans_of_kind("gc")
                 if span.name == "gen2"]
        assert "collected" in full.attrs
        assert trace._on_gc not in gc.callbacks
        with trace.scoped() as scoped:
            gc.collect()
        assert scoped.spans_of_kind("gc") == []

    def test_trace_records_carry_self_ms(self):
        tracer = fixed_tracer([
            ("compile", "u", 0, 10, [("phase", "lex", 1, 4, [])]),
        ])
        records = tracer.to_records()
        assert [r["self_ms"] for r in records] == [7.0, 3.0]


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestCliTrace:
    @pytest.fixture
    def demo_file(self, tmp_path):
        path = tmp_path / "demo.maya"
        path.write_text(FOREACH_SOURCE.replace("class Demo", "class Demo"))
        return str(path)

    def test_trace_out_writes_valid_jsonl(self, demo_file, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main([demo_file, "--trace-out", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert records[0]["type"] == "trace"
        kinds = {r["kind"] for r in records if r["type"] == "span"}
        assert {"compile", "phase", "expand"} <= kinds
        final = records[-1]
        assert final["type"] == "metrics"
        # The final metrics record is a registry snapshot — the same
        # schema --metrics-out json writes.
        assert final["schema"] == "maya.metrics/1"
        families = {f["name"]: f for f in final["families"]}
        dispatches = sum(
            s["value"]
            for s in families["maya_dispatch_reductions_total"]["samples"]
        )
        assert dispatches > 0
        assert families["maya_trace_spans_total"]["kind"] == "counter"

    def test_trace_out_includes_profile_metrics(self, demo_file, tmp_path,
                                                capsys):
        out = tmp_path / "t.jsonl"
        assert main([demo_file, "--trace-out", str(out), "--profile"]) == 0
        final = json.loads(out.read_text().splitlines()[-1])
        assert "profile" in final
        assert final["profile"]["counters"]["expansions"] >= 1

    def test_profile_rows_add_up_to_the_total(self, demo_file, tmp_path,
                                              capsys):
        from repro.lalr import tables as lalr_tables

        # An empty store and memory cache: generation gets its own row.
        lalr_tables.table_cache_clear()
        with lalr_tables.disk_cache_at(str(tmp_path / "store")):
            started = time.perf_counter()
            assert main([demo_file, "--profile"]) == 0
            wall_ms = (time.perf_counter() - started) * 1e3
        rows, total = profile_rows(capsys.readouterr().err)
        assert {"lalr.generate", "parse+expand", "bodies+check",
                "unattributed"} <= rows.keys()
        assert sum(rows.values()) == pytest.approx(total,
                                                   abs=0.01 * len(rows))
        assert total <= wall_ms

    def test_profile_and_trace_out_agree(self, demo_file, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main([demo_file, "--profile", "--trace-out", str(out)]) == 0
        rows, total = profile_rows(capsys.readouterr().err)
        spans = [record for record in map(json.loads,
                                          out.read_text().splitlines())
                 if record["type"] == "span"]
        phases = {}
        for span in spans:
            if span["kind"] == "phase":
                phases[span["name"]] = \
                    phases.get(span["name"], 0.0) + span["self_ms"]
        assert phases
        for name, self_ms in phases.items():
            assert rows[name] == pytest.approx(self_ms, abs=0.01)
        roots = sum(span["dur_ms"] for span in spans
                    if span["parent"] is None)
        assert roots == pytest.approx(total, abs=0.01)

    def test_trace_renders_human_view(self, demo_file, capsys):
        assert main([demo_file, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "== mayac trace ==" in err
        assert "expand EForEach" in err
        assert "before:" in err and "after:" in err

    def test_provenance_flag(self, demo_file, capsys):
        assert main([demo_file, "--expand", "--provenance"]) == 0
        assert "/* from EForEach @" in capsys.readouterr().out

    def test_tracer_deactivated_after_run(self, demo_file):
        assert main([demo_file, "--trace"]) == 0
        assert trace.active is None


def _all_nodes(program):
    """Every AST node reachable from a compiled program's units."""
    from repro.ast import nodes as n

    seen = []

    def walk(node):
        seen.append(node)
        for child in node.children():
            walk(child)

    for unit in program.units:
        walk(unit)
    # UseStmt bodies and forced lazy bodies are reached via children();
    # also chase forced LazyNodes' values.
    for node in list(seen):
        if isinstance(node, n.LazyNode) and node.is_forced():
            walk(node.force())
    return seen
