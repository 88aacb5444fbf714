"""E11: the LALR(1) parser generator.

Times table generation for the base Java grammar and for the grammar
after the macro library's extensions, and shows the fingerprint cache
that makes mid-compile regeneration affordable.
"""

from conftest import make_compiler, record_metric, report

from repro.javalang import base_grammar
from repro.lalr import build_tables
from repro.lalr.tables import tables_for
from repro.macros.foreach import ForEach
from repro.core import CompileEnv


def test_e11_base_grammar_generation(benchmark):
    grammar = base_grammar()
    tables = benchmark(lambda: build_tables(grammar))
    report("E11: base Java-subset grammar", [
        ["productions", len(grammar.productions)],
        ["LR(0) states", len(tables.automaton.states)],
    ])


def test_e11_extended_grammar_generation(benchmark):
    """Generation for a grammar a ``use`` just grew: no cache has seen
    it, so every compile that introduces an extension pays this."""
    import time

    env = CompileEnv()
    ForEach().run(env)
    start = time.perf_counter()
    build_tables(env.grammar)
    generate_time = time.perf_counter() - start
    record_metric("table_generate_extended_ms",
                  round(generate_time * 1e3, 1), "ms")
    tables = benchmark(lambda: build_tables(env.grammar))
    base = base_grammar()
    report("E11: grammar after foreach extension", [
        ["base productions", len(base.productions)],
        ["extended productions", len(env.grammar.productions)],
        ["states", len(tables.automaton.states)],
    ])
    assert len(env.grammar.productions) > len(base.productions)


def test_e11_fingerprint_cache(benchmark):
    """Re-requesting tables for an unchanged grammar is O(1)."""
    import time

    env = CompileEnv()
    tables_for(env.grammar)  # warm

    def cached_lookup():
        for _ in range(1000):
            tables_for(env.grammar)

    start = time.perf_counter()
    cached_lookup()
    per_lookup_us = (time.perf_counter() - start) * 1e3
    record_metric("cached_tables_lookup_us", round(per_lookup_us, 3), "us")
    benchmark(cached_lookup)


def test_e11_fingerprint_is_o1(benchmark):
    """Fingerprinting an unchanged grammar costs the same whatever its
    size: the digest is version-cached, so a lookup is one attribute
    check + one identity-keyed hash, not an O(productions) walk."""
    import time

    small = CompileEnv().grammar
    big_env = CompileEnv()
    ForEach().run(big_env)
    big = big_env.grammar

    def time_fingerprints(grammar):
        grammar.fingerprint()  # warm the version cache
        start = time.perf_counter()
        for _ in range(10000):
            grammar.fingerprint()
        return time.perf_counter() - start

    small_time = time_fingerprints(small)
    big_time = time_fingerprints(big)
    ratio = big_time / small_time
    report("E11: O(1) fingerprinting (10k fingerprints)", [
        ["base grammar", f"{small_time * 1e3:.2f} ms"],
        [f"extended (+{len(big.productions) - len(small.productions)} prods)",
         f"{big_time * 1e3:.2f} ms"],
        ["big/small ratio", f"{ratio:.2f}x (O(1) => ~1.0)"],
    ])
    record_metric("fingerprint_size_ratio", round(ratio, 2), "x")
    # Grossly superlinear would mean the digest is being recomputed.
    assert ratio < 3.0
    benchmark(lambda: big.fingerprint())


def test_e11_disk_cache_cold_start(benchmark, tmp_path):
    """Restoring pickled tables beats regenerating them from scratch."""
    import time

    from repro.lalr.tables import disk_cache_at, table_cache_clear

    grammar = base_grammar()
    with disk_cache_at(str(tmp_path)):
        start = time.perf_counter()
        table_cache_clear()
        tables_for(grammar)  # generates, then persists
        generate_time = time.perf_counter() - start

        def cold_start():
            table_cache_clear()
            return tables_for(grammar)

        start = time.perf_counter()
        restored = cold_start()
        restore_time = time.perf_counter() - start
        assert restored.action  # really restored, not empty

        report("E11: on-disk table cache (base grammar)", [
            ["generate + persist", f"{generate_time * 1e3:.1f} ms"],
            ["restore from disk", f"{restore_time * 1e3:.1f} ms"],
            ["speedup", f"{generate_time / restore_time:.1f}x"],
        ])
        record_metric("table_generate_ms", round(generate_time * 1e3, 1), "ms")
        record_metric("table_restore_ms", round(restore_time * 1e3, 1), "ms")
        benchmark(cold_start)
    table_cache_clear()


def test_e11_conflict_detection_cost(benchmark):
    """Rejecting an ambiguous grammar costs one generation attempt."""
    from repro.grammar import Grammar, nonterminal
    from repro.lalr import ConflictError

    def build_ambiguous():
        g = Grammar("amb-bench")
        E = nonterminal("BenchAmbE")
        g.add_production(E, ["IntLit"], tag="ba_lit", internal=True,
                         action=lambda ctx, v: v[0])
        g.add_production(E, [E, "+", E], tag="ba_add", internal=True,
                         action=lambda ctx, v: v[0])
        g.declare_start(E)
        try:
            build_tables(g)
            return False
        except ConflictError:
            return True

    assert benchmark(build_ambiguous)
