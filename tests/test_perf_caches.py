"""Cache invalidation and bounds for the performance layer (PR 2).

The caching layer (dispatch plans, versioned grammar fingerprints, the
LRU table cache, the on-disk table cache) must be invisible: a Mayan
that extends the grammar mid-compile gets fresh tables and fresh
dispatch plans, scopes never see each other's imports through a stale
plan, and every error a cached outcome replays is byte-identical to
the uncached one.
"""

import pickle

import pytest

from repro.ast import nodes as n
from repro.core import CompileContext, CompileEnv
from repro.dispatch import AmbiguousDispatchError, Mayan
from repro.lalr import Parser
from repro.lalr import tables as lalr_tables
from repro.lalr.tables import disk_cache_at, table_cache_clear, tables_for
from repro.lexer import stream_lex
from repro.store import LRUCache
from tests.conftest import cache_events, corrupt_entries


def payload_of(entry):
    """An on-disk store entry's payload (after its checksum line)."""
    return entry.read_bytes().partition(b"\n")[2]


def parse_with(env, start, source):
    ctx = CompileContext(env)
    parser = Parser(env.tables(), ctx)
    value, _ = parser.parse(start, stream_lex(source))
    return value


def tag_literal(tag):
    class TagLiteral(Mayan):
        result = "Literal"
        pattern = "IntLit value"

        def expand(self, ctx, value):
            return n.Literal("String", f"{tag}:{value.value}")

    return TagLiteral()


class TestTableCacheInvalidation:
    def test_mid_compile_extension_yields_fresh_tables(self):
        """A production added mid-compile (what a Mayan's metaprogram
        does on ``use``) must invalidate the env's table memo and the
        fingerprint, not reuse stale tables."""
        env = CompileEnv()
        before = env.tables()
        before_fingerprint = env.grammar.fingerprint()

        env.add_production("Statement", "gadget ( Expression ) \\;",
                           tag="gadget")

        class Gadget(Mayan):
            result = "Statement"
            pattern = "gadget ( Expression e ) \\;"

            def expand(self, ctx, e):
                return e

        Gadget().run(env)

        after = env.tables()
        assert after is not before
        assert env.grammar.fingerprint() is not before_fingerprint
        # The fresh tables actually parse the new syntax.
        value = parse_with(env, "Statement", "gadget(42);")
        assert isinstance(value, n.Literal)
        # And the old tables would not have: the statement parses only
        # through the extended grammar's fingerprint.
        assert tables_for(env.grammar) is after

    def test_pristine_envs_share_one_table_set(self):
        """Content-keyed caching: equal grammars share tables."""
        assert CompileEnv().tables() is CompileEnv().tables()

    def test_extension_does_not_leak_across_envs(self):
        """Extending one env's grammar must not hand its tables to a
        pristine env (no stale reuse across CompileEnvs)."""
        extended = CompileEnv()
        extended.add_production("Statement", "gadget ( Expression ) \\;",
                                tag="gadget")
        pristine = CompileEnv()
        assert extended.grammar.fingerprint() \
            is not pristine.grammar.fingerprint()
        assert extended.tables() is not pristine.tables()
        # In the pristine env the same text is an ordinary method-call
        # statement, not the extended production.
        statement = parse_with(pristine, "Statement", "gadget(42);")
        assert isinstance(statement.expr, n.MethodInvocation)

    def test_grammar_version_moves_on_every_mutation(self):
        env = CompileEnv()
        version = env.grammar.version
        env.add_production("Statement", "gadget ( Expression ) \\;",
                           tag="gadget")
        assert env.grammar.version > version


class TestDispatchPlanInvalidation:
    def test_import_after_first_dispatch_takes_effect(self):
        """A plan cached before an import must be rebuilt after it —
        the import epoch, not the cached chain, decides."""
        env = CompileEnv()
        assert parse_with(env, "Expression", "5").value == 5  # caches plan
        tag_literal("late").run(env)
        assert parse_with(env, "Expression", "5").value == "late:5"

    def test_child_scope_import_invisible_to_parent_plan(self):
        """``use`` scoping survives plan caching: the child's import
        bumps the shared epoch, and the parent's rebuilt plan still
        sees only its own (empty) chain."""
        env = CompileEnv()
        assert parse_with(env, "Expression", "9").value == 9  # parent plan
        child = env.child()
        tag_literal("inner").run(child)
        assert parse_with(child, "Expression", "9").value == "inner:9"
        assert parse_with(env, "Expression", "9").value == 9

    def test_sibling_use_scopes_do_not_share_plans(self):
        """Two sibling ``use`` scopes with different imports each
        dispatch through their own chain."""
        env = CompileEnv()
        left = env.child()
        right = env.child()
        tag_literal("L").run(left)
        tag_literal("R").run(right)
        assert parse_with(left, "Expression", "1").value == "L:1"
        assert parse_with(right, "Expression", "1").value == "R:1"

    def test_repeat_dispatch_hits_plan_cache(self):
        env = CompileEnv()
        tag_literal("x").run(env)
        parse_with(env, "Expression", "2")  # warm plans for this scope
        hits = cache_events("dispatch.plans", "hit")
        parse_with(env, "Expression", "3")
        assert cache_events("dispatch.plans", "hit") > hits


class TestOrderCacheAndAmbiguity:
    @staticmethod
    def _ambiguous_env():
        env = CompileEnv()

        def pair_mayan(left, right):
            class Pair(Mayan):
                result = "Expression"
                pattern = (
                    f"pair ( Expression:{left} a , Expression:{right} b )"
                )

                def expand(self, ctx, a, b):
                    return n.Literal("int", 0)

            return Pair()

        pair_mayan("java.lang.String", "java.lang.Object").run(env)
        pair_mayan("java.lang.Object", "java.lang.String").run(env)
        return env

    def test_cached_ambiguity_error_is_byte_identical(self):
        """The second raise comes from the cached _AmbiguityRecord and
        must read exactly like the first (same message, same pair)."""
        env = self._ambiguous_env()
        ctx = CompileContext(env)
        parser = Parser(env.tables(), ctx)
        with pytest.raises(AmbiguousDispatchError) as first:
            parser.parse("Expression", stream_lex('pair("a", "b")'))
        hits = cache_events("dispatch.orders", "hit")
        with pytest.raises(AmbiguousDispatchError) as second:
            parser.parse("Expression", stream_lex('pair("a", "b")'))
        assert str(second.value) == str(first.value)
        assert second.value.mayan_a is first.value.mayan_a
        assert second.value.mayan_b is first.value.mayan_b
        assert cache_events("dispatch.orders", "hit") > hits  # replayed

    def test_order_cache_replay_preserves_tie_breaking(self):
        """Repeated dispatch through the cached order keeps the
        later-import-wins rule."""
        env = CompileEnv()
        tag_literal("first").run(env)
        tag_literal("second").run(env)
        for _ in range(3):
            assert parse_with(env, "Expression", "7").value == "second:7"


class TestLRUCache:
    def test_eviction_is_lru_and_counted(self):
        before = {event: cache_events("test.lru", event)
                  for event in ("hit", "miss", "eviction")}

        def counted(event):
            return cache_events("test.lru", event) - before[event]

        cache = LRUCache(2, "test.lru")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now oldest
        cache.put("c", 3)
        assert counted("eviction") == 1
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.get("b") is None
        assert counted("hit") == 3 and counted("miss") == 1
        assert len(cache) == 2


class TestDiskCache:
    @pytest.fixture(autouse=True)
    def own_store(self, tmp_path):
        """Each test starts from its own empty store."""
        with disk_cache_at(str(tmp_path)):
            yield

    def test_roundtrip_restores_working_tables(self, tmp_path):
        try:
            table_cache_clear()
            env = CompileEnv()
            generated = env.tables()  # generates and persists
            assert list(tmp_path.glob("tables-*.pickle"))

            table_cache_clear()
            restored = tables_for(CompileEnv().grammar)
            assert restored is not generated
            assert restored.action == generated.action
            assert restored.goto == generated.goto

            # The restored tables drive a real parse.
            restored_env = CompileEnv()
            value = parse_with(restored_env, "Expression", "1 + 2 * 3")
            assert isinstance(value, n.BinaryExpr)
        finally:
            table_cache_clear()

    def test_corrupt_cache_entry_regenerates(self, tmp_path):
        try:
            table_cache_clear()
            CompileEnv().tables()
            (entry,) = tmp_path.glob("tables-*.pickle")
            entry.write_bytes(b"not a pickle")

            table_cache_clear()
            tables = tables_for(CompileEnv().grammar)  # must not raise
            assert tables.action
        finally:
            table_cache_clear()

    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path):
        """Crash-safe hygiene: garbage bytes are moved to a
        ``.quarantine`` file (for postmortems, and so the next load
        doesn't re-parse them), counted, and regenerated in place."""
        try:
            table_cache_clear()
            CompileEnv().tables()
            (entry,) = tmp_path.glob("tables-*.pickle")
            entry.write_bytes(b"\x00\xffgarbage bytes, not a pickle")
            before = corrupt_entries("lalr.tables.disk")

            table_cache_clear()
            assert tables_for(CompileEnv().grammar).action
            assert corrupt_entries("lalr.tables.disk") == before + 1
            # The bad bytes were set aside, and regeneration re-wrote a
            # good entry at the original path.
            quarantined = entry.with_suffix(".pickle.quarantine")
            assert quarantined.read_bytes().startswith(b"\x00\xff")
            assert pickle.loads(payload_of(entry))["format"] >= 1

            # A quarantined entry is never trusted again: the next load
            # round-trips the regenerated file cleanly.
            table_cache_clear()
            assert tables_for(CompileEnv().grammar).action
            assert corrupt_entries("lalr.tables.disk") == before + 1
        finally:
            table_cache_clear()

    def test_stale_format_is_a_miss_not_corruption(self, tmp_path):
        """A well-formed entry from an older snapshot format is just a
        miss: no quarantine, no corruption count."""
        try:
            table_cache_clear()
            CompileEnv().tables()
            (entry,) = tmp_path.glob("tables-*.pickle")
            payload = pickle.loads(payload_of(entry))
            payload["format"] = 0
            lalr_tables._DISK.store(entry.name, pickle.dumps(payload))
            before = corrupt_entries("lalr.tables.disk")

            table_cache_clear()
            assert tables_for(CompileEnv().grammar).action
            assert corrupt_entries("lalr.tables.disk") == before
            assert not list(tmp_path.glob("*.quarantine"))
        finally:
            table_cache_clear()

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """An entry whose recorded key differs from the requesting
        grammar's fingerprint is ignored, not trusted."""
        try:
            table_cache_clear()
            CompileEnv().tables()
            (entry,) = tmp_path.glob("tables-*.pickle")
            payload = pickle.loads(payload_of(entry))
            payload["key"] = ("tampered",)
            lalr_tables._DISK.store(entry.name, pickle.dumps(payload))

            table_cache_clear()
            tables = tables_for(CompileEnv().grammar)  # regenerated
            assert tables.action
        finally:
            table_cache_clear()


class TestFingerprints:
    def test_fingerprint_is_version_cached(self):
        grammar = CompileEnv().grammar
        assert grammar.fingerprint() is grammar.fingerprint()

    def test_equal_content_interns_to_one_object(self):
        """Fresh envs produce the *same* fingerprint object, so cache
        lookups compare by identity."""
        assert CompileEnv().grammar.fingerprint() \
            is CompileEnv().grammar.fingerprint()

    def test_copy_shares_fingerprint_until_diverging(self):
        env = CompileEnv()
        dup = env.grammar.copy()
        assert dup.fingerprint() is env.grammar.fingerprint()
        dup.add_production(
            env.grammar.productions[0].lhs, ["IntLit", "IntLit"],
            tag="fp_test", internal=True, action=lambda ctx, v: v[0],
        )
        assert dup.fingerprint() is not env.grammar.fingerprint()
