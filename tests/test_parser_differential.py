"""Differential test: the parse driver against the step-by-step
reference driver (``tests/parser_reference.py``).

The driver skips chains of unit reductions that no Mayan can observe;
the reference dispatches every reduction.  Each case compiles once with
each driver and must give the same:

* expanded source, ``to_source(provenance=True)``;
* per-node ``syntax``, ``scope``, ``location`` and ``origin``;
* error, with its messages and locations, when the compile fails;
* laziness profile (thunks created and forced, by symbol);
* span-tree shape under a tracer.

The corpus is every ``.maya`` file in the repository, seeded
``daemon_mix`` requests and the ``modules_edit`` project (from
``benchmarks/e2e/inputs.py``), and seeded mutations of those sources --
a token deleted, doubled or swapped with its neighbour -- which drive
the parse-error paths.  The mutation count defaults to a tier-1 sized
run of a few seconds; set ``PARSER_DIFF_CASES`` to run more (CI runs
ten times as many).

The fallback cases put a Mayan on a unit production, where the driver
must not skip: imported by a mid-method ``use``, imported into a
Mayan-made child scope, and under eight compiling threads.  Each runs
on both interpreter backends.
"""

import importlib.util
import os
import random
import re
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import repro.lalr
from repro import MayaCompiler, trace
from repro.ast import nodes as n
from repro.ast import to_source
from repro.core import CompileContext, CompileEnv
from repro.core import context as core_context
from repro.core import drivers
from repro.dispatch import Mayan, MetaProgram
from repro.dispatch.specializers import Param
from repro.hygiene.fresh import reset_fresh_names
from repro.interp import Interpreter
from repro.lexer import Location, stream_lex
from repro.macros import install_macro_library
from repro.modules.build import ModuleBuilder
from repro.modules.graph import FileSystemSources, MemorySources
from repro.obs import lazy as obs_lazy
from repro.obs.metrics import REGISTRY, Deltas
from repro.patterns import Template
from tests import parser_reference

ROOT = Path(__file__).resolve().parent.parent

CASES = int(os.environ.get("PARSER_DIFF_CASES", "120"))
SEED = 20021017


def _e2e_inputs():
    spec = importlib.util.spec_from_file_location(
        "e2e_inputs", ROOT / "benchmarks" / "e2e" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _e2e_inputs()


@contextmanager
def reference_driver():
    """Compile with the reference driver: rebind ``Parser`` in every
    module that constructs one."""
    modules = (drivers, core_context, repro.lalr)
    saved = [module.Parser for module in modules]
    for module in modules:
        module.Parser = parser_reference.Parser
    try:
        yield
    finally:
        for module, parser in zip(modules, saved):
            module.Parser = parser


# -- observations ------------------------------------------------------------


def _shape(value):
    if isinstance(value, n.Node):
        return type(value).__name__
    if isinstance(value, (list, tuple)):
        return [_shape(element) for element in value]
    text = getattr(value, "text", None)
    return (type(value).__name__, text)


def observe_nodes(roots):
    """Every reachable node's class, syntax, scope (numbered in visit
    order), location and origin."""
    scopes = {}
    records = []

    def visit(value):
        if isinstance(value, (list, tuple)):
            for element in value:
                visit(element)
            return
        if not isinstance(value, n.Node):
            return
        syntax = None
        if value.syntax is not None:
            production, values = value.syntax
            syntax = (production.key(), _shape(list(values)))
        scope = None
        if value.scope is not None:
            scope = scopes.setdefault(id(value.scope), len(scopes))
        origin = value.origin.describe() if value.origin is not None else None
        records.append((type(value).__name__, syntax, scope,
                        str(value.location), origin))
        if isinstance(value, n.LazyNode):
            if value.is_forced():
                visit(value.force())
            return
        for _, field in value.fields():
            visit(field)

    visit(roots)
    return records


def _span_shape(spans):
    return [(span.kind, span.name, _span_shape(span.children))
            for span in spans]


def outcome(build):
    """What one compile shows: ``build()`` returns (expanded source,
    AST roots) or raises."""
    reset_fresh_names()
    previous = obs_lazy.active
    profiler = obs_lazy.activate()
    try:
        with trace.scoped() as tracer:
            try:
                expanded, roots = build()
                result = ("ok", expanded, observe_nodes(roots))
            except Exception as error:
                render = getattr(error, "render", None)
                result = ("error", type(error).__name__, str(error),
                          str(getattr(error, "location", None)),
                          render() if render is not None else None)
    finally:
        obs_lazy.active = previous
    return result + (profiler.snapshot(), _span_shape(tracer.roots))


def compile_unit(source, filename="<case>", setup=None):
    def build():
        compiler = MayaCompiler()
        install_macro_library(compiler)
        if setup is not None:
            setup(compiler)
        program = compiler.compile(source, filename)
        units = program.units
        return "\n".join(to_source(unit, provenance=True)
                         for unit in units), units
    return build


def build_modules(sources, root):
    def build():
        builder = ModuleBuilder(sources, options={"provenance": True})
        result = builder.build([root])
        return result.expanded(), result.program.units
    return build


def difference(build):
    """None when both drivers agree on ``build``, else both outcomes.
    An untraced build first fills the LALR table cache, so both traced
    runs start from the same cache state: a table-cache miss would add
    an ``lalr.generate`` span to the first one only."""
    try:
        build()
    except Exception:
        pass
    got = outcome(build)
    with reference_driver():
        want = outcome(build)
    return None if got == want else (want, got)


# -- the corpus ----------------------------------------------------------------


def maya_files():
    return sorted(path for path in ROOT.rglob("*.maya")
                  if ".work" not in path.parts)


def daemon_sources(seed, count):
    rng = random.Random(seed)
    return [INPUTS.daemon_source(uid, 1 + uid % 8, uid % 2 == 0, rng)[0]
            for uid in range(count)]


_PIECE = re.compile(r"\w+|\"(?:[^\"\\\n]|\\.)*\"|[^\w\s]")


def mutate(text, rng):
    """``text`` with one token deleted, doubled, or swapped with the
    next one."""
    pieces = [match.span() for match in _PIECE.finditer(text)]
    at = rng.randrange(len(pieces) - 1)
    (start, end), (next_start, next_end) = pieces[at], pieces[at + 1]
    token, following = text[start:end], text[next_start:next_end]
    shape = rng.randrange(3)
    if shape == 0:
        return text[:start] + text[end:]
    if shape == 1:
        return text[:end] + " " + token + text[end:]
    return (text[:start] + following + text[end:next_start] + token
            + text[next_end:])


def test_maya_files_match_reference():
    files = maya_files()
    assert len(files) >= 7
    diffs = []
    for path in files:
        if "modules" in path.parts:
            continue
        text = path.read_text(encoding="utf-8")
        diff = difference(compile_unit(text, str(path)))
        if diff is not None:
            diffs.append((path, diff))
    module_root = ROOT / "examples" / "modules"
    diff = difference(build_modules(FileSystemSources([str(module_root)]),
                                    "app.Main"))
    if diff is not None:
        diffs.append((module_root, diff))
    assert not diffs, f"{len(diffs)} differences; first: {diffs[0]!r}"


def test_daemon_requests_match_reference():
    diffs = [(source, diff) for source in daemon_sources(SEED, 12)
             for diff in [difference(compile_unit(source))]
             if diff is not None]
    assert not diffs, f"{len(diffs)} differences; first: {diffs[0]!r}"


def test_module_project_matches_reference():
    plan = INPUTS.EditPlan(random.Random(SEED))
    sources = plan.sources()
    plan.next()
    assert difference(build_modules(MemorySources(sources),
                                    INPUTS.MAIN)) is None
    edited = plan.sources()
    assert edited != sources
    assert difference(build_modules(MemorySources(edited),
                                    INPUTS.MAIN)) is None


def test_mutated_sources_match_reference():
    rng = random.Random(SEED)
    texts = [path.read_text(encoding="utf-8") for path in maya_files()
             if "modules" not in path.parts]
    texts += daemon_sources(SEED + 1, 8)
    texts += list(INPUTS.EditPlan(random.Random(SEED)).sources().values())
    diffs = []
    errors = 0
    for _ in range(CASES):
        source = mutate(rng.choice(texts), rng)
        got = outcome(compile_unit(source))
        with reference_driver():
            want = outcome(compile_unit(source))
        errors += got[0] == "error"
        if got != want:
            diffs.append((source, want, got))
    assert not diffs, f"{len(diffs)} differences; first: {diffs[0]!r}"
    # The mutations must reach the error paths, not just reparse.
    assert errors >= CASES // 4


def test_skipped_reductions_account_for_the_drop(capsys):
    """Dispatched plus skipped reductions under the driver equal the
    reference's dispatched reductions, in the registry and on the
    ``mayac --profile`` line."""
    from repro.mayac import main

    families = ("maya_dispatch_reductions_total",
                "maya_parser_unit_reductions_skipped_total")

    def counts(argv):
        before = [_family_total(name) for name in families]
        assert main(argv) == 0
        line = next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("dispatch:"))
        shown = tuple(int(word) for word in line.split()
                      if word.rstrip(",").isdigit())
        return tuple(_family_total(name) - base
                     for name, base in zip(families, before)), shown

    argv = [str(ROOT / "examples" / "hello.maya"), "--profile"]
    (dispatched, skipped), shown = counts(argv)
    with reference_driver():
        (reference, none_skipped), reference_shown = counts(argv)
    assert none_skipped == 0 and reference_shown == (reference, 0)
    assert shown == (dispatched, skipped)
    assert skipped > 0 and dispatched > 0
    assert dispatched + skipped == reference


def _family_total(name):
    family = REGISTRY.get(name)
    return sum(child.value for _, child in family.samples())


# -- fallback: a Mayan on a unit production --------------------------------------


class Doubled(Mayan):
    """A Mayan on the unit production ``VarInit -> Expression`` (tag
    ``varinit_expr``): an initializer ``e`` becomes ``e + e``."""

    result = "VarInit"
    TEMPLATE = Template("Expression", "$e + $e", e="Expression")

    def attach(self, env):
        # A parameter list collapses passthrough productions, so it
        # cannot name this one; select it directly.
        if self._compiled is None:
            production = next(p for p in env.grammar.productions
                              if p.tag == "varinit_expr")
            self._compiled = (production, [Param(production.rhs[0], "e")],
                              ["e"])

    def expand(self, ctx, e):
        return ctx.instantiate(self.TEMPLATE, e=e)


class DoubledBlockMayan(Mayan):
    """``doubled { ... }``: the block parses with Doubled imported into
    a child scope (``ctx.use_in``), the way typedef exposes its local
    Mayan."""

    result = "Statement"
    pattern = "doubled lazy(BraceTree, BlockStmts) body"

    def expand(self, ctx, body):
        return ctx.use_in(Doubled(), body)


class DoubledBlock(MetaProgram):
    def run(self, env):
        env.add_production("Statement",
                           "doubled lazy(BraceTree, BlockStmts)")
        DoubledBlockMayan().run(env)


def provide_doubling(compiler):
    compiler.provide("ext.Doubled", Doubled())
    compiler.provide("ext.DoubledBlock", DoubledBlock())


MID_METHOD_USE = """
class Demo {
    static int twice(int n) { int m = n; return m; }
    static void main() {
        int a = 3;
        String s = "x";
        use ext.Doubled;
        int b = 3;
        String t = "y";
        int c = a * 2 + twice(b);
        System.out.println(a + " " + s + " " + b + " " + t + " " + c);
    }
}
"""

CHILD_SCOPE_USE = """
class Demo {
    static void main() {
        use ext.DoubledBlock;
        int a = 5;
        doubled {
            int b = a + 1;
            System.out.println(b);
        }
        int c = a + 1;
        System.out.println(a + " " + c);
    }
}
"""


def run_backends(program):
    outputs = {}
    for backend in ("walk", "pycode"):
        interp = Interpreter(program, backend=backend)
        interp.run_static("Demo")
        outputs[backend] = interp.output
    return outputs


def compile_doubling(source):
    compiler = MayaCompiler()
    provide_doubling(compiler)
    program = compiler.compile(source)
    return compiler, program


def assert_matches_reference(source, expected_output):
    build = compile_unit(source, setup=provide_doubling)
    assert difference(build) is None
    _, program = compile_doubling(source)
    with reference_driver():
        _, reference_program = compile_doubling(source)
    for outputs in (run_backends(program), run_backends(reference_program)):
        assert outputs == {"walk": expected_output,
                           "pycode": expected_output}


def test_unstamped_values_are_not_skipped():
    """The chain is skipped only for a value ``reduce`` would leave
    alone.  (After an ordinary reduction every value is stamped, so the
    corpus cannot reach these guards; they are checked directly.)"""
    env = CompileEnv()
    ctx = CompileContext(env)
    chain = tuple(p for p in env.grammar.productions
                  if p.tag in ("varinit_expr", "expr"))
    token = stream_lex("7")[0]
    assert ctx.skips_units(chain, token)
    node = n.Literal("int", 7, location=token.location)
    node.syntax = (chain[0], (token,))
    node.scope = ctx.scope
    assert ctx.skips_units(chain, node)
    for field, unset in (("syntax", None), ("scope", None),
                         ("location", Location.UNKNOWN)):
        kept = getattr(node, field)
        setattr(node, field, unset)
        assert not ctx.skips_units(chain, node), field
        setattr(node, field, kept)
    origins = env.dispatcher.root.origin_stack
    origins.append(object())
    try:
        assert not ctx.skips_units(chain, node)
        node.origin = origins[-1]
        assert ctx.skips_units(chain, node)
    finally:
        origins.pop()


def test_mid_method_use_expands_only_what_follows():
    skipped = "maya_parser_unit_reductions_skipped_total"
    counts = Deltas(skipped)
    _, program = compile_doubling(MID_METHOD_USE)
    counts.freeze()
    text = to_source(program.units[0])
    # Nothing before the use expands; every initializer after it
    # doubles.  ``m`` is in another method, outside the use's scope.
    assert "int a = 3;" in text and 'String s = "x";' in text
    assert "int b = 3 + 3;" in text and 'String t = "y" + "y";' in text
    assert "int m = n;" in text
    assert counts.total(skipped) > 0
    assert_matches_reference(MID_METHOD_USE, ["3 x 6 yy 24"])


def test_child_scope_use_leaves_enclosing_scope_alone():
    compiler, program = compile_doubling(CHILD_SCOPE_USE)
    text = to_source(program.units[0])
    assert "int b = a + 1 + a + 1;" in text
    assert "int c = a + 1;" in text
    assert_matches_reference(CHILD_SCOPE_USE, ["12", "5 6"])


def test_concurrent_compiles_share_one_table():
    source = MID_METHOD_USE
    tables = compile_doubling(source)[0].env.tables()
    tables._unit_chains.clear()
    _, serial = compile_doubling(source)
    expected = to_source(serial.units[0], provenance=True)
    serial_memo = dict(tables._unit_chains)
    tables._unit_chains.clear()  # make the threads fill the memo
    barrier = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def work(index):
        barrier.wait()
        compiler, program = compile_doubling(source)
        results[index] = (compiler.env.tables(),
                          to_source(program.units[0], provenance=True),
                          run_backends(program))

    threads = [threading.Thread(target=work, args=(index,))
               for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for shared, text, outputs in results:
        assert shared is tables
        assert text == expected
        assert outputs == {"walk": ["3 x 6 yy 24"],
                           "pycode": ["3 x 6 yy 24"]}
    # Racing writers left exactly the entries a serial compile makes.
    assert tables._unit_chains == serial_memo
    with reference_driver():
        _, reference = compile_doubling(source)
    assert to_source(reference.units[0], provenance=True) == expected
