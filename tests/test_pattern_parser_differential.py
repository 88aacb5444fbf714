"""Differential test: the pattern parser, a reduction sink on the LALR(1)
parse driver, against its own former shift/reduce loop
(``tests/pattern_parser_reference.py``).

The corpus is every ``PatternParser.parse`` call -- its tables, start
symbol and items -- made while compiling:

* every ``.maya`` file in the repository and running every
  ``examples/*.py`` script;
* every metaprogram ``install_macro_library`` and ``install_multijava``
  register, run into one environment, plus every module-level
  ``Template`` of ``repro.macros`` and ``repro.multijava`` compiled
  there;
* seeded ``daemon_mix`` requests (``benchmarks/e2e/inputs.py``).

Seeded mutations of those cases -- an item deleted, doubled or swapped
with its neighbour, at any group depth, or a token replaced by a hole
of a random nonterminal -- drive both of section 4.2's rules and the
error paths.  The mutation count defaults to a tier-1 sized run of a
few seconds; set ``PATTERN_DIFF_CASES`` to run more (CI runs ten times
as many).

Each case is replayed on both parsers, which must give the same tree
(node classes, productions, token kinds, texts and locations, hole
identity, group kinds, content symbols, laziness and ``PTNode``
locations), the same consumed offset, or the same error: its class,
its location and its message (where the reference's "(expected )"
with nothing expected is simply left out).  One difference is allowed,
and it is the reference's defect: "pattern ends before a complete X"
had no location, and now names the last item of the pattern or group
content that ended.
"""

import contextlib
import importlib
import importlib.util
import io
import os
import random
import re
import sys
from pathlib import Path

import pytest

from repro import MayaCompiler
from repro.lexer import Location
from repro.macros import install_macro_library
from repro.modules.build import ModuleBuilder
from repro.modules.graph import FileSystemSources
from repro.multijava import install_multijava
from repro.patterns import Template
from repro.patterns import pattern_parser, templates
from repro.patterns.items import GroupItem, HoleItem, TokItem
from tests import pattern_parser_reference as reference

ROOT = Path(__file__).resolve().parent.parent

CASES = int(os.environ.get("PATTERN_DIFF_CASES", "3000"))
SEED = 20021017

#: The allowed difference: the reference's end-of-pattern message.
PATTERN_ENDS = "pattern ends before a complete "


def _e2e_inputs():
    spec = importlib.util.spec_from_file_location(
        "e2e_inputs", ROOT / "benchmarks" / "e2e" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the corpus ----------------------------------------------------------------


@contextlib.contextmanager
def captured(cases):
    """Record every external ``PatternParser.parse`` call in ``cases``."""
    parse = pattern_parser.PatternParser.parse

    def recording(self, start, items, allow_prefix=False, offset=0):
        cases.append((self.tables, start, items, allow_prefix, offset))
        return parse(self, start, items, allow_prefix, offset)

    pattern_parser.PatternParser.parse = recording
    try:
        yield cases
    finally:
        pattern_parser.PatternParser.parse = parse


def _compiler():
    compiler = MayaCompiler()
    install_macro_library(compiler)
    install_multijava(compiler)
    return compiler


def _compile_all(sources):
    for source, filename in sources:
        try:
            _compiler().compile(source, filename)
        except Exception:
            pass  # the patterns were parsed; the program's fate is moot


def _run_examples():
    sys.path.insert(0, str(ROOT / "examples"))
    try:
        for path in sorted((ROOT / "examples").glob("*.py")):
            module = importlib.reload(importlib.import_module(path.stem))
            with contextlib.redirect_stdout(io.StringIO()):
                module.main()
    finally:
        sys.path.remove(str(ROOT / "examples"))


def _install_everything():
    compiler = _compiler()
    env = compiler.env.child()
    for metaprogram in list(compiler.env.metaprograms.values()):
        metaprogram.run(env)
    modules = [name for name in sys.modules
               if name.startswith(("repro.macros.", "repro.multijava."))]
    for name in sorted(modules):
        for value in vars(sys.modules[name]).values():
            if isinstance(value, Template):
                value.compiled(env)


def _item_key(item):
    if isinstance(item, TokItem):
        token = item.token
        return ("tok", token.kind, token.text, str(token.location))
    if isinstance(item, GroupItem):
        return ("group", item.kind, str(item.location),
                tuple(_item_key(child) for child in item.items))
    return ("hole", item.symbol.name, item.declared.name, item.name,
            repr(item.spec), str(item.location))


def build_corpus():
    """Every distinct pattern parse the corpus's compiles make."""
    templates._CASE_CACHE.clear()  # syntax-case patterns parse afresh
    inputs = _e2e_inputs()
    rng = random.Random(SEED)
    maya = [(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(ROOT.rglob("*.maya"))
            if ".work" not in path.parts and "modules" not in path.parts]
    daemon = [(inputs.daemon_source(uid, 1 + uid % 8, uid % 2 == 0, rng)[0],
               "<daemon>") for uid in range(6)]
    cases = []
    with captured(cases):
        _compile_all(maya)
        ModuleBuilder(FileSystemSources([str(ROOT / "examples" / "modules")])
                      ).build(["app.Main"])
        _run_examples()
        _install_everything()
        _compile_all(daemon)
    distinct = {}
    for tables, start, items, allow_prefix, offset in cases:
        key = (id(tables), start, allow_prefix, offset,
               tuple(_item_key(item) for item in items))
        distinct.setdefault(key, (tables, start, items, allow_prefix, offset))
    return list(distinct.values())


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


# -- observations ----------------------------------------------------------------


def shape(tree):
    """A tree's observable structure, for either parser's PT classes."""
    kind = type(tree).__name__
    if kind == "PTNode":
        return (kind, tree.production.key(), str(tree.location),
                [shape(child) for child in tree.children])
    if kind == "PTLeaf":
        token = tree.token
        return (kind, token.kind, token.text, str(token.location))
    if kind == "PTHole":
        return (kind, id(tree.item))
    if kind == "PTGroup":
        symbol = tree.content_symbol
        return (kind, tree.group.kind, id(tree.group),
                symbol.name if symbol is not None else None, tree.lazy,
                shape(tree.content) if tree.content is not None else None)
    if kind == "PTStmts":
        return (kind, [shape(element) for element in tree.elements])
    raise AssertionError(f"unexpected tree {tree!r}")


_LOCATED = re.compile(r"(.+?:\d+:\d+): ")


def error_location(error):
    """Where an error points: its ``location``, or (the reference sets
    none) the location its message starts with."""
    location = getattr(error, "location", None)
    if location is not None:
        return str(location)
    match = _LOCATED.match(str(error))
    return match.group(1) if match else None


def outcome(parser_class, case):
    tables, start, items, allow_prefix, offset = case
    try:
        tree, consumed = parser_class(tables).parse(
            start, items, allow_prefix, offset)
    except Exception as error:
        return ("error", type(error).__name__, error_location(error),
                str(error).removesuffix(" (expected )"))
    return ("ok", shape(tree), consumed)


def ends(items):
    """Where an end-of-pattern error may point: the last item of the
    pattern or of a group's items, or nowhere when there is none."""
    found = {str(items[-1].location if items else Location.UNKNOWN)}
    for item in items:
        if isinstance(item, GroupItem):
            found |= ends(item.items)
    return found


def replay(case):
    """The reference's outcome on ``case``, and None when the parser
    agrees with it (up to the one named difference), else both
    outcomes."""
    got = outcome(pattern_parser.PatternParser, case)
    want = outcome(_CountingReference, case)
    if want[0] == "error" and want[3].startswith(PATTERN_ENDS):
        assert want[2] is None  # the reference's defect
        location = got[2] if got[0] == "error" else None
        if (got[:2] == want[:2] and location in ends(case[2])
                and got[3] == f"{location}: {want[3]}"):
            return want, None
    elif got == want:
        return want, None
    return want, (case[1], want, got)


# -- mutations ---------------------------------------------------------------------


def _lists(items, path=()):
    """Every item list (the pattern and each group's), by path."""
    yield path, items
    for index, item in enumerate(items):
        if isinstance(item, GroupItem):
            yield from _lists(item.items, path + (index,))


def _replace(items, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    group = items[head]
    copy = GroupItem(group.kind, _replace(group.items, rest, new),
                     group.location)
    return items[:head] + [copy] + items[head + 1:]


def mutate(case, rng):
    """``case`` with one item list changed: an item deleted, doubled or
    swapped with the next, or a token replaced by a nonterminal hole."""
    tables, start, items, allow_prefix, offset = case
    lists = [(path, found) for path, found in _lists(list(items))
             if found and (path or len(found) > offset)]
    path, chosen = rng.choice(lists)
    chosen = list(chosen)
    low = offset if not path else 0
    at = rng.randrange(low, len(chosen))
    operation = rng.randrange(4)
    if operation == 0:
        del chosen[at]
    elif operation == 1:
        chosen.insert(at, chosen[at])
    elif operation == 2 and at + 1 < len(chosen):
        chosen[at], chosen[at + 1] = chosen[at + 1], chosen[at]
    else:
        symbol = rng.choice(tables.grammar.nonterminals())
        chosen[at] = HoleItem(symbol, "mutant", None, chosen[at].location)
    return (tables, start, _replace(list(items), path, chosen),
            allow_prefix, offset)


class _CountingReference(reference.PatternParser):
    """The reference, counting which of section 4.2's rules fire."""

    counts = {"goto": 0, "first": 0}

    def _shift_nonterminal(self, item, states, values):
        reductions = self._reductions = [0]
        shifted = super()._shift_nonterminal(item, states, values)
        if shifted:
            self.counts["goto"] += 1
        if reductions[0]:
            self.counts["first"] += 1
        del self._reductions
        return shifted

    def _reduce(self, prod_index, states, values, location):
        counter = getattr(self, "_reductions", None)
        if counter is not None:
            counter[0] += 1
        super()._reduce(prod_index, states, values, location)


# -- the tests ------------------------------------------------------------------------


def test_corpus_covers_the_sources(corpus):
    starts = {case[1] for case in corpus}
    # Templates and the parameter lists of Mayans and syntax cases.
    assert {"Statement", "Expression", "Formal", "MethodInvocation"} <= starts
    assert len(corpus) >= 30


def test_corpus_matches_reference(corpus):
    results = [replay(case) for case in corpus]
    diffs = [diff for _, diff in results if diff is not None]
    assert not diffs, f"{len(diffs)} differences; first: {diffs[0]!r}"
    # Every captured pattern is valid.
    assert all(want[0] == "ok" for want, _ in results)


def test_mutated_patterns_match_reference(corpus):
    rng = random.Random(SEED)
    counts = _CountingReference.counts = {"goto": 0, "first": 0}
    diffs = []
    errors = ends_early = 0
    for _ in range(CASES):
        want, diff = replay(mutate(rng.choice(corpus), rng))
        if diff is not None:
            diffs.append(diff)
        if want[0] == "error":
            errors += 1
            ends_early += want[3].startswith(PATTERN_ENDS)
    assert not diffs, f"{len(diffs)} differences; first: {diffs[0]!r}"
    # The mutations reach both of section 4.2's rules and the error
    # paths, the named difference included.
    assert counts["goto"] >= CASES and counts["first"] >= CASES // 10
    assert errors >= CASES // 4 and ends_early >= CASES // 100
