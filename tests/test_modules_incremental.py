"""Property test: incremental rebuilds are indistinguishable from clean.

For ≥50 seeded-random trials, generate a random module DAG, build it,
apply a random single-module edit, and prove two properties:

* **Byte-exactness** — the incremental rebuild's combined ``--expand``
  artifact is byte-identical to a from-scratch build of the edited
  sources (per-module artifacts included, since the combined output
  concatenates them all);
* **Minimal invalidation** — exactly the edited module and its
  transitive importers recompile; everything else replays from the
  cache.  Asserted both structurally (``BuildResult.recompiled``) and
  through the ``maya_modules_compiled_total`` /
  ``maya_modules_reused_total`` counters, so a builder that silently
  recompiled-and-discarded would still be caught.
* **Parallelism-invariance** — every trial also runs at ``jobs=4``
  (forked workers, the ``--jobs`` substrate; the serial walk where
  ``os.fork`` is unavailable) against its own cache, and the combined
  artifact, the recompiled set, the ``--module-report`` text, and the
  on-disk cache-entry bytes must all be identical to the serial
  build's.
"""

import hashlib
import os
import random

from repro.modules import MemorySources, ModuleBuilder, ModuleGraph
from repro.obs.metrics import REGISTRY

TRIALS = 50
SEED = 0x4D617961  # "Maya"


def _counter(name):
    return REGISTRY.get(name).value


def random_project(rng):
    """A random DAG of 4-9 tiny modules.

    Module ``mod.M<i>`` may import only lower-numbered modules, so the
    graph is acyclic by construction; each module's ``value()`` sums
    its deps' values plus its own marker, so every edge is a real
    compile-time dependency (the importer resolves the dep's class).
    """
    count = rng.randint(4, 9)
    deps = {}
    sources = {}
    for i in range(count):
        pool = list(range(i))
        rng.shuffle(pool)
        deps[i] = sorted(pool[:rng.randint(0, min(3, i))])
        imports = "".join(f"import mod.M{j};\n" for j in deps[i])
        terms = [f"M{j}.value()" for j in deps[i]] + [str(i + 1)]
        sources[f"mod.M{i}"] = (
            f"{imports}"
            f"class M{i} {{ static int value() "
            f"{{ return {' + '.join(terms)}; }} }}\n")
    imported = {j for targets in deps.values() for j in targets}
    roots = [f"mod.M{i}" for i in range(count) if i not in imported]
    return sources, roots


def edit_module(rng, sources):
    """Bump the edited module's marker constant — a real change to its
    expanded artifact, applied to a uniformly random module."""
    name = rng.choice(sorted(sources))
    index = int(name.rsplit("M", 1)[1])
    edited = dict(sources)
    edited[name] = edited[name].replace(f" {index + 1}; ",
                                        f" {index + 100}; ", 1)
    assert edited[name] != sources[name]
    return edited, name


def _cache_digests(directory):
    """Name -> sha256 of every entry file, quarantines excluded."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".pickle"):
            continue
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    assert out, f"{directory}: no cache entries"
    return out


def test_incremental_rebuild_equals_clean_build(tmp_path):
    rng = random.Random(SEED)
    for trial in range(TRIALS):
        cache = tmp_path / f"trial{trial}"
        sources, roots = random_project(rng)

        first = ModuleBuilder(MemorySources(sources),
                              cache_dir=str(cache)).build(roots)
        assert first.recompiled == first.order  # cold cache

        edited, target = edit_module(rng, sources)
        downstream = first.graph.dependents_of(target)
        expected = sorted(downstream + [target])

        compiled_before = _counter("maya_modules_compiled_total")
        reused_before = _counter("maya_modules_reused_total")
        incremental = ModuleBuilder(MemorySources(edited),
                                    cache_dir=str(cache)).build(roots)

        # Minimal invalidation: the edited cone recompiles, nothing else.
        assert sorted(incremental.recompiled) == expected, \
            f"trial {trial}: edited {target}, deps {sources}"
        assert _counter("maya_modules_compiled_total") \
            - compiled_before == len(expected)
        assert _counter("maya_modules_reused_total") \
            - reused_before == len(incremental.order) - len(expected)

        # Byte-exactness: identical to a cacheless from-scratch build.
        clean = ModuleBuilder(MemorySources(edited)).build(roots)
        assert incremental.expanded() == clean.expanded(), \
            f"trial {trial}: incremental artifact diverged for {target}"

        # Parallelism-invariance: replay the whole trial at jobs=4 on
        # forked workers; every observable — artifact bytes,
        # recompiled set, report text, cache-entry bytes — matches.
        cache4 = tmp_path / f"trial{trial}-jobs4"
        first4 = ModuleBuilder(MemorySources(sources),
                               cache_dir=str(cache4), jobs=4).build(roots)
        assert first4.expanded() == first.expanded(), \
            f"trial {trial}: jobs=4 clean artifact diverged"
        assert first4.report() == first.report()
        incremental4 = ModuleBuilder(MemorySources(edited),
                                     cache_dir=str(cache4),
                                     jobs=4).build(roots)
        assert incremental4.recompiled == incremental.recompiled, \
            f"trial {trial}: jobs=4 recompiled a different set"
        assert incremental4.expanded() == incremental.expanded()
        assert incremental4.report() == incremental.report()
        assert _cache_digests(str(cache4)) == _cache_digests(str(cache)), \
            f"trial {trial}: jobs=4 wrote different cache bytes"


def test_discovery_order_is_deterministic():
    """The topological order is a pure function of the graph — the
    other half of byte-identical combined artifacts."""
    rng = random.Random(SEED + 1)
    for _ in range(10):
        sources, roots = random_project(rng)
        orders = {tuple(ModuleGraph.discover(
            roots, MemorySources(sources)).order()) for _ in range(3)}
        assert len(orders) == 1


def test_every_single_module_edit_point(tmp_path):
    """Exhaustively edit each module of one project: the recompiled
    set must equal {edited} ∪ dependents for every edit point."""
    rng = random.Random(SEED + 2)
    sources, roots = random_project(rng)
    graph = ModuleGraph.discover(roots, MemorySources(sources))
    for name in graph.order():
        cache = tmp_path / name
        ModuleBuilder(MemorySources(sources),
                      cache_dir=str(cache)).build(roots)
        index = int(name.rsplit("M", 1)[1])
        edited = dict(sources)
        edited[name] = edited[name].replace(f" {index + 1}; ",
                                            f" {index + 500}; ", 1)
        result = ModuleBuilder(MemorySources(edited),
                               cache_dir=str(cache)).build(roots)
        assert sorted(result.recompiled) == \
            sorted(graph.dependents_of(name) + [name])
