"""mayac: a command-line front end.

    python -m repro.mayac [options] file.maya ...

Options:
    --daemon ADDR     compile on a running mayad at ADDR (host:port or
                      a Unix socket path) instead of in-process — the
                      warm daemon skips grammar/table building; see
                      ``python -m repro.server``
    --daemon-status   print the daemon's live introspection snapshot
                      (worker states, queue, rolling latency
                      percentiles, cache hit ratios, slow requests)
                      and exit; needs --daemon ADDR.  The continuous
                      version is ``python -m repro.server.top``
    --log-out FILE    mirror the structured event log to FILE as JSONL
                      (request-stamped lifecycle events; same record
                      discipline as --trace-out)
    --log-level LEVEL event-log threshold: debug/info/warn/error
    --use NAME        import a metaprogram compiler-wide (repeatable;
                      the paper's -use option)
    --run CLASS       interpret CLASS.main() after compiling
    --backend walk|pycode
                      execution backend for --run: the pycode backend
                      that generates Python source with specialized
                      call sites (default), or the seed tree-walker
                      (the reference semantics); also settable via the
                      MAYA_BACKEND environment variable
    --dump-codegen [METHOD]
                      print the pycode backend's generated Python
                      source of the plans a run uses (optionally
                      only for methods whose qualified label contains
                      METHOD, e.g. Demo.main)
    --expand          print the expanded (plain Java) source
    --module-path DIR resolve ``import``s against .maya module files
                      under DIR (repeatable).  Naming several source
                      files, or any --module-path, switches mayac into
                      module mode: each file/importee is one module,
                      compiled in dependency order, with Mayans used at
                      a module's top level exported to its importers
    --module-cache DIR
                      persist per-module build products under DIR so an
                      unchanged module (and unchanged transitive deps)
                      is reused instead of recompiled (also honours the
                      MAYA_MODULE_CACHE environment variable)
    --module-report   print which modules were recompiled vs. reused
                      to stderr after a module-mode build
    --jobs N          compile up to N modules at once on forked worker
                      processes where the import DAG allows (module
                      mode; ``auto`` = one per CPU; also honours
                      MAYA_JOBS; serial where os.fork is unavailable,
                      and when fewer than two modules need compiling).
                      Output is byte-identical to --jobs 1.  In-process
                      builds only: under --daemon it is ignored, as
                      daemon module builds are serial
    --no-macros       do not register the maya.util library
    --multijava       register the MultiJava extension
    --max-errors N    stop collecting after N errors (default 20)
    --fuel N          Mayan expansion depth budget (default 64)
    --profile         print self time per phase and span kind (the
                      rows add up to the run's total; ``unattributed``
                      is time outside every compiler span), expansion
                      and dispatch counts, and cache hit rates to
                      stderr after compiling
    --table-cache DIR keep the persistent LALR table store under DIR
                      instead of the default location: MAYA_CACHE_DIR,
                      else $XDG_CACHE_HOME/maya, else ~/.cache/maya.
                      Generated tables are stored there, so later runs
                      restore them instead of generating them again
    --no-cache        neither read nor write the persistent table store
    --trace           print the expansion trace (nested phase /
                      dispatch / Mayan spans with before/after
                      rewrites) to stderr after compiling
    --trace-out FILE  write the trace as JSONL (span records plus a
                      final metrics record) to FILE; ``-`` for stdout
    --provenance      with --expand, annotate generated statements
                      with the Mayan/template/use-site that made them
    --metrics-out FILE
                      write the metrics registry (cache, dispatch,
                      phase-timing, laziness, span counts) to FILE;
                      ``-`` for stdout
    --metrics-format prom|json
                      metrics output format (default prom: Prometheus
                      text exposition)
    --flamegraph FILE write a flamegraph of the compile's span tree to
                      FILE; ``-`` for stdout
    --flamegraph-format speedscope|folded
                      flamegraph format (default speedscope: JSON that
                      loads at https://www.speedscope.app; folded:
                      flamegraph.pl collapsed stacks)
    --lazy-report     print the laziness profile (lazy thunks created
                      vs. forced, per phase and production, and the
                      never-parsed fraction) to stderr

The macro library is registered by default, so sources can say
``use maya.util.ForEach;`` etc.

Unlike the paper's mayac (which stops at the first error), this front
end keeps compiling past recoverable errors and renders every collected
diagnostic — source line, caret, notes, expansion backtrace — to
stderr, exiting 1.  Output files that cannot be written are reported
the same way (a rendered diagnostic, non-zero exit), never as a Python
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro import CompileEnv, MayaCompiler, trace
from repro.diag import (
    DEFAULT_EXPANSION_DEPTH,
    DEFAULT_MAX_ERRORS,
    CompileFailed,
    Diagnostic,
    DiagnosticError,
)
from repro.interp import Interpreter
from repro.interp.interp import BACKENDS, DEFAULT_BACKEND
from repro.lalr.tables import disk_cache_at
from repro.obs import export as obs_export
from repro.obs import flamegraph as obs_flame
from repro.obs import lazy as obs_lazy
from repro.obs import log as obs_log
from repro.obs import profile as obs_profile
from repro.obs.metrics import REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mayac", description="Compile (and run) Maya source files."
    )
    parser.add_argument("files", nargs="*", help="source files")
    parser.add_argument("--daemon", metavar="ADDR",
                        help="compile on a running mayad (host:port or "
                             "socket path) instead of in-process")
    parser.add_argument("--daemon-status", action="store_true",
                        help="print the daemon's live stats snapshot "
                             "and exit (needs --daemon ADDR)")
    parser.add_argument("--log-out", metavar="FILE",
                        help="mirror the structured event log to FILE "
                             "as JSONL")
    parser.add_argument("--log-level", choices=sorted(obs_log.LEVELS),
                        default=None,
                        help="event-log threshold (default info)")
    parser.add_argument("--use", action="append", default=[],
                        metavar="NAME",
                        help="import a metaprogram compiler-wide")
    parser.add_argument("--run", metavar="CLASS",
                        help="run CLASS.main() after compiling")
    parser.add_argument("--backend", choices=BACKENDS,
                        default=None,
                        help="execution backend for --run (default: "
                             f"MAYA_BACKEND or {DEFAULT_BACKEND})")
    parser.add_argument("--dump-codegen", nargs="?", const="",
                        default=None, metavar="METHOD",
                        help="print the pycode backend's generated "
                             "Python source of the plans a run uses "
                             "(optionally filtered to methods whose "
                             "label contains METHOD)")
    parser.add_argument("--expand", action="store_true",
                        help="print the expanded source")
    parser.add_argument("--module-path", action="append", default=[],
                        metavar="DIR",
                        help="resolve imports against .maya modules "
                             "under DIR (repeatable; enables module "
                             "mode)")
    parser.add_argument("--module-cache", metavar="DIR",
                        default=os.environ.get("MAYA_MODULE_CACHE"),
                        help="persist per-module build products under "
                             "DIR for incremental rebuilds")
    parser.add_argument("--module-report", action="store_true",
                        help="print recompiled-vs-reused modules to "
                             "stderr after a module-mode build")
    parser.add_argument("--jobs", metavar="N",
                        help="compile up to N modules at once on forked "
                             "workers where the import DAG allows "
                             "('auto' = one per CPU; default 1; also "
                             "honours MAYA_JOBS; ignored under "
                             "--daemon)")
    parser.add_argument("--no-macros", action="store_true",
                        help="skip the maya.util macro library")
    parser.add_argument("--multijava", action="store_true",
                        help="enable the MultiJava extension")
    parser.add_argument("--max-errors", type=int, metavar="N",
                        default=DEFAULT_MAX_ERRORS,
                        help="stop collecting after N errors "
                             "(default %(default)s)")
    parser.add_argument("--fuel", type=int, metavar="N",
                        default=DEFAULT_EXPANSION_DEPTH,
                        help="Mayan expansion depth budget "
                             "(default %(default)s)")
    parser.add_argument("--profile", action="store_true",
                        help="print phase timings, dispatch counts, and "
                             "cache hit rates after compiling")
    store = parser.add_mutually_exclusive_group()
    store.add_argument("--table-cache", metavar="DIR",
                       help="keep the persistent LALR table store under "
                            "DIR (default: MAYA_CACHE_DIR, else "
                            "$XDG_CACHE_HOME/maya, else ~/.cache/maya)")
    store.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the persistent "
                            "table store")
    parser.add_argument("--trace", action="store_true",
                        help="print the expansion trace to stderr")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the trace as JSONL to FILE "
                             "('-' for stdout)")
    parser.add_argument("--provenance", action="store_true",
                        help="with --expand, annotate generated "
                             "statements with their origin")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the metrics registry to FILE "
                             "('-' for stdout)")
    parser.add_argument("--metrics-format", choices=("prom", "json"),
                        default="prom",
                        help="metrics output format (default %(default)s)")
    parser.add_argument("--flamegraph", metavar="FILE",
                        help="write a flamegraph of the compile's spans "
                             "to FILE ('-' for stdout)")
    parser.add_argument("--flamegraph-format",
                        choices=("speedscope", "folded"),
                        default="speedscope",
                        help="flamegraph format (default %(default)s)")
    parser.add_argument("--lazy-report", action="store_true",
                        help="print the laziness profile (thunks created "
                             "vs. forced) to stderr")
    return parser


def _report(engine, error: BaseException) -> None:
    """Render a compile failure to stderr — every collected diagnostic
    for a multi-error CompileFailed, the single diagnostic otherwise."""
    if isinstance(error, CompileFailed):
        rendered = error.render()
        count = sum(1 for d in error.diagnostics if d.severity == "error")
    elif isinstance(error, DiagnosticError):
        rendered = engine.render(error.diagnostic)
        count = 1
    else:
        rendered = f"{type(error).__name__}: {error}"
        count = 1
    print(rendered, file=sys.stderr)
    plural = "s" if count != 1 else ""
    print(f"mayac: {count} error{plural}", file=sys.stderr)


def _write_output(path: str, text: str, engine, what: str) -> bool:
    """Write exporter output to a path ('-' = stdout).  Failures render
    as a diagnostic (never a traceback); returns False on failure so
    the caller can exit non-zero."""
    if path == "-":
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        return True
    except OSError as error:
        reason = error.strerror or str(error)
        diagnostic = Diagnostic(
            f"cannot write {what} to {path}: {reason}", phase="general",
        )
        print(engine.render(diagnostic), file=sys.stderr)
        return False


def _options(args) -> dict:
    """The compile options mayac's flags select: they configure a local
    compile or module build, and are a ``--daemon`` request's options."""
    return {
        "use": list(args.use),
        "multijava": args.multijava,
        "no_macros": args.no_macros,
        "provenance": args.provenance,
        "expand": args.expand,
        "fuel": args.fuel,
        "max_errors": args.max_errors,
    }


def _module_mode(args) -> bool:
    """Module mode: several source files, or any --module-path."""
    return bool(args.module_path) or len(args.files) > 1


def _print_module_report(order, recompiled) -> None:
    from repro.modules.build import format_module_report

    print(format_module_report(order, recompiled), file=sys.stderr)


def _daemon_modules(args, client) -> int:
    """Module mode over --daemon: discover the graph locally (a token
    scan per file, no parsing), ship every module's source, and let the
    daemon's shared module cache do the incremental work."""
    from repro.modules import FileSystemSources, ModuleGraph
    from repro.server.client import DaemonError
    from repro.server.protocol import STATUS_OK
    from repro.types.builtins import standard_registry

    sources = FileSystemSources(args.module_path or [])
    try:
        roots = [sources.module_name_for(path) for path in args.files]
        graph = ModuleGraph.discover(roots, sources,
                                     registry=standard_registry())
    except DiagnosticError as error:
        print(f"mayac: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"mayac: {error}", file=sys.stderr)
        return 1
    payload = {name: info.source for name, info in graph.modules.items()}
    try:
        response = client.compile_modules(payload, roots, **_options(args))
    except DaemonError as error:
        print(f"mayac: {error}", file=sys.stderr)
        return 3
    if response.get("status") != STATUS_OK:
        return _daemon_failure(response)
    modules = response.get("modules") or {}
    if args.module_report:
        _print_module_report(modules.get("order", ()),
                             modules.get("recompiled", ()))
    if args.expand and "expanded" in response:
        print(response["expanded"])
    return 0


def _daemon_failure(response: dict) -> int:
    """Print a failed daemon response's diagnostics and error count;
    returns the exit code for its status."""
    from repro.server.protocol import STATUS_COMPILE_ERROR

    diagnostics = response.get("diagnostics", ())
    for diagnostic in diagnostics:
        print(diagnostic.get("rendered")
              or diagnostic.get("message", ""), file=sys.stderr)
    errors = len(diagnostics) or 1
    plural = "s" if errors != 1 else ""
    print(f"mayac: {errors} error{plural}", file=sys.stderr)
    return 1 if response.get("status") == STATUS_COMPILE_ERROR else 3


def _daemon_main(args) -> int:
    """Delegate compilation to a running mayad (``--daemon``)."""
    from repro.server.client import DaemonError, MayaClient
    from repro.server.protocol import STATUS_OK

    if args.run:
        print("mayac: --run is not supported with --daemon "
              "(the daemon compiles; run locally)", file=sys.stderr)
        return 2
    client = MayaClient(args.daemon)
    if _module_mode(args):
        return _daemon_modules(args, client)
    code = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            print(f"mayac: cannot read {path}: {error.strerror}",
                  file=sys.stderr)
            return 1
        try:
            response = client.compile(source, filename=path,
                                      **_options(args))
        except DaemonError as error:
            print(f"mayac: {error}", file=sys.stderr)
            return 3
        if response.get("status") != STATUS_OK:
            code = _daemon_failure(response)
        elif args.expand and "expanded" in response:
            print(response["expanded"])
    return code


def _daemon_status(args) -> int:
    """``--daemon-status``: one live ``stats`` snapshot, rendered."""
    from repro.server.client import DaemonError, MayaClient
    from repro.server.top import render_stats

    if not args.daemon:
        print("mayac: --daemon-status needs --daemon ADDR",
              file=sys.stderr)
        return 2
    client = MayaClient(args.daemon, retries=0, timeout_s=5.0)
    try:
        stats = client.stats()
    except DaemonError as error:
        print(f"mayac: {error}", file=sys.stderr)
        return 3
    print(render_stats(stats))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        obs_log.LOG.set_level(args.log_level)
    if args.log_out:
        obs_log.LOG.set_sink(args.log_out)
    if args.daemon_status:
        return _daemon_status(args)
    if not args.files:
        print("mayac: no source files (nothing to do)", file=sys.stderr)
        return 2
    if args.daemon:
        return _daemon_main(args)
    # Local compiles run under a request scope too: exemplars,
    # diagnostics, and --log-out lines carry one request_id/trace_id
    # per mayac invocation, same contract as a daemon request.
    with obs_log.request_scope(), _table_store(args):
        return _local_main(args)


def _table_store(args):
    """The table store this run uses: --table-cache and --no-cache
    hold until ``main`` returns, so an in-process caller gets its own
    store back."""
    if args.no_cache:
        return disk_cache_at(None)
    if args.table_cache:
        return disk_cache_at(args.table_cache)
    return contextlib.nullcontext()


def _local_main(args) -> int:
    # --metrics-out wants phase timings and laziness figures covered,
    # so it implies the tracer and the laziness profiler.
    want_lazy = args.lazy_report or args.metrics_out
    want_tracer = (args.trace or args.trace_out or args.flamegraph
                   or args.profile or args.metrics_out)
    lazy_profiler = obs_lazy.activate() if want_lazy else None
    tracer = trace.activate() if want_tracer else None
    reductions = obs_profile.reduction_counts() if args.profile else None
    # The root span: its self time is the run's unattributed time.
    root = tracer.begin("mayac", " ".join(args.files)) \
        if tracer is not None else None
    env = CompileEnv.fresh_session(fuel=args.fuel,
                                   max_errors=args.max_errors)
    engine = env.diag
    options = _options(args)

    def finish(code: int) -> int:
        if tracer is not None:
            # Stop tracing before reporting, so every view below reads
            # the same finished tree.
            tracer.end(root)
            trace.deactivate()
            if args.profile:
                print(obs_profile.render(tracer, reductions),
                      file=sys.stderr)
        if lazy_profiler is not None:
            if args.lazy_report:
                print(lazy_profiler.render(), file=sys.stderr)
            obs_lazy.deactivate()
        if tracer is not None:
            if args.trace:
                print(tracer.render(), file=sys.stderr)
            if args.trace_out:
                # One metrics schema everywhere: the trace's final
                # metrics record is the registry snapshot (the same
                # payload --metrics-out json writes).
                metrics = obs_export.to_json(REGISTRY)
                if args.profile:
                    metrics["profile"] = obs_profile.snapshot(tracer)
                if lazy_profiler is not None:
                    metrics["laziness"] = lazy_profiler.snapshot()
                if not _write_output(args.trace_out,
                                     tracer.to_jsonl(metrics),
                                     engine, "trace"):
                    code = max(code, 1)
            if args.flamegraph:
                if args.flamegraph_format == "folded":
                    text = obs_flame.folded_stacks(tracer)
                else:
                    text = obs_flame.to_speedscope_text(
                        tracer, name=" ".join(args.files))
                if not _write_output(args.flamegraph, text,
                                     engine, "flamegraph"):
                    code = max(code, 1)
        if args.metrics_out:
            if args.metrics_format == "json":
                text = obs_export.to_json_text(REGISTRY)
            else:
                text = obs_export.to_prometheus(REGISTRY)
            if not _write_output(args.metrics_out, text, engine, "metrics"):
                code = max(code, 1)
        return code

    program = None
    if _module_mode(args):
        from repro.modules import (FileSystemSources, ModuleBuilder,
                                   resolve_jobs)

        sources = FileSystemSources(args.module_path or [])
        try:
            jobs = resolve_jobs(args.jobs)
        except ValueError as error:
            print(f"mayac: {error}", file=sys.stderr)
            return finish(2)
        need_bodies = bool(args.run) or args.dump_codegen is not None
        try:
            # Fork workers give real CPU parallelism under the GIL; the
            # in-process CLI is single-threaded here, so forking is safe.
            builder = ModuleBuilder(sources, cache_dir=args.module_cache,
                                    options=options, env=env, jobs=jobs)
            roots = [sources.module_name_for(path) for path in args.files]
            result = builder.build(roots, need_bodies=need_bodies)
        except OSError as error:
            print(f"mayac: {error}", file=sys.stderr)
            return finish(1)
        except Exception as error:
            _report(engine, error)
            return finish(1)
        program = result.program
        if args.module_report:
            _print_module_report(result.order, result.recompiled)
        if args.expand:
            print(result.expanded())
    else:
        try:
            compiler = MayaCompiler(env).configure(options)
        except DiagnosticError as error:
            _report(engine, error)
            return finish(1)
        for path in args.files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as error:
                print(f"mayac: cannot read {path}: {error.strerror}",
                      file=sys.stderr)
                return finish(1)
            obs_log.emit("mayac.compile.start", level="debug",
                         filename=path)
            try:
                program = compiler.compile(source, path)
            except Exception as error:  # surface compile errors cleanly
                obs_log.emit("mayac.compile.error", level="error",
                             filename=path,
                             error=type(error).__name__)
                _report(engine, error)
                return finish(1)
            obs_log.emit("mayac.compile.done", filename=path,
                         classes=len(program.classes))

        if args.expand and program is not None:
            print(program.source(provenance=args.provenance))

    interp = None
    if args.run and program is not None:
        try:
            interp = Interpreter(program, echo=True, backend=args.backend)
            with trace.phase("interp"):
                interp.run_static(args.run)
        except DiagnosticError as error:
            # No interpreter yet: ``MAYA_BACKEND`` names no backend.
            print(f"mayac: {error}" if interp is None
                  else engine.render(error.diagnostic), file=sys.stderr)
            return finish(2)
        except Exception as error:
            print(f"mayac: runtime error: {error}", file=sys.stderr)
            return finish(2)

    if args.dump_codegen is not None and program is not None:
        if not _dump_codegen(program, interp, args.dump_codegen):
            return finish(1)
    return finish(0)


def _dump_codegen(program, interp, pattern: str) -> bool:
    """Print the pycode backend's generated Python source for every
    compiled method (optionally filtered by a label substring).  Methods
    the codegen declines are listed as walker-fallback comments.  False
    when a filter was given and matched nothing."""
    from repro.interp import pycodegen

    if interp is None or interp.backend != "pycode":
        interp = Interpreter(program, backend="pycode")
    matched = 0
    for compiled in program.classes.values():
        methods = [m for overloads in compiled.type.methods.values()
                   for m in overloads]
        methods.extend(compiled.type.constructors)
        for method in methods:
            label = pycodegen.method_label(method)
            if pattern and pattern not in label:
                continue
            matched += 1
            plan = pycodegen.plan_for(method, interp)
            print(f"# === {label} ===")
            if plan is pycodegen.FALLBACK:
                print("# (no generated code: runs on the walker)")
            else:
                print(plan.source.rstrip())
            print()
    if pattern and not matched:
        print(f"mayac: --dump-codegen: no method matches {pattern!r}",
              file=sys.stderr)
        return False
    return True


def cli(argv=None) -> int:
    """``main`` plus conventional Unix exit behavior: SIGINT exits 130
    (128 + SIGINT) with a one-line note, and a closed stdout (e.g.
    ``mayac --expand | head``) exits 0 — neither ever prints a Python
    traceback."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        try:
            print("mayac: interrupted", file=sys.stderr)
        except Exception:
            pass
        return 130
    except BrokenPipeError:
        # The reader went away; the convention is silent success.
        # Point stdout at devnull so interpreter-exit flushing doesn't
        # raise a secondary BrokenPipeError after we return.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except Exception:
            sys.stdout = open(os.devnull, "w")
        return 0


def _exit_now(code: int) -> None:
    """End a console run without interpreter teardown: every output
    file is already written and closed, so freeing the heap object by
    object and running finalizers only costs time.  Close the
    --log-out sink and flush the standard streams first, since
    ``os._exit`` flushes nothing."""
    obs_log.LOG.set_sink(None)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass  # a reader that went away (see cli) or a closed stream
    os._exit(code)


if __name__ == "__main__":
    # Only here, never in cli() or main(): callers in the same process
    # (tests, benchmark launchers) need them to return.
    _exit_now(cli())
