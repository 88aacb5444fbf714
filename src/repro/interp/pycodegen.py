"""The ahead-of-time Python-codegen execution backend.

The default execution backend (``pycode``; the tree-walker ``walk`` is
the oracle and the fallback): a per-method compiler from the *typed*
AST to Python source, ``compile()``d once and executed as a real Python
function.  Where the walker re-dispatches on every AST node, this
backend pays native bytecode: Java locals become Python locals, loops
become Python loops, ``try``/``finally`` becomes Python's, and
``int``/``boolean`` operations the checker typed statically are emitted
as bare operators.

Profile-guided specialization happens at the call sites:

* **Call sites that patch once** — every virtual call emits a class
  guard plus a direct call through three plan-namespace cells
  (``_sN_k`` guard class, ``_sN_f`` entry function, ``_sN_m`` resolved
  method).  The first receiver class observed patches the site to call
  the callee's generated entry *directly* (no ``invoke_exact``, no
  dict lookup).  A site never deoptimizes: the program's classes are
  sealed, so any other receiver class is resolved once into the site's
  own dict and called through ``invoke_exact``.
* **Caller-side depth guards** — direct calls bump the interpreter's
  call depth inline (the same ``JavaStackOverflow`` contract as
  ``invoke_exact``) so a patched call chain observes exactly one depth
  increment per Java frame.

Plans live in memory only, on the Method, and die with its session:
generating and ``compile()``-ing a method's source costs about what a
disk lookup would, whose key alone needs the unparsed body
(EXPERIMENTS.md, E19).

Observable behaviour is bit-for-bit the walker's: the operation
counters' totals are exact whenever a method returns or throws, the
same Java exceptions carry the same messages, and any shape this
compiler cannot prove it reproduces raises :class:`CodegenError`,
caching a ``FALLBACK`` sentinel so the method transparently runs on
the walker.  A plan counts operations into Python locals (``_st``,
``_fr``, ``_mc``, ...) and adds each local it uses to the registry in
one ``finally``.  Counts stay pending in the generator until a line
that may raise or branch (a call, an allocation, an ``if``), where one
``+=`` per counter adds them; lines that cannot raise (local stores,
int arithmetic, guarded field accesses) keep them pending, and a null
guard adds them on its way out only.  So a loop body of field accesses
pays one ``_st += k``, ``_fr += k``, ``_fw += k`` per iteration, and
the totals match the walker's at every return and every throw.  A plan
has no step-budget test: an interpreter with a statement budget
(``max_steps``) runs every method on the walker, which checks the
budget at each statement.  A plan is never invalidated:
``Interpreter`` seals the program's classes before anything runs, so
the member tables a plan and its patched sites resolved against are
final (``ClassType.sealed``).
"""

from __future__ import annotations

import re
import weakref
from typing import Dict, List, Tuple

from repro.ast import nodes as n
from repro.core import MayaError
from repro.interp.interp import (
    _C_ALLOCATIONS,
    _C_ARRAY_READS,
    _C_ARRAY_WRITES,
    _C_FIELD_READS,
    _C_FIELD_WRITES,
    _C_METHOD_CALLS,
    _C_STATEMENTS,
    JavaStackOverflow,
    _binary_op,
    _int32,
    _java_equal,
    _num,
    _primitive_cast,
    body_of,
)
from repro.interp.values import (
    JavaArray,
    JavaObject,
    JavaThrow,
    default_value,
    java_str,
)
from repro.obs import lazy as obs_lazy
from repro.obs.metrics import REGISTRY
from repro.typecheck import resolve_name, resolve_type_name, static_type_of
from repro.types import (
    ArrayType,
    BOOLEAN,
    BYTE,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PrimitiveType,
    SHORT,
    array_of,
)

#: Method-body codegen outcomes (compiled / fallback).
_CODEGEN = REGISTRY.counter(
    "maya_interp_codegen_total",
    "Pycode-backend method compilations, by outcome.",
    ("outcome",))
_CG_COMPILED = _CODEGEN.labels("compiled")
_CG_FALLBACK = _CODEGEN.labels("fallback")

#: Plan sentinel: this method always executes on the tree-walker.
FALLBACK = object()

#: Missing-key sentinel distinct from any storable value.
_MISSING = object()


class CodegenError(Exception):
    """A node shape the Python codegen does not reproduce exactly; the
    method falls back to the tree-walker."""


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class PyPlan:
    """A compiled method: the generated entry function (whose globals
    are the plan namespace its sites patch) and its source (for
    ``--dump-codegen``)."""

    __slots__ = ("entry", "source", "label")

    def __init__(self, entry, source, label):
        self.entry = entry
        self.source = source
        self.label = label


def plan_for(method, interp):
    """The cached compiled plan for a method (or ``FALLBACK``).

    The plan never captures ``interp``, so plans are shared across
    Interpreter instances.  An interpreter with a statement budget
    (``max_steps``) gets ``FALLBACK`` without a plan being built: the
    walker checks the budget at every statement.
    """
    if interp.max_steps is not None:
        return FALLBACK
    plan = getattr(method, "_pycode_plan", None)
    if plan is None:
        plan = method._pycode_plan = _build_plan(method)
    return plan


def _build_plan(method):
    decl = method.decl
    if method.impl is not None or decl is None or decl.body is None:
        # A builtin or an intercession-attached Python impl: never
        # codegen's job, so not counted as a fallback.
        return FALLBACK
    try:
        source, consts, sites = _MethodGen(method).generate()
        plan = _link(method, source, consts, sites)
    except (CodegenError, SyntaxError):
        _CG_FALLBACK.value += 1
        return FALLBACK
    _CG_COMPILED.value += 1
    return plan


def _entry_for(method, interp):
    """The direct-call entry for a resolved method: its generated
    function when it compiles, otherwise a shim through
    ``_invoke_exact`` (guard-free — the *caller's* inline depth guard
    supplies the one increment ``invoke_exact`` would have)."""
    plan = plan_for(method, interp)
    if plan is FALLBACK:
        def shim(interp, receiver, *args):
            return interp._invoke_exact(method, receiver, list(args))
        return shim
    return plan.entry


def _overflow(interp, method):
    raise JavaStackOverflow(
        f"Java stack overflow: call depth exceeded "
        f"{interp.max_call_depth} invoking {method}"
    )


def _raise_unbound(exc, mapping):
    """Map a generated-local UnboundLocalError/NameError back to the
    walker's ``MayaError("unbound local x")`` contract."""
    name = getattr(exc, "name", None)
    if name is None:
        match = re.search(r"'([^']+)'", str(exc))
        name = match.group(1) if match else None
    message = mapping.get(name)
    if message is None:
        raise exc
    raise MayaError(message) from None


# ---------------------------------------------------------------------------
# Site builders (created at link time; never capture the interpreter)
# ---------------------------------------------------------------------------


class _Home:
    """How a site's slow path reaches the plan namespace it patches:
    through the plan's entry function, weakly.  The namespace holds the
    site, so holding the namespace would close a cycle that only the
    cyclic collector frees.  The entry is alive whenever a site runs,
    since only the entry calls it."""

    __slots__ = ("entry",)

    def ns(self) -> dict:
        return self.entry().__globals__


def _make_call_site(ns, home, index, method):
    """A virtual call site that patches itself once.

    The generated guard is ``if _k is _sN_k: <direct call>``;  this
    dispatcher is the slow path.  The first receiver class it sees
    patches the site to call that class's target's generated entry
    directly.  Any other class is resolved once into a per-site dict
    and called through ``invoke_exact``.  The program's classes are
    sealed, so a class's target never changes, and they are finitely
    many, so the dict needs no bound."""
    k_name, f_name, m_name = (f"_s{index}_k", f"_s{index}_f",
                              f"_s{index}_m")
    others: Dict[object, object] = {}

    def dispatch(interp, receiver, klass, args):
        resolved = others.get(klass)
        if resolved is None:
            resolved = interp._virtual_lookup(klass, method)
            ns = home.ns()
            if ns[k_name] is None:
                ns[m_name] = resolved
                ns[f_name] = _entry_for(resolved, interp)
                ns[k_name] = klass
            else:
                others[klass] = resolved
        return interp.invoke_exact(resolved, receiver, list(args))

    ns[k_name] = None
    ns[f_name] = None
    ns[m_name] = method
    ns[f"_s{index}_d"] = dispatch


def _make_static_site(ns, home, index, method):
    """A static/super/instance-qualified-static call site: the target
    is a codegen-time constant, so the only laziness is building the
    callee's entry on first call (which also dodges infinite recursion
    while compiling self-recursive methods)."""
    f_name = f"_s{index}_f"

    def call_generic(interp, receiver, args):
        ns = home.ns()
        if ns[f_name] is None:
            ns[f_name] = _entry_for(method, interp)
        return interp.invoke_exact(method, receiver, list(args))

    ns[f_name] = None
    ns[f"_s{index}_m"] = method
    ns[f"_s{index}_g"] = call_generic


def _make_instanceof_site(ns, home, index, target):
    """``instanceof`` with a per-runtime-type verdict cache."""
    cache: Dict[object, object] = {}

    def test(interp, value):
        if value is None:
            return False
        runtime = value.class_type if type(value) is JavaObject \
            else interp._runtime_type(value)
        verdict = cache.get(runtime)
        if verdict is None:
            verdict = cache[runtime] = runtime.is_subtype_of(target)
        return verdict

    ns[f"_s{index}"] = test


def _make_cast_site(ns, home, index, target):
    """A reference cast with a per-runtime-type verdict cache."""
    cache: Dict[object, object] = {}

    def cast(interp, value):
        if value is None:
            return None
        runtime = value.class_type if type(value) is JavaObject \
            else interp._runtime_type(value)
        verdict = cache.get(runtime)
        if verdict is None:
            verdict = cache[runtime] = runtime.is_subtype_of(target)
        if not verdict:
            raise interp.throw("java.lang.ClassCastException",
                               f"{runtime} to {target}")
        return value

    ns[f"_s{index}"] = cast


_SITE_BUILDERS = {
    "call": _make_call_site,
    "scall": _make_static_site,
    "instanceof": _make_instanceof_site,
    "cast": _make_cast_site,
}


# ---------------------------------------------------------------------------
# Linking: (source, consts, sites) -> PyPlan
# ---------------------------------------------------------------------------


def _runtime_ns() -> dict:
    return {
        "_ST": _C_STATEMENTS, "_MC": _C_METHOD_CALLS,
        "_FR": _C_FIELD_READS, "_FW": _C_FIELD_WRITES,
        "_AR": _C_ARRAY_READS, "_AW": _C_ARRAY_WRITES,
        "_AL": _C_ALLOCATIONS,
        "_JO": JavaObject, "_JA": JavaArray, "_JT": JavaThrow,
        "_ME": MayaError,
        "_num": _num, "_bop": _binary_op, "_jeq": _java_equal,
        "_jstr": java_str, "_pcast": _primitive_cast, "_i32": _int32,
        "_ovf": _overflow, "_unb": _raise_unbound,
    }


def _link(method, source, consts, sites) -> PyPlan:
    label = method_label(method)
    ns = _runtime_ns()
    home = _Home()
    for name, value in consts:
        ns[name] = value
    for index, kind, payload in sites:
        _SITE_BUILDERS[kind](ns, home, index, payload)
    code = compile(source, f"<pycode {label}>", "exec")
    exec(code, ns)
    # Out of its own globals, and known to its sites only weakly, the
    # entry is freed by reference counting with its method.
    entry = ns.pop("_m")
    home.entry = weakref.ref(entry)
    return PyPlan(entry, source, label)


def method_label(method) -> str:
    owner = method.declaring_class.name if method.declaring_class else "?"
    params = ", ".join(str(p) for p in method.param_types)
    return f"{owner}.{method.name}({params})"


# ---------------------------------------------------------------------------
# The code generator
# ---------------------------------------------------------------------------

#: The operation counters' registry children, by their plan-namespace
#: names; a plan counts each into the local of the lowercase name.
_COUNTERS = ("_ST", "_MC", "_FR", "_FW", "_AR", "_AW", "_AL")

#: Literal types whose ``repr`` round-trips as Python source.
_INLINE_LITERALS = (bool, int, float, str, type(None))

_NUMERIC_TYPES = (INT, LONG, SHORT, BYTE, DOUBLE, FLOAT)

#: Operators folded at codegen time when both operands are int literals.
_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _is_int_type(t) -> bool:
    return t is INT or t is LONG or t is SHORT or t is BYTE


def _is_numeric_type(t) -> bool:
    return t in _NUMERIC_TYPES


def _is_string_type(t) -> bool:
    return getattr(t, "name", "") == "java.lang.String"


def _int_literal(expr) -> int:
    """The value of an int or long literal, or of a minus sign applied
    to one (the parser keeps ``-3`` a unary minus); 0 for anything
    else."""
    sign = 1
    if isinstance(expr, n.UnaryExpr) and expr.op == "-":
        sign, expr = -1, expr.operand
    if isinstance(expr, n.Literal) and expr.kind in ("int", "long"):
        return sign * expr.value
    return 0


def _stmts_of(block):
    return block.stmts if isinstance(block, n.BlockStmts) else block


def _binds_continue(stmt) -> bool:
    """Does ``stmt`` contain a ``continue`` that would bind to the
    *enclosing* loop (i.e. not nested inside an inner loop)?"""
    kind = getattr(stmt, "node_kind", None)
    if kind == "continue_stmt":
        return True
    if kind in ("while_stmt", "do_stmt", "for_stmt"):
        return False
    if kind == "lazy_node":
        return stmt.is_forced() and _binds_continue(stmt.force())
    if kind in ("block", "use_stmt"):
        return any(_binds_continue(s) for s in _stmts_of(stmt.body))
    if kind == "if_stmt":
        if _binds_continue(stmt.then_stmt):
            return True
        return stmt.else_stmt is not None and \
            _binds_continue(stmt.else_stmt)
    if kind == "try_stmt":
        if any(_binds_continue(s) for s in _stmts_of(stmt.body)):
            return True
        for clause in stmt.catches:
            if any(_binds_continue(s) for s in _stmts_of(clause.body)):
                return True
        if stmt.finally_body is not None:
            return any(_binds_continue(s)
                       for s in _stmts_of(stmt.finally_body))
    return False


class _MethodGen:
    """Generates one method body as Python source.

    ``self.expr`` returns an *atom*: a string that is pure at its
    sequence point (all side effects already emitted as lines).  Atoms
    in ``self._atomic`` (temps, consts, literals, ``v_this``) are also
    *stable* — immutable until the statement ends; anything else (a
    local, a compound over locals) is retroactively spilled into a temp
    whenever a later operand emits side-effecting lines, which is what
    preserves Java's left-to-right evaluation order.
    """

    def __init__(self, method):
        decl = method.decl
        if method.impl is not None:
            raise CodegenError("attached Python impl")
        if decl is None or decl.body is None:
            raise CodegenError("no body")
        body = body_of(decl)
        if isinstance(body, n.LazyNode):
            if not body.is_forced():
                raise CodegenError("unforced lazy body")
            body = body.force()
        if not isinstance(body, n.BlockStmts):
            raise CodegenError("body is not a checked block")
        self.method = method
        self.body = body
        self.formals = decl.formals
        self.lines: List[str] = []
        self._indent = 2
        #: Operations counted but not yet added to their locals, by
        #: counter; see :meth:`count`.
        self.pending: Dict[str, int] = {}
        #: Locals bound wherever the current scope can read them (the
        #: formals and the declarations of enclosing blocks): a read of
        #: one cannot raise, so it needs no flush of the pending counts.
        self._bound = set()
        self.ntemp = 0
        self.nsite = 0
        self.names: Dict[str, str] = {}
        self.unbound: Dict[str, str] = {}
        self._atomic = {"v_this", "interp"}
        #: Inline literal atoms that are never null (no null guard).
        self._nonnull = set()
        self.consts: List[Tuple[str, object]] = []
        self.sites: List[Tuple[int, str, object]] = []
        #: The counters the plan counts into locals.
        self.counted = set()
        self.formal_names = [self.pyname(f.name.name) for f in self.formals]
        self._bound.update(self.formal_names)

    # -- emission helpers ------------------------------------------------

    @property
    def indent(self) -> int:
        return self._indent

    @indent.setter
    def indent(self, value: int) -> None:
        # Counts pending inside a suite belong to it, not to the lines
        # after it.
        self.flush()
        self._indent = value

    def put(self, line: str) -> None:
        """A line that may raise or transfer control: the operations
        counted so far are added to their locals first."""
        self.flush()
        self.lines.append("    " * self._indent + line)

    def pure(self, line: str) -> None:
        """A line that cannot raise or transfer control (a store to a
        local, a guarded field access, int arithmetic on atoms): the
        pending counts stay pending across it."""
        self.lines.append("    " * self._indent + line)

    def flush(self) -> None:
        """Add the pending counts to their locals, one line per
        counter."""
        for counter, ops in self.pending.items():
            self.lines.append("    " * self._indent
                              + f"{counter.lower()} += {ops}")
        self.pending.clear()

    def guard(self, cond: str, exc: str, detail: str) -> None:
        """``if cond: raise interp.throw(exc, detail)``, adding the
        pending counts to their locals on the way out only."""
        counts = "".join(f"{counter.lower()} += {ops}; "
                         for counter, ops in self.pending.items())
        self.pure(f"if {cond}: {counts}raise interp.throw({exc!r}, "
                  f"{detail})")

    def temp(self) -> str:
        self.ntemp += 1
        name = f"_t{self.ntemp}"
        self._atomic.add(name)
        return name

    def flag(self) -> str:
        # Flags are reassigned (loop bookkeeping), so never atomic.
        self.ntemp += 1
        return f"_g{self.ntemp}"

    def pyname(self, name: str) -> str:
        pname = self.names.get(name)
        if pname is None:
            pname = f"v{len(self.names)}_" + \
                re.sub(r"[^0-9a-zA-Z_]", "_", name)
            self.names[name] = pname
        return pname

    def const(self, value) -> str:
        name = f"_k{len(self.consts)}"
        self.consts.append((name, value))
        self._atomic.add(name)
        return name

    def literal_atom(self, value) -> str:
        if type(value) in _INLINE_LITERALS:
            atom = repr(value)
            self._atomic.add(atom)
            if value is not None:
                self._nonnull.add(atom)
            return atom
        return self.const(value)

    def null_guard(self, atom: str, detail) -> None:
        """Throw the walker's NullPointerException when ``atom`` is
        null; a non-null literal needs no guard (and ``'s' is None``
        would draw a SyntaxWarning from ``compile()``)."""
        if atom not in self._nonnull:
            self.guard(f"{atom} is None", "java.lang.NullPointerException",
                       repr(detail))

    def spill(self, atom: str) -> str:
        """Force a (pure) atom into a stable temp."""
        if atom in self._atomic:
            return atom
        t = self.temp()
        self.pure(f"{t} = {atom}")
        return t

    def reread(self, atom: str) -> str:
        """``atom`` for a guard and the access right after it: a local's
        name as it stands, since no line between assigns it; anything
        else spilled."""
        return atom if atom.isidentifier() else self.spill(atom)

    def seq(self, thunks) -> List[str]:
        """Evaluate operands left to right, retroactively spilling any
        earlier unstable atom once a later operand emits lines."""
        entries = []
        for thunk in thunks:
            atom = thunk()
            entries.append([len(self.lines), self.indent, atom])
        for entry in reversed(entries):
            mark, ind, atom = entry
            if len(self.lines) > mark and atom not in self._atomic:
                t = self.temp()
                self.lines.insert(mark, "    " * ind + f"{t} = {atom}")
                entry[2] = t
        return [entry[2] for entry in entries]

    def operands(self, *exprs) -> List[str]:
        return self.seq([lambda e=e: self.expr(e) for e in exprs])

    def subcompile(self, expr, indent_delta: int):
        """Compile ``expr`` into a detached buffer (for conditionally
        executed operands).  Returns (atom, lines)."""
        saved = self.lines, self._indent, self.pending
        self.lines, self.pending = [], {}
        self._indent += indent_delta
        try:
            atom = self.expr(expr)
            self.flush()
            return atom, self.lines
        finally:
            self.lines, self._indent, self.pending = saved

    def splice(self, lines: List[str]) -> None:
        self.lines.extend(lines)

    def suite(self, emit, pending=None) -> None:
        """Emit an indented suite, padding with ``pass`` if empty; it
        starts with the ``pending`` counts."""
        self.indent += 1
        self.pending.update(pending or {})
        mark = len(self.lines)
        try:
            emit()
            self.flush()
            if len(self.lines) == mark:
                self.put("pass")
        finally:
            self.indent -= 1

    def site(self, kind: str, payload) -> int:
        index = self.nsite
        self.nsite += 1
        self.sites.append((index, kind, payload))
        return index

    def count(self, counter: str) -> None:
        """One operation on ``counter`` (a registry child's name in the
        plan namespace, e.g. ``_FR``), into the method's local
        (``_fr``).  The count stays pending until the next line that
        may raise or branch (:meth:`put`) or the end of the suite, and
        a guard adds it on its way out, so a run of pure lines and
        guards pays one ``+=`` per counter."""
        self.counted.add(counter)
        self.pending[counter] = self.pending.get(counter, 0) + 1

    def tick(self) -> None:
        """The per-statement op count (identical observable points to
        the walker)."""
        self.count("_ST")

    # -- top level -------------------------------------------------------

    def generate(self):
        """``(source, consts, sites)`` of the method's plan.  The plan
        counts into Python locals, one per counter it uses, and adds
        them to the registry in one ``finally``, so the totals are
        exact whenever the method returns or throws."""
        for stmt in self.body.stmts:
            self.stmt(stmt)
        self.flush()
        counted = [c for c in _COUNTERS if c in self.counted]
        header = [
            f"# pycode: {method_label(self.method)}",
            "def _m(interp, v_this"
            + "".join(f", {p}" for p in self.formal_names) + "):",
        ]
        header += [f"    {counter.lower()} = 0" for counter in counted]
        header.append("    try:")
        body = self.lines or ["        pass"]
        unb = self.const(dict(self.unbound))
        footer = [
            "    except (UnboundLocalError, NameError) as _exc:",
            f"        _unb(_exc, {unb})",
        ]
        if counted:
            footer.append("    finally:")
            footer += [f"        {counter}.value += {counter.lower()}"
                       for counter in counted]
        source = "\n".join(header + body + footer) + "\n"
        return source, self.consts, self.sites

    # -- statements ------------------------------------------------------

    def block(self, block) -> None:
        bound = set(self._bound)
        for stmt in _stmts_of(block):
            self.stmt(stmt)
        self._bound = bound

    def stmt(self, stmt) -> None:
        handler = _STMT_HANDLERS.get(stmt.node_kind)
        if handler is None:
            raise CodegenError(f"statement {stmt.node_kind}")
        handler(self, stmt)

    def _stmt_lazy(self, stmt) -> None:
        # The walker counts a lazy statement twice per execution (the
        # wrapper and the forced statement); mirror that.
        if not stmt.is_forced():
            raise CodegenError("unforced lazy statement")
        obs_lazy.thunk_forcing(stmt)
        self.tick()
        self.stmt(stmt.force())

    def _stmt_empty(self, stmt) -> None:
        self.tick()

    def _stmt_block(self, stmt) -> None:
        self.tick()
        self.block(stmt.body)

    def _stmt_use(self, stmt) -> None:
        self.tick()
        self.block(stmt.body)

    def _stmt_expr(self, stmt) -> None:
        self.tick()
        self.effect(stmt.expr)

    def effect(self, expr) -> None:
        """Evaluate ``expr`` for its effects: a ``++``/``--`` of an int
        local whose value is unused updates it in place."""
        if expr.node_kind in ("unary_expr", "postfix_expr") and \
                expr.op in ("++", "--") and \
                _is_int_type(getattr(expr.operand, "_static_type", None)) \
                and expr.operand.node_kind == "name_expr":
            kind, payload, fields = self._resolve(expr.operand)
            if kind == "local" and not fields:
                local = self._local_read(payload.name)
                self.pure(f"{local} {expr.op[0]}= 1")
                return
        self._discard(self.expr(expr))

    def _stmt_local_var(self, stmt) -> None:
        self.tick()
        scope = stmt.scope
        declared = resolve_type_name(stmt.type_name, scope) \
            if scope is not None else None
        for ident, dims, init in stmt.bindings():
            var_type = array_of(declared, dims) if declared and dims \
                else declared
            pname = self.pyname(ident.name)
            if init is None:
                value = default_value(var_type) if var_type else None
                atom = self.literal_atom(value)
            elif isinstance(init, n.ArrayInitializer):
                if not isinstance(var_type, ArrayType):
                    raise CodegenError("array init on non-array")
                atom = self.array_init(init, var_type)
            else:
                atom = self.expr(init)
            self.pure(f"{pname} = {atom}")
            self._bound.add(pname)

    def _stmt_if(self, stmt) -> None:
        self.tick()
        cond = self.expr(stmt.cond)
        if stmt.else_stmt is None:
            self.put(f"if {cond}:")
            self.suite(lambda: self.stmt(stmt.then_stmt))
            return
        # Both branches add the counts so far with their own.
        carried = dict(self.pending)
        self.pending.clear()
        self.pure(f"if {cond}:")
        self.suite(lambda: self.stmt(stmt.then_stmt), carried)
        self.pure("else:")
        self.suite(lambda: self.stmt(stmt.else_stmt), carried)

    def _stmt_while(self, stmt) -> None:
        self.tick()
        cond, cond_lines = self.subcompile(stmt.cond, 1)
        if not cond_lines:
            self.put(f"while {cond}:")
            self.suite(lambda: self.stmt(stmt.body))
            return
        self.put("while True:")
        self.splice(cond_lines)
        self.indent += 1
        self.put(f"if not ({cond}): break")
        self.indent -= 1
        self.suite(lambda: self.stmt(stmt.body))

    def _stmt_do(self, stmt) -> None:
        self.tick()
        if _binds_continue(stmt.body):
            # ``continue`` must re-check the condition: route the
            # backedge through a first-iteration flag.
            flag = self.flag()
            cond, cond_lines = self.subcompile(stmt.cond, 2)
            self.put(f"{flag} = True")
            self.put("while True:")
            self.indent += 1
            self.put(f"if {flag}:")
            self.put(f"    {flag} = False")
            self.put("else:")
            self.splice(cond_lines)
            self.indent += 1
            self.put(f"if not ({cond}): break")
            self.indent -= 2
            self.suite(lambda: self.stmt(stmt.body))
            return
        cond, cond_lines = self.subcompile(stmt.cond, 1)
        self.put("while True:")
        self.suite(lambda: self.stmt(stmt.body))
        self.splice(cond_lines)
        self.indent += 1
        self.put(f"if not ({cond}): break")
        self.indent -= 1

    def _stmt_for(self, stmt) -> None:
        bound = set(self._bound)
        self._for(stmt)
        self._bound = bound

    def _for(self, stmt) -> None:
        self.tick()
        if isinstance(stmt.init, n.LocalVarDecl):
            self.stmt(stmt.init)
        elif isinstance(stmt.init, list):
            for init in stmt.init:
                self.effect(init)
        elif stmt.init is not None:
            raise CodegenError("for-init shape")
        has_cond = stmt.cond is not None
        if _binds_continue(stmt.body):
            # ``continue`` must run the updates, then the condition.
            flag = self.flag()
            self.put(f"{flag} = True")
            self.put("while True:")
            self.indent += 1
            self.put(f"if {flag}:")
            self.put(f"    {flag} = False")
            self.put("else:")
            self.indent += 1
            mark = len(self.lines)
            for update in stmt.update:
                self.effect(update)
            if len(self.lines) == mark:
                self.put("pass")
            self.indent -= 1
            if has_cond:
                cond = self.expr(stmt.cond)
                self.put(f"if not ({cond}): break")
            self.indent -= 1
            self.suite(lambda: self.stmt(stmt.body))
            return
        cond_atom = cond_lines = None
        if has_cond:
            cond_atom, cond_lines = self.subcompile(stmt.cond, 1)
        if has_cond and not cond_lines and not stmt.update:
            self.put(f"while {cond_atom}:")
            self.suite(lambda: self.stmt(stmt.body))
            return
        self.put("while True:")
        if has_cond:
            self.splice(cond_lines)
            self.indent += 1
            self.put(f"if not ({cond_atom}): break")
            self.indent -= 1
        self.suite(lambda: self.stmt(stmt.body))
        # Native ``break`` exits the loop entirely, skipping these —
        # exactly the walker's "break skips the updates".
        self.indent += 1
        for update in stmt.update:
            self.effect(update)
        self.indent -= 1

    def _discard(self, atom: str) -> None:
        """Evaluate-and-discard an expression-statement atom (temps and
        constants have no effects left to run)."""
        if atom not in self._atomic:
            self.put(atom)

    def _stmt_return(self, stmt) -> None:
        self.tick()
        if stmt.expr is None:
            self.put("return None")
            return
        atom = self.expr(stmt.expr)
        self.put(f"return {atom}")

    def _stmt_throw(self, stmt) -> None:
        self.tick()
        atom = self.expr(stmt.expr)
        self.put(f"raise _JT({atom})")

    def _stmt_break(self, stmt) -> None:
        self.tick()
        self.put("break")

    def _stmt_continue(self, stmt) -> None:
        self.tick()
        self.put("continue")

    def _stmt_try(self, stmt) -> None:
        self.tick()
        clauses = []
        for clause in stmt.catches:
            caught = getattr(clause, "caught_type", None)
            if caught is None:
                formal_scope = clause.formal.scope
                if formal_scope is None:
                    raise CodegenError("unchecked catch clause")
                caught = resolve_type_name(clause.formal.type_name,
                                           formal_scope)
            pname = self.pyname(clause.formal.name.name)
            kc = self.const(caught)
            clauses.append((kc, pname, clause.body))
        self.put("try:")
        self.suite(lambda: self.block(stmt.body))
        if clauses:
            exc = self.temp()
            val = self.temp()
            self.put(f"except _JT as {exc}:")
            self.indent += 1
            self.put(f"{val} = {exc}.value")
            branch = "if"
            for kc, pname, body in clauses:
                self.put(f"{branch} {val}.class_type"
                         f".is_subtype_of({kc}):")
                self.indent += 1
                self.put(f"{pname} = {val}")
                self.indent -= 1
                self._bound.add(pname)
                self.suite(lambda b=body: self.block(b))
                self._bound.discard(pname)
                branch = "elif"
            self.put("else:")
            self.put("    raise")
            self.indent -= 1
        if stmt.finally_body is not None:
            # Native semantics match the walker: a return/break/
            # continue inside finally swallows any in-flight exception
            # and overrides the pending signal.
            self.put("finally:")
            self.suite(lambda: self.block(stmt.finally_body))

    # -- array initializers ---------------------------------------------

    def array_init(self, init, array_type: ArrayType) -> str:
        element = array_type.element
        self.count("_AL")  # walker: allocation counted first
        thunks = []
        for item in init.elements:
            if isinstance(item, n.ArrayInitializer):
                if not isinstance(element, ArrayType):
                    raise CodegenError("nested array init shape")
                thunks.append(
                    lambda item=item: self.array_init(item, element))
            else:
                thunks.append(lambda item=item: self.expr(item))
        parts = self.seq(thunks)
        ke = self.const(element)
        t = self.temp()
        self.put(f"{t} = _JA({ke}, [{', '.join(parts)}])")
        return t

    # -- expressions -----------------------------------------------------

    def expr(self, expr) -> str:
        handler = _EXPR_HANDLERS.get(expr.node_kind)
        if handler is None:
            raise CodegenError(f"expression {expr.node_kind}")
        return handler(self, expr)

    def _expr_literal(self, expr) -> str:
        return self.literal_atom(expr.value)

    def _local_read(self, name: str) -> str:
        pname = self.pyname(name)
        self.unbound.setdefault(pname, f"unbound local {name}")
        if pname not in self._bound:
            # The read may raise "unbound": count what came before it.
            self.flush()
        return pname

    def _expr_name(self, expr) -> str:
        kind, payload, fields = self._resolve(expr)
        if kind == "local":
            base = self._local_read(payload.name)
        elif kind == "this_field":
            base = self.field_read("v_this", fields[0])
            fields = fields[1:]
        elif kind == "static":
            kp = self.const(payload)
            kf = self.const(fields[0])
            t = self.temp()
            self.put(f"{t} = interp._read_static({kp}, {kf})")
            base = t
            fields = fields[1:]
        else:
            raise CodegenError(f"{expr} is a class, not a value")
        for field in fields:
            base = self.field_read(base, field)
        return base

    def _resolve(self, expr):
        try:
            return resolve_name(expr, expr.scope)
        except Exception as error:
            raise CodegenError(str(error)) from None

    def field_read(self, base: str, field) -> str:
        """A checked field read (the array-length sentinel, a static
        read, or an instance read with the walker's null check)."""
        if field is None:  # the checker's array-length sentinel
            t = self.temp()
            self.put(f"{t} = len({base})")
            return t
        if field.is_static:
            kf = self.const(field)
            t = self.temp()
            self.put(f"{t} = interp._read_field({base}, {kf})")
            return t
        b = self.reread(base)
        fname = field.name
        t = self.temp()
        self.count("_FR")
        self.null_guard(b, fname)
        self.pure("try:")
        self.pure(f"    {t} = {b}.fields[{fname!r}]")
        self.pure("except KeyError:")
        self.pure(f"    {t} = {b}.fields[{fname!r}] = "
                  f"{self.literal_atom(default_value(field.type))}")
        return t

    def _expr_reference(self, expr) -> str:
        binding = expr.binding
        name = getattr(binding, "name", binding)
        if isinstance(name, n.Ident):
            name = name.name
        if not isinstance(name, str):
            raise CodegenError("reference binding shape")
        pname = self.pyname(name)
        t = self.temp()
        self.put("try:")
        self.put(f"    {t} = {pname}")
        self.put("except (UnboundLocalError, NameError):")
        message = f"unbound reference {name}"
        self.put(f"    raise _ME({message!r}) from None")
        return t

    def _expr_this(self, expr) -> str:
        return "v_this"

    def _expr_paren(self, expr) -> str:
        return self.expr(expr.inner)

    def _expr_field_access(self, expr) -> str:
        field = getattr(expr, "field", _MISSING)
        if field is _MISSING:
            # The checker stamps every access it checks.
            raise CodegenError("unchecked field access")
        name = expr.name
        if isinstance(expr.receiver, n.SuperExpr):
            recv = "v_this"
        else:
            recv = self.expr(expr.receiver)
        if field is None:  # array length, statically known
            r = self.spill(recv)
            t = self.temp()
            self.put(f"{t} = len({r}) if isinstance({r}, _JA) else "
                     f"interp._read_field({r}, "
                     f"interp._class_of_value({r}).find_field({name!r}))")
            return t
        if name == "length" or field.is_static:
            kf = self.const(field)
            r = self.spill(recv)
            t = self.temp()
            if name == "length":
                self.put(f"{t} = len({r}) if isinstance({r}, _JA) "
                         f"else interp._read_field({r}, {kf})")
            else:
                self.put(f"{t} = interp._read_field({r}, {kf})")
            return t
        return self.field_read(recv, field)

    def _expr_array_access(self, expr) -> str:
        arr, idx = self.operands(expr.array, expr.index)
        a = self.spill(arr)
        i = self.spill(idx)
        t = self.temp()
        self.count("_AR")
        self.null_guard(a, None)
        self.pure(f"{t} = {a}.values")
        self.put(f"if {i} < 0 or {i} >= len({t}): raise interp.throw("
                 f"'java.lang.ArrayIndexOutOfBoundsException', str({i}))")
        t2 = self.temp()
        self.put(f"{t2} = {t}[{i}]")
        return t2

    # -- invocations -----------------------------------------------------

    def _target_of(self, expr):
        if not hasattr(expr, "target"):
            try:
                static_type_of(expr)
            except Exception as error:
                raise CodegenError(str(error)) from None
        return expr.target

    def _expr_invocation(self, expr) -> str:
        kind, payload, method = self._target_of(expr)
        if kind == "instance":
            if method.is_static:
                # Instance-qualified static call: no dispatch.
                return self._static_call(method, expr.args,
                                         recv_expr=payload,
                                         null_check=True)
            return self._virtual_call(method, expr.args,
                                      recv_expr=payload, null_check=True)
        if kind == "this":
            if method.is_static:
                return self._static_call(method, expr.args,
                                         recv_atom="v_this")
            return self._virtual_call(method, expr.args,
                                      recv_atom="v_this",
                                      null_check=False)
        if kind == "static":
            return self._static_call(method, expr.args, recv_atom="None")
        if kind == "super":
            return self._static_call(method, expr.args,
                                     recv_atom="v_this")
        # ctor_call (<this>/<super>) only occurs in constructor bodies,
        # which always run on the walker.
        raise CodegenError(f"invocation target {kind}")

    def _call_operands(self, args, recv_expr, recv_atom):
        """Evaluate args then receiver (the walker's order), returning
        (arg atoms, receiver atom)."""
        thunks = [lambda a=a: self.expr(a) for a in args]
        if recv_expr is not None:
            thunks.append(lambda: self.expr(recv_expr))
            atoms = self.seq(thunks)
            return atoms[:-1], self.spill(atoms[-1])
        atoms = self.seq(thunks)
        return atoms, recv_atom

    def _emit_direct_call(self, out, f_cell, m_cell, recv, arg_atoms):
        """The caller-side depth guard + direct call (one depth
        increment, like ``invoke_exact``)."""
        d = self.temp()
        self.put(f"{d} = interp._call_depth")
        self.put(f"if {d} >= interp.max_call_depth: "
                 f"_ovf(interp, {m_cell})")
        self.put(f"interp._call_depth = {d} + 1")
        self.put("try:")
        call_args = ", ".join(["interp", recv] + list(arg_atoms))
        self.put(f"    {out} = {f_cell}({call_args})")
        self.put("finally:")
        self.put(f"    interp._call_depth = {d}")

    def _virtual_call(self, method, args, recv_expr=None, recv_atom=None,
                      null_check=True) -> str:
        arg_atoms, recv = self._call_operands(args, recv_expr, recv_atom)
        index = self.site("call", method)
        mname = method.name
        r = self.spill(recv)
        t = self.temp()
        tup = ", ".join(arg_atoms) + ("," if len(arg_atoms) == 1 else "")
        if null_check:
            self.null_guard(r, mname)
            self.count("_MC")
        else:
            # A this-call may legally see a None receiver (static
            # contexts): the walker skips dispatch and calls exactly.
            km = self.const(method)
            self.put(f"if {r} is None:")
            self.indent += 1
            self.count("_MC")
            self.put(f"{t} = interp.invoke_exact({km}, {r}, "
                     f"[{', '.join(arg_atoms)}])")
            self.indent -= 1
            self.put("else:")
            self.indent += 1
            self.count("_MC")
        k = self.temp()
        self.put(f"{k} = {r}.class_type if type({r}) is _JO "
                 f"else interp._class_of_value({r})")
        self.put(f"if {k} is _s{index}_k:")
        self.indent += 1
        self._emit_direct_call(t, f"_s{index}_f", f"_s{index}_m",
                               r, arg_atoms)
        self.indent -= 1
        self.put("else:")
        self.put(f"    {t} = _s{index}_d(interp, {r}, {k}, ({tup}))")
        if not null_check:
            self.indent -= 1
        return t

    def _static_call(self, method, args, recv_expr=None, recv_atom=None,
                     null_check=False) -> str:
        arg_atoms, recv = self._call_operands(args, recv_expr, recv_atom)
        index = self.site("scall", method)
        if null_check:
            r = self.spill(recv)
            self.null_guard(r, method.name)
            recv = r
        self.count("_MC")
        t = self.temp()
        tup = ", ".join(arg_atoms) + ("," if len(arg_atoms) == 1 else "")
        self.put(f"if _s{index}_f is not None:")
        self.indent += 1
        self._emit_direct_call(t, f"_s{index}_f", f"_s{index}_m",
                               recv, arg_atoms)
        self.indent -= 1
        self.put("else:")
        self.put(f"    {t} = _s{index}_g(interp, {recv}, ({tup}))")
        return t

    def _expr_new_object(self, expr) -> str:
        _, klass, ctor = self._target_of(expr)
        arg_atoms = self.seq(
            [lambda a=a: self.expr(a) for a in expr.args])
        kk = self.const(klass)
        kc = self.const(ctor)
        t = self.temp()
        self.put(f"{t} = interp.construct({kk}, {kc}, "
                 f"[{', '.join(arg_atoms)}])")
        return t

    def _expr_new_array(self, expr) -> str:
        if expr.scope is None:
            raise CodegenError("unscoped new array")
        element = resolve_type_name(expr.element_type, expr.scope)
        if expr.initializer is not None:
            total_dims = max(len(expr.dim_exprs) + expr.extra_dims, 1)
            return self.array_init(expr.initializer,
                                   array_of(element, total_dims))
        dim_atoms = self.seq(
            [lambda d=d: self.expr(d) for d in expr.dim_exprs])
        ke = self.const(element)
        t = self.temp()
        self.put(f"{t} = interp._allocate({ke}, "
                 f"[{', '.join(dim_atoms)}], {expr.extra_dims})")
        return t

    # -- operators -------------------------------------------------------

    def _expr_unary(self, expr) -> str:
        op = expr.op
        if op in ("++", "--"):
            return self._compile_incr(expr.operand, op, prefix=True)
        operand = self.expr(expr.operand)
        stype = getattr(expr.operand, "_static_type", None)
        numeric = _is_numeric_type(stype)
        if op == "!":
            return f"(not {operand})"
        if op == "-":
            if numeric:
                return f"(-{operand})"
            t = self.temp()
            self.put(f"{t} = -_num({operand})")
            return t
        if op == "+":
            if numeric:
                return operand
            t = self.temp()
            self.put(f"{t} = _num({operand})")
            return t
        if op == "~":
            if numeric:
                return f"(~{operand})"
            t = self.temp()
            self.put(f"{t} = ~_num({operand})")
            return t
        raise CodegenError(f"unary {op}")

    def _expr_postfix(self, expr) -> str:
        return self._compile_incr(expr.operand, expr.op, prefix=False)

    def _compile_incr(self, lvalue, op, prefix: bool) -> str:
        store = self.store(lvalue)
        delta = "+ 1" if op == "++" else "- 1"
        stype = getattr(lvalue, "_static_type", None)
        old = self.spill(self.expr(lvalue))
        if not _is_numeric_type(stype):
            t = self.temp()
            self.put(f"{t} = _num({old})")
            old = t
        new = self.temp()
        if _is_int_type(stype):
            self.pure(f"{new} = {old} {delta}")
        else:
            self.put(f"{new} = {old} {delta}")
        store(new)
        return new if prefix else old

    def _expr_binary(self, expr) -> str:
        op = expr.op
        lt = getattr(expr.left, "_static_type", None)
        rt = getattr(expr.right, "_static_type", None)
        both_numeric = _is_numeric_type(lt) and _is_numeric_type(rt)
        both_boolean = lt is BOOLEAN and rt is BOOLEAN

        # Literal folding: int-literal operands with direct semantics.
        if isinstance(expr.left, n.Literal) and \
                isinstance(expr.right, n.Literal) and \
                expr.left.kind in ("int", "long") and \
                expr.right.kind in ("int", "long"):
            folded = _FOLDABLE.get(op)
            if folded is not None:
                return self.literal_atom(
                    folded(expr.left.value, expr.right.value))

        if op in ("&&", "||"):
            return self._short_circuit(expr, op, both_boolean)

        left, right = self.operands(expr.left, expr.right)

        if op == "+":
            stype = getattr(expr, "_static_type", None)
            if _is_string_type(stype):
                return self._concat(left, right)
            if stype is None:
                return self._generic_op(op, left, right)
            if not both_numeric:
                t = self.temp()
                self.put(f"{t} = _num({left}) + _num({right})")
                return t

        if op in ("==", "!="):
            if both_numeric:
                return f"({left} {op} {right})"
            t = self.temp()
            invert = "" if op == "==" else "not "
            self.put(f"{t} = {invert}_jeq({left}, {right})")
            return t

        if both_boolean and op in ("&", "|", "^"):
            if op == "&":
                return f"({left} and {right})"
            if op == "|":
                return f"({left} or {right})"
            return f"({left} != {right})"

        typed = self.typed_op(op, lt, rt, left, right, expr.right)
        if typed is not None:
            return typed
        return self._generic_op(op, left, right)

    def typed_op(self, op, lt, rt, left, right, right_expr):
        """``left op right`` inline, when the operands' static types fix
        what ``_binary_op`` would compute; None when they do not.

        Binary expressions and compound assignments share this one
        emitter, so a future JLS wrap of ``int``/``long`` results goes
        here.  Floating ``/`` and ``%`` stay generic: a ``double`` local
        may still hold a Python int (no widening on assignment yet), and
        ``_binary_op`` picks integer or floating division at run time.

        An inline atom is evaluated by a later line that may not flush
        the pending counts, so an atom that can raise (a shift by a
        negative count, float arithmetic on an int too large for a
        float) flushes them here, before the operations that follow it.
        """
        ints = _is_int_type(lt) and _is_int_type(rt)
        if _is_numeric_type(lt) and _is_numeric_type(rt) and \
                op in ("+", "-", "*", "<", ">", "<=", ">="):
            if not ints and op in ("+", "-", "*"):
                self.flush()
            return f"({left} {op} {right})"
        if not ints:
            return None
        if op in ("/", "%"):
            return self._int_divide(op, left, right, right_expr)
        if op in ("&", "|", "^"):
            return f"({left} {op} {right})"
        self.flush()
        if op == ">>":
            return f"({left} {op} {right})"
        if op == "<<":
            return f"_i32({left} << {right})"
        if op == ">>>":
            return f"(({left} & 0xFFFFFFFF) >> {right})"
        return None

    def _int_divide(self, op, left, right, right_expr) -> str:
        """Java's truncating integer ``/`` or ``%``.  A nonzero int
        literal divisor ``d`` (or ``-d``) needs no zero check, and its
        remainder is Python's ``%`` by ``|d|`` moved to the dividend's
        sign."""
        a = self.reread(left)
        t = self.temp()
        divisor = _int_literal(right_expr)
        if divisor:
            m = abs(divisor)
            if op == "%":
                self.pure(f"{t} = {a} % {m}")
                self.pure(f"if {t} and {a} < 0: {t} -= {m}")
                return t
            self.pure(f"{t} = abs({a}) // {m}")
            negate = f"{a} < 0" if divisor > 0 else f"{a} >= 0"
            self.pure(f"if {negate}: {t} = -{t}")
            return t
        b = self.spill(right)
        self.put(f"if {b} == 0: raise interp.throw("
                 f"'java.lang.ArithmeticException', '{op} by zero')")
        self.put(f"{t} = abs({a}) // abs({b})")
        self.put(f"if ({a} >= 0) != ({b} >= 0): {t} = -{t}")
        if op == "/":
            return t
        t2 = self.temp()
        self.put(f"{t2} = {a} - {t} * {b}")
        return t2

    def _concat(self, left, right) -> str:
        t = self.temp()
        self.put(f"{t} = _jstr({left}) + _jstr({right})")
        return t

    def _generic_op(self, op, left, right) -> str:
        t = self.temp()
        self.put(f"{t} = _bop(interp, {op!r}, {left}, {right})")
        return t

    def _short_circuit(self, expr, op, both_boolean) -> str:
        left = self.expr(expr.left)
        right, right_lines = self.subcompile(expr.right, 1)
        if not right_lines:
            if both_boolean:
                word = "and" if op == "&&" else "or"
                return f"({left} {word} {right})"
            word = "and" if op == "&&" else "or"
            return f"(bool({left}) {word} bool({right}))"
        t = self.temp()
        if both_boolean:
            self.put(f"{t} = {left}")
            self.put(f"if {t}:" if op == "&&" else f"if not {t}:")
        else:
            self.put(f"{t} = bool({left})")
            self.put(f"if {t}:" if op == "&&" else f"if not {t}:")
        self.splice(right_lines)
        self.indent += 1
        if both_boolean:
            self.put(f"{t} = {right}")
        else:
            self.put(f"{t} = bool({right})")
        self.indent -= 1
        return t

    def _expr_instanceof(self, expr) -> str:
        if expr.scope is None:
            raise CodegenError("unscoped instanceof")
        target = resolve_type_name(expr.type_name, expr.scope)
        value = self.expr(expr.expr)
        index = self.site("instanceof", target)
        t = self.temp()
        self.put(f"{t} = _s{index}(interp, {value})")
        return t

    def _expr_cast(self, expr) -> str:
        if expr.scope is None:
            raise CodegenError("unscoped cast")
        target = resolve_type_name(expr.type_name, expr.scope)
        value = self.expr(expr.expr)
        if isinstance(target, PrimitiveType):
            kt = self.const(target)
            t = self.temp()
            self.put(f"{t} = _pcast({value}, {kt})")
            return t
        index = self.site("cast", target)
        t = self.temp()
        self.put(f"{t} = _s{index}(interp, {value})")
        return t

    def _expr_assignment(self, expr) -> str:
        store = self.store(expr.lhs)
        if expr.op == "=":
            value = self.spill(self.expr(expr.value))
            store(value)
            return value
        op = expr.op[:-1]
        # Compound assignment reads the lhs once, combines, then stores
        # (re-evaluating the receiver), like the walker.  The combine is
        # the typed emitter's when both static types are numeric (not
        # char: ``int += char`` concatenates in both tiers today), a
        # concatenation for a String lhs, else the generic operator.
        # The JLS narrowing of the result (15.26.2) is not applied yet.
        current, value = self.seq([
            lambda: self.expr(expr.lhs),
            lambda: self.expr(expr.value),
        ])
        lt = getattr(expr.lhs, "_static_type", None)
        rt = getattr(expr.value, "_static_type", None)
        if op == "+" and _is_string_type(lt):
            t = self._concat(current, value)
        else:
            typed = self.typed_op(op, lt, rt, current, value, expr.value)
            t = self.spill(typed) if typed is not None \
                else self._generic_op(op, current, value)
        store(t)
        return t

    def _expr_conditional(self, expr) -> str:
        cond = self.expr(expr.cond)
        then_atom, then_lines = self.subcompile(expr.then_expr, 1)
        else_atom, else_lines = self.subcompile(expr.else_expr, 1)
        if not then_lines and not else_lines:
            return f"(({then_atom}) if ({cond}) else ({else_atom}))"
        t = self.temp()
        self.put(f"if {cond}:")
        self.splice(then_lines)
        self.indent += 1
        self.put(f"{t} = {then_atom}")
        self.indent -= 1
        self.put("else:")
        self.splice(else_lines)
        self.indent += 1
        self.put(f"{t} = {else_atom}")
        self.indent -= 1
        return t

    # -- lvalue stores ---------------------------------------------------

    def store(self, lhs):
        """Compile an lvalue into ``emit(value_atom)`` — called *after*
        the value is evaluated, so receiver evaluation order matches
        the walker's store closures."""
        if isinstance(lhs, n.ParenExpr):
            return self.store(lhs.inner)
        if isinstance(lhs, n.NameExpr):
            return self._store_name(lhs)
        if isinstance(lhs, n.FieldAccess):
            return self._store_field_access(lhs)
        if isinstance(lhs, n.ArrayAccess):
            return self._store_array_access(lhs)
        if isinstance(lhs, n.Reference):
            binding = lhs.binding
            name = getattr(binding, "name", binding)
            if isinstance(name, n.Ident):
                name = name.name
            if not isinstance(name, str):
                raise CodegenError("reference binding shape")
            pname = self.pyname(name)
            return lambda value: self.pure(f"{pname} = {value}")
        raise CodegenError(f"assignment target {type(lhs).__name__}")

    def _store_name(self, lhs):
        kind, payload, fields = self._resolve(lhs)
        if kind == "local" and not fields:
            pname = self.pyname(payload.name)
            return lambda value: self.pure(f"{pname} = {value}")
        if kind == "local":
            pname = self.pyname(payload.name)
            name = payload.name
            mids, last = fields[:-1], fields[-1]

            def emit(value):
                if pname in self._bound:
                    self._store_chain(pname, mids, last, value)
                    return
                t = self.temp()
                self.put("try:")
                self.put(f"    {t} = {pname}")
                self.put("except (UnboundLocalError, NameError):")
                self.put(f"    raise KeyError({name!r}) from None")
                self._store_chain(t, mids, last, value)
            return emit
        if kind == "this_field":
            mids, last = fields[:-1], fields[-1]
            return lambda value: self._store_chain("v_this", mids, last,
                                                   value)
        if kind == "static":
            if len(fields) == 1:
                field = fields[0]
                key = (field.declaring_class.name, field.name)

                def emit(value):
                    self.count("_FW")
                    self.put(f"interp.statics[{key!r}] = {value}")
                return emit
            first, mids, last = fields[0], fields[1:-1], fields[-1]
            kp = self.const(payload)
            kf = self.const(first)

            def emit(value):
                t = self.temp()
                self.put(f"{t} = interp._read_static({kp}, {kf})")
                self._store_chain(t, mids, last, value)
            return emit
        raise CodegenError(f"cannot assign to {lhs}")

    def _store_chain(self, target: str, mids, last, value: str) -> None:
        for field in mids:
            target = self.field_read(target, field)
        self.field_write(target, last, value)

    def field_write(self, target: str, field, value: str) -> None:
        """A checked field store: static through the interpreter, an
        instance field inline with the walker's count and null check."""
        if field.is_static:
            kf = self.const(field)
            self.put(f"interp._write_field({target}, {kf}, {value})")
            return
        r = self.reread(target)
        self.count("_FW")
        self.null_guard(r, field.name)
        self.pure(f"{r}.fields[{field.name!r}] = {value}")

    def _store_field_access(self, lhs):
        field = getattr(lhs, "field", None)
        if field is None:
            raise CodegenError("unchecked field store")
        return lambda value: self.field_write(self.expr(lhs.receiver),
                                              field, value)

    def _store_array_access(self, lhs):
        def emit(value):
            arr, idx = self.operands(lhs.array, lhs.index)
            a = self.spill(arr)
            i = self.spill(idx)
            self.count("_AW")
            self.null_guard(a, None)
            t = self.temp()
            self.put(f"{t} = {a}.values")
            self.put(f"if {i} < 0 or {i} >= len({t}): "
                     f"raise interp.throw("
                     f"'java.lang.ArrayIndexOutOfBoundsException', str({i}))")
            self.put(f"{t}[{i}] = {value}")
        return emit


_STMT_HANDLERS = {
    "lazy_node": _MethodGen._stmt_lazy,
    "empty_stmt": _MethodGen._stmt_empty,
    "block": _MethodGen._stmt_block,
    "use_stmt": _MethodGen._stmt_use,
    "expr_stmt": _MethodGen._stmt_expr,
    "local_var_decl": _MethodGen._stmt_local_var,
    "if_stmt": _MethodGen._stmt_if,
    "while_stmt": _MethodGen._stmt_while,
    "do_stmt": _MethodGen._stmt_do,
    "for_stmt": _MethodGen._stmt_for,
    "return_stmt": _MethodGen._stmt_return,
    "throw_stmt": _MethodGen._stmt_throw,
    "break_stmt": _MethodGen._stmt_break,
    "continue_stmt": _MethodGen._stmt_continue,
    "try_stmt": _MethodGen._stmt_try,
}

_EXPR_HANDLERS = {
    "literal": _MethodGen._expr_literal,
    "name_expr": _MethodGen._expr_name,
    "reference": _MethodGen._expr_reference,
    "this_expr": _MethodGen._expr_this,
    "paren_expr": _MethodGen._expr_paren,
    "field_access": _MethodGen._expr_field_access,
    "array_access": _MethodGen._expr_array_access,
    "method_invocation": _MethodGen._expr_invocation,
    "new_object": _MethodGen._expr_new_object,
    "new_array": _MethodGen._expr_new_array,
    "unary_expr": _MethodGen._expr_unary,
    "postfix_expr": _MethodGen._expr_postfix,
    "binary_expr": _MethodGen._expr_binary,
    "instanceof_expr": _MethodGen._expr_instanceof,
    "cast_expr": _MethodGen._expr_cast,
    "assignment": _MethodGen._expr_assignment,
    "conditional_expr": _MethodGen._expr_conditional,
}
