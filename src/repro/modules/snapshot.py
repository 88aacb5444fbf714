"""Deep module artifacts: pickled snapshots of *checked* ASTs.

After a module compiles, :func:`snapshot_unit` takes a **stripped
copy** of its checked compilation unit — every node rebuilt through
its own constructor from ``_fields`` + location, with all
checker/parser annotations (scopes, resolutions, static types, member
links) dropped — and pickles it.  A warm runnable hit restores it via
:func:`load_unit` and re-runs only the cheap shaping walk over an
already-parsed tree, skipping lexing, declaration parsing, and lazy
body parsing entirely (see EXPERIMENTS E17).

**Bodies stay in their blobs until called** (format 3).  Each method
body is pickled on its own, and the unit pickle carries those blobs
where the bodies were: the skeleton (classes, fields, constructors,
signatures) is all a load decodes.  :func:`load_unit` turns each blob
into a :class:`~repro.ast.nodes.RestoredBody` thunk; the compiler
checks fields and constructors at once but gives each thunk only the
method scope it will be checked in, and the program's first call
decodes and checks it (:func:`load_body`).  This is the paper's §4
laziness applied to artifacts: a warm build pays nothing for a method
nothing calls.  Printing a restored unit decodes bodies without
checking them; a stripped body prints exactly as the checked one did.

Two node families can't round-trip through a plain field copy and are
rewritten to their *unparse-equivalent* plain forms — exactly what the
module's expanded source text re-parses to:

* ``Reference`` (a direct binding reference from hygiene machinery)
  becomes a ``NameExpr`` of the binding's name — the unparser prints
  ``binding.name``.
* ``StrictTypeName`` (a template's resolved type) becomes a plain
  ``TypeName`` of its qualified ``syntax_parts()``.

With ``provenance`` on (format 4), each generated statement keeps
its origin's ``brief()`` text, so a warm program prints the
annotations a clean one does; other snapshots carry no origins.

Anything else surprising — an unforced ``LazyNode``, an unknown leaf
object, a constructor that refuses the copied fields — makes
:func:`snapshot_unit` **decline** (return None) rather than persist a
blob it can't vouch for.  On the load side the cache entry's checksum
(:mod:`repro.store`) vouches for the blob's bytes; a skeleton that
still fails to unpickle into a unit raises :class:`SnapshotError`.
Either way the module builder quarantines the entry and recompiles the
module from its source.  A body blob that fails later, at its first
call, stops the program with a located diagnostic, and its entry is
quarantined the same way.
"""

from __future__ import annotations

import io
import pickle
from typing import Optional

from repro import trace
from repro.ast import nodes as n
from repro.diag import DiagnosticError
from repro.lexer import Location

#: Bump when the snapshot's structural conventions change; baked into
#: the pickle header so stale blobs fail closed as a format mismatch,
#: and folded into every module cache key so a bump re-keys the cache
#: rather than leaving each old entry to fail its next warm hit.
#: Format 2: raw ``pickle.dumps`` output, three-field ``Location``.
#: Format 3: each method body is its own blob inside the unit pickle.
#: Format 4: generated statements may carry a ``trace.Origin``.
SNAPSHOT_FORMAT = 4

_PRIMITIVE = (str, int, float, bool, type(None))

#: Classes allowed to unpickle.  A module-cache blob is local build
#: state, but keeping the set closed (AST nodes + locations + builtin
#: containers, and ``trace.Origin``) costs nothing and keeps a tampered entry from
#: instantiating arbitrary classes.
_ALLOWED_MODULES = ("repro.ast.nodes", "repro.lexer",
                    "repro.lexer.source", "repro.lexer.tokens")


class SnapshotError(DiagnosticError):
    """A deep artifact that could not be restored (corrupt/stale)."""

    phase = "restore"


class _Unsnappable(Exception):
    """Internal: this tree contains state a stripped copy can't carry."""


def _strip(value, provenance: bool):
    """A stripped copy of ``value``: nodes rebuilt from ``_fields``,
    generated statements noting their origin if ``provenance``."""
    if isinstance(value, _PRIMITIVE):
        return value
    if isinstance(value, list):
        return [_strip(item, provenance) for item in value]
    if isinstance(value, tuple):
        return tuple(_strip(item, provenance) for item in value)
    if isinstance(value, n.LazyNode):
        # Checked trees splice forced lazies in place; one that survived
        # means this unit isn't fully materialized — decline.
        raise _Unsnappable("unforced lazy node in checked tree")
    if isinstance(value, n.Reference):
        return n.NameExpr((str(value.binding.name),),
                          location=value.location)
    if isinstance(value, n.StrictTypeName):
        base, dims = value.type.syntax_parts()
        return n.TypeName(tuple(base), dims + value.dims,
                          location=value.location)
    if isinstance(value, n.Node):
        cls = type(value)
        fields = [_strip(getattr(value, name), provenance)
                  for name in cls._fields]
        try:
            clone = cls(*fields, location=value.location)
        except TypeError as error:
            raise _Unsnappable(f"{cls.__name__}: {error}")
        if provenance and value.origin is not None \
                and isinstance(value, n.Statement):
            # An origin named by its brief text prints just that text.
            clone.origin = trace.Origin(value.origin.brief(), None, None)
        return clone
    if isinstance(value, Location):
        return value
    raise _Unsnappable(f"unsupported leaf {type(value).__name__}")


def _methods(unit: "n.CompilationUnit"):
    """The unit's method declarations: members of its type
    declarations (there are no nested classes)."""
    for decl in unit.types:
        for member in getattr(decl, "members", ()):
            if isinstance(member, n.MethodDecl):
                yield member


def snapshot_unit(unit: "n.CompilationUnit",
                  provenance: bool = False) -> Optional[bytes]:
    """Pickle a stripped copy of a checked unit, or None to decline.

    Each method body is pickled on its own, and the unit pickle holds
    those blobs in place of the bodies, so a load decodes a body only
    when something asks for it.  ``provenance`` keeps generated
    statements' origins as text."""
    try:
        clone = _strip(unit, provenance)
    except _Unsnappable:
        return None
    try:
        for member in _methods(clone):
            if member.body is not None:
                member.body = pickle.dumps(member.body, protocol=4)
        # The raw dump is already a deterministic function of the
        # tree (its shape and which objects it shares), so identical
        # builds give identical blobs: the jobs=1 vs jobs=N property
        # test compares entry files.  ``pickletools.optimize`` would
        # only drop unused PUT opcodes, canonicalising nothing, at
        # about twelve times the cost of the dump.
        return pickle.dumps((SNAPSHOT_FORMAT, clone), protocol=4)
    except Exception:
        # A field slipped through carrying unpicklable state.
        return None


class _NodeUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if module.split(".")[0] == "builtins" \
                or module in _ALLOWED_MODULES \
                or (module, name) == ("repro.trace", "Origin"):
            return super().find_class(module, name)
        raise SnapshotError(f"snapshot references {module}.{name}")


def _unpickle(blob: bytes, what: str):
    try:
        return _NodeUnpickler(io.BytesIO(blob)).load()
    except SnapshotError:
        raise
    except Exception as error:
        raise SnapshotError(f"undecodable {what}: {error}")


def load_unit(blob: bytes) -> "n.CompilationUnit":
    """Unpickle a deep artifact; raise :class:`SnapshotError` if it is
    corrupt, stale, or not shaped like a compilation unit.

    Method bodies stay in their blobs: each becomes a
    :class:`~repro.ast.nodes.RestoredBody` that :func:`load_body`
    decodes on first use."""
    try:
        fmt, unit = _unpickle(blob, "snapshot")
    except (TypeError, ValueError):
        raise SnapshotError("snapshot is not a (format, unit) pair")
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"snapshot format {fmt!r}, "
                            f"want {SNAPSHOT_FORMAT}")
    if not isinstance(unit, n.CompilationUnit):
        raise SnapshotError("snapshot payload is not a compilation unit")
    try:
        for member in _methods(unit):
            if member.body is None:
                continue
            if not isinstance(member.body, bytes):
                raise SnapshotError("method body is not a blob")
            member.body = n.RestoredBody(member.body, load_body,
                                         location=member.location)
    except (AttributeError, TypeError):
        raise SnapshotError("snapshot unit is not shaped like a unit")
    return unit


def load_body(blob: bytes) -> "n.BlockStmts":
    """Unpickle one method body blob; raise :class:`SnapshotError` if
    it is corrupt or not a statement block."""
    body = _unpickle(blob, "method body")
    if not isinstance(body, n.BlockStmts):
        raise SnapshotError("method body blob is not a statement block")
    return body
