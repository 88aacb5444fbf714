"""Unparser: AST back to Java-subset source text.

Used by tests and examples to display expansions the way the paper's
listings do.  Lazy nodes are forced if they already have a parse
environment; otherwise they print as their raw token text.

``provenance=True`` annotates generated *statements* with their origin
(``/* from <Mayan> @ <use-site> */``), so expanded output shows which
rewrite produced each line (``mayac --expand --provenance``).
"""

from __future__ import annotations

from typing import List

from repro.ast import nodes as n

_INDENT = "    "


def to_source(node, indent: int = 0, provenance: bool = False) -> str:
    """Render a node (or statement list) as source text."""
    return _Unparser(indent, provenance).render(node)


class _Unparser:
    def __init__(self, indent: int = 0, provenance: bool = False):
        self.indent = indent
        self.provenance = provenance

    def render(self, node) -> str:
        if node is None:
            return ""
        if isinstance(node, list):
            return "\n".join(self._with_origin(self.render(element), element)
                             for element in node)
        method = getattr(self, "_render_" + type(node).__name__, None)
        if method is None:
            for klass in type(node).__mro__:
                method = getattr(self, "_render_" + klass.__name__, None)
                if method is not None:
                    break
        if method is None:
            raise TypeError(f"cannot unparse {type(node).__name__}")
        return method(node)

    def _with_origin(self, text: str, node) -> str:
        """Provenance annotation for one statement-list element (only
        top-of-line statements are annotated, so expressions and inline
        sub-statements never grow comments mid-line)."""
        if not self.provenance or not text or not isinstance(node, n.Statement):
            return text
        origin = getattr(node, "origin", None)
        if origin is None:
            return text
        head, newline, rest = text.partition("\n")
        return f"{head}  /* from {origin.brief()} */{newline}{rest}"

    # -- helpers -------------------------------------------------------

    def _pad(self) -> str:
        return _INDENT * self.indent

    def _stmt_block(self, stmts) -> str:
        inner = _Unparser(self.indent + 1, self.provenance)
        lines = [inner._with_origin(inner.render(stmt), stmt)
                 for stmt in stmts]
        body = "\n".join(line for line in lines if line)
        if body:
            return "{\n" + body + "\n" + self._pad() + "}"
        return "{ }"

    def _mods(self, modifiers) -> str:
        return "".join(str(m) + " " for m in modifiers)

    # -- leaves ----------------------------------------------------------

    def _render_Ident(self, node) -> str:
        return node.name

    def _render_TypeName(self, node) -> str:
        return str(node)

    def _render_Token(self, token) -> str:  # pragma: no cover - debug aid
        return token.source_text()

    # -- expressions -----------------------------------------------------

    def _render_Literal(self, node) -> str:
        if node.kind == "String":
            return '"%s"' % _escape(node.value)
        if node.kind == "char":
            return "'%s'" % _escape(node.value)
        if node.kind == "boolean":
            return "true" if node.value else "false"
        if node.kind == "null":
            return "null"
        return str(node.value)

    def _render_NameExpr(self, node) -> str:
        return ".".join(node.parts)

    def _render_Reference(self, node) -> str:
        return node.binding.name

    def _render_ThisExpr(self, node) -> str:
        return "this"

    def _render_SuperExpr(self, node) -> str:
        return "super"

    def _render_ParenExpr(self, node) -> str:
        return f"({self.render(node.inner)})"

    def _render_FieldAccess(self, node) -> str:
        return f"{self.render(node.receiver)}.{node.name}"

    def _render_ArrayAccess(self, node) -> str:
        return f"{self.render(node.array)}[{self.render(node.index)}]"

    def _render_MethodName(self, node) -> str:
        if node.receiver is not None:
            return f"{self.render(node.receiver)}.{'.'.join(node.parts)}"
        return ".".join(node.parts)

    def _render_MethodInvocation(self, node) -> str:
        args = ", ".join(self.render(a) for a in node.args)
        return f"{self.render(node.method)}({args})"

    def _render_NewObject(self, node) -> str:
        args = ", ".join(self.render(a) for a in node.args)
        return f"new {self.render(node.type_name)}({args})"

    def _render_NewArray(self, node) -> str:
        dims = "".join(f"[{self.render(d)}]" for d in node.dim_exprs)
        dims += "[]" * node.extra_dims
        init = f" {self.render(node.initializer)}" if node.initializer else ""
        return f"new {self.render(node.element_type)}{dims}{init}"

    def _render_ArrayInitializer(self, node) -> str:
        return "{ " + ", ".join(self.render(e) for e in node.elements) + " }"

    def _render_UnaryExpr(self, node) -> str:
        return f"{node.op}{self.render(node.operand)}"

    def _render_PostfixExpr(self, node) -> str:
        return f"{self.render(node.operand)}{node.op}"

    def _render_BinaryExpr(self, node) -> str:
        return f"{self.render(node.left)} {node.op} {self.render(node.right)}"

    def _render_InstanceofExpr(self, node) -> str:
        return f"{self.render(node.expr)} instanceof {self.render(node.type_name)}"

    def _render_CastExpr(self, node) -> str:
        return f"({self.render(node.type_name)}) {self.render(node.expr)}"

    def _render_Assignment(self, node) -> str:
        return f"{self.render(node.lhs)} {node.op} {self.render(node.value)}"

    def _render_ConditionalExpr(self, node) -> str:
        return (
            f"{self.render(node.cond)} ? {self.render(node.then_expr)}"
            f" : {self.render(node.else_expr)}"
        )

    # -- statements -----------------------------------------------------

    def _render_BlockStmts(self, node) -> str:
        return self.render(node.stmts)

    def _render_Block(self, node) -> str:
        return self._pad() + self._stmt_block(node.body.stmts)

    def _render_EmptyStmt(self, node) -> str:
        return self._pad() + ";"

    def _render_ExprStmt(self, node) -> str:
        return self._pad() + self.render(node.expr) + ";"

    def _render_VarDeclarator(self, node) -> str:
        text = node.name.name + "[]" * node.dims
        if node.init is not None:
            text += " = " + self.render(node.init)
        return text

    def _render_LocalVarDecl(self, node) -> str:
        decls = ", ".join(self._render_VarDeclarator(d) for d in node.declarators)
        return (
            self._pad()
            + self._mods(node.modifiers)
            + f"{self.render(node.type_name)} {decls};"
        )

    def _render_IfStmt(self, node) -> str:
        text = self._pad() + f"if ({self.render(node.cond)}) "
        text += self._inline_stmt(node.then_stmt)
        if node.else_stmt is not None:
            text += " else " + self._inline_stmt(node.else_stmt)
        return text

    def _inline_stmt(self, stmt) -> str:
        rendered = self.render(stmt)
        return rendered[len(self._pad()):] if rendered.startswith(self._pad()) else rendered

    def _render_WhileStmt(self, node) -> str:
        return (
            self._pad()
            + f"while ({self.render(node.cond)}) "
            + self._inline_stmt(node.body)
        )

    def _render_DoStmt(self, node) -> str:
        return (
            self._pad()
            + "do "
            + self._inline_stmt(node.body)
            + f" while ({self.render(node.cond)});"
        )

    def _render_ForStmt(self, node) -> str:
        init = self._render_for_init(node.init)
        cond = self.render(node.cond) if node.cond else ""
        update = ", ".join(self.render(u) for u in node.update)
        return (
            self._pad()
            + f"for ({init}; {cond}; {update}) "
            + self._inline_stmt(node.body)
        )

    def _render_for_init(self, init) -> str:
        if init is None:
            return ""
        if isinstance(init, n.LocalVarDecl):
            return self.render(init).strip().rstrip(";")
        return ", ".join(self.render(e) for e in init)

    def _render_ReturnStmt(self, node) -> str:
        if node.expr is None:
            return self._pad() + "return;"
        return self._pad() + f"return {self.render(node.expr)};"

    def _render_ThrowStmt(self, node) -> str:
        return self._pad() + f"throw {self.render(node.expr)};"

    def _render_BreakStmt(self, node) -> str:
        return self._pad() + "break;"

    def _render_ContinueStmt(self, node) -> str:
        return self._pad() + "continue;"

    def _render_TryStmt(self, node) -> str:
        text = self._pad() + "try " + self._stmt_block(node.body.stmts)
        for clause in node.catches:
            text += (
                f" catch ({self.render(clause.formal)}) "
                + self._stmt_block(clause.body.stmts)
            )
        if node.finally_body is not None:
            text += " finally " + self._stmt_block(node.finally_body.stmts)
        return text

    def _render_UseStmt(self, node) -> str:
        name = getattr(node.metaprogram, "use_name", None) \
            or type(node.metaprogram).__name__
        lines = [self._pad() + f"/* use {name} */"]
        for stmt in node.body:
            lines.append(self._with_origin(self.render(stmt), stmt))
        return "\n".join(lines)

    def _render_LazyNode(self, node) -> str:
        tree = node.view()
        if tree is not None:
            return self.render(tree)
        return self._pad() + node.tree_token.source_text()

    # -- declarations ------------------------------------------------------

    def _render_Formal(self, node) -> str:
        return self._mods(node.modifiers) + f"{self.render(node.type_name)} {node.name.name}"

    def _render_PackageDecl(self, node) -> str:
        return f"package {'.'.join(node.parts)};"

    def _render_ImportDecl(self, node) -> str:
        suffix = ".*" if node.on_demand else ""
        return f"import {'.'.join(node.parts)}{suffix};"

    def _render_UseDecl(self, node) -> str:
        return f"use {'.'.join(node.parts)};"

    def _render_FieldDecl(self, node) -> str:
        decls = ", ".join(self._render_VarDeclarator(d) for d in node.declarators)
        return (
            self._pad()
            + self._mods(node.modifiers)
            + f"{self.render(node.type_name)} {decls};"
        )

    def _render_MethodDecl(self, node) -> str:
        formals = ", ".join(self.render(f) for f in node.formals)
        head = (
            self._pad()
            + self._mods(node.modifiers)
            + f"{self.render(node.return_type)} {node.name.name}({formals})"
        )
        if node.throws:
            head += " throws " + ", ".join(str(t) for t in node.throws)
        if node.body is None:
            return head + ";"
        return head + " " + self._body(node.body)

    def _render_ConstructorDecl(self, node) -> str:
        formals = ", ".join(self.render(f) for f in node.formals)
        head = self._pad() + self._mods(node.modifiers) + f"{node.name.name}({formals})"
        return head + " " + self._body(node.body)

    def _body(self, body) -> str:
        """A method or constructor body.  A lazy one prints what it
        would force to without being forced: a restored body prints its
        decoded tree unchecked, and an unparsed one its tokens."""
        if isinstance(body, n.LazyNode):
            tree = body.view()
            if tree is None:
                return body.tree_token.source_text()
            body = tree
        return self._stmt_block(body.stmts)

    def _render_ClassDecl(self, node) -> str:
        head = self._pad() + self._mods(node.modifiers) + f"class {node.name.name}"
        if node.superclass is not None:
            head += f" extends {self.render(node.superclass)}"
        if node.interfaces:
            head += " implements " + ", ".join(self.render(i) for i in node.interfaces)
        return head + " " + self._stmt_block(node.members)

    def _render_InterfaceDecl(self, node) -> str:
        head = self._pad() + self._mods(node.modifiers) + f"interface {node.name.name}"
        if node.superinterfaces:
            head += " extends " + ", ".join(self.render(i) for i in node.superinterfaces)
        return head + " " + self._stmt_block(node.members)

    def _render_ExternalMethodDecl(self, node) -> str:
        # MultiJava external methods are compiled into their receiver
        # class; at top level they render as a marker comment.
        formals = ", ".join(self.render(f) for f in node.formals)
        return (
            f"/* external: {self.render(node.return_type)} "
            f"{'.'.join(node.receiver.parts)}.{node.name.name}({formals}) "
            f"moved into receiver class */"
        )

    def _render_CompilationUnit(self, node) -> str:
        parts: List[str] = []
        if node.package is not None:
            parts.append(self.render(node.package))
        for imp in node.imports:
            parts.append(self.render(imp))
        for type_decl in node.types:
            parts.append(self.render(type_decl))
        return "\n".join(parts)


def _escape(text) -> str:
    out = []
    escapes = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "'": "\\'", "\\": "\\\\"}
    for ch in str(text):
        out.append(escapes.get(ch, ch))
    return "".join(out)
