"""Definition of the base Java-subset grammar.

Grammar conventions
-------------------
* Tree tokens (ParenTree, BraceTree, BracketTree, Dims, EmptyParen,
  CastParen) are single terminals; productions that need their contents
  parse them recursively (eagerly or lazily) in their actions, exactly
  as the paper's generated G0/G1 productions do.
* Dotted names are parsed as QName and reclassified by the type checker
  (JLS "ambiguous name" treatment), which keeps the grammar LALR(1).
* Binding positions use the ``UnboundLocal`` nonterminal — the paper's
  hygiene rule that "productions that establish lexically scoped
  bindings must use special nonterminals" (section 4.3).
* ``BlockStmts``, class member lists, and compilation units are parsed
  by *driver loops*, one statement/member at a time, so that a ``use``
  directive can extend the grammar for the syntax that follows it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.ast import nodes as n
from repro.dispatch.dispatcher import identity
from repro.grammar import (
    Assoc,
    Grammar,
    LazySym,
    ListSym,
    Nonterminal,
    Production,
    nonterminal,
)
from repro.lexer import Token

# Production -> base semantic action fn(ctx, values, location) -> value
BASE_ACTIONS: Dict[Production, Callable] = {}

# Nonterminals parsed by driver loops rather than LALR (see core.drivers).
DRIVER_NONTERMINALS = ("BlockStmts", "MemberList", "CompilationUnit")

_NODE_SYMBOLS: Dict[str, Nonterminal] = {}


def node_symbol(name: str) -> Nonterminal:
    """The node-type nonterminal with the given name."""
    return _NODE_SYMBOLS[name]


_grammar_cache: Optional[Grammar] = None


def base_grammar() -> Grammar:
    """The (singleton) base grammar; copy it before extending."""
    global _grammar_cache
    if _grammar_cache is None:
        _grammar_cache = _build()
    return _grammar_cache


# ---------------------------------------------------------------------------
# Small helpers used by actions
# ---------------------------------------------------------------------------


def _ident(token: Token) -> n.Ident:
    return n.Ident(token.text, location=token.location)


def _parse_args(ctx, token: Token):
    """Parse an argument-list paren tree into a list of Expressions."""
    if token.kind == "EmptyParen":
        return []
    return ctx.parse_subtree(token, _NODE_SYMBOLS["ArgList"])


def _parse_formals(ctx, token: Token):
    if token.kind == "EmptyParen":
        return []
    return ctx.parse_subtree(token, _NODE_SYMBOLS["FormalList"])


# ---------------------------------------------------------------------------
# Grammar construction
# ---------------------------------------------------------------------------


def _build() -> Grammar:
    grammar = Grammar("maya-base")

    # -- node-type symbols -------------------------------------------------
    def declare(name: str, node_class=None) -> Nonterminal:
        symbol = nonterminal(name, node_class)
        _NODE_SYMBOLS[name] = symbol
        return symbol

    CompilationUnit = declare("CompilationUnit", n.CompilationUnit)
    Declaration = declare("Declaration", n.Declaration)
    PackageDecl = declare("PackageDecl", n.PackageDecl)
    ImportDecl = declare("ImportDecl", n.ImportDecl)
    UseDecl = declare("UseDecl", n.UseDecl)
    TypeDeclaration = declare("TypeDeclaration", n.TypeDecl)
    MemberDecl = declare("MemberDecl", n.MemberDecl)
    Statement = declare("Statement", n.Statement)
    BlockStmts = declare("BlockStmts", n.BlockStmts)
    Expression = declare("Expression", n.Expression)
    Literal = declare("Literal", n.Literal)
    Primary = declare("Primary", n.Primary)
    MethodName = declare("MethodName", n.MethodName)
    QName = declare("QName", n.NameExpr)
    TypeNT = declare("TypeName", n.TypeName)
    Formal = declare("Formal", n.Formal)
    FormalList = declare("FormalList")
    ArgList = declare("ArgList")
    VarDeclarator = declare("VarDeclarator", n.VarDeclarator)
    Modifier = declare("Modifier")
    UnboundLocal = declare("UnboundLocal", n.Ident)
    ForHeader = declare("ForHeader")
    VarInit = declare("VarInit")
    VarInitList = declare("VarInitList")
    MemberList = declare("MemberList")

    # Intermediate expression levels (not node-type symbols, but public
    # enough that patterns may mention a few of them).
    AssignExpr = declare("AssignExpr")
    CondExpr = declare("CondExpr")
    OrExpr = declare("OrExpr")
    AndExpr = declare("AndExpr")
    BitOrExpr = declare("BitOrExpr")
    BitXorExpr = declare("BitXorExpr")
    BitAndExpr = declare("BitAndExpr")
    EqExpr = declare("EqExpr")
    RelExpr = declare("RelExpr")
    ShiftExpr = declare("ShiftExpr")
    AddExpr = declare("AddExpr")
    MulExpr = declare("MulExpr")
    UnaryExpr = declare("UnaryExpr")
    UnaryNPM = declare("UnaryNPM")
    PostfixExpr = declare("PostfixExpr")

    Mods = ListSym(Modifier)
    CommaExprs = ListSym(Expression, ",")
    LazyBody = LazySym(("BraceTree",), BlockStmts)

    def add(lhs, rhs, action, tag=None, prec=None, trees=None) -> Production:
        """Add a production with its base action.

        ``trees`` maps rhs positions holding raw tree tokens to
        (content nonterminal, lazy?) so pattern/template parsing can
        statically check group contents.
        """
        production = grammar.add_production(lhs, rhs, tag=tag, prec=prec)
        BASE_ACTIONS[production] = action
        if trees:
            for position, spec in trees.items():
                symbol, lazy = spec if isinstance(spec, tuple) else (spec, False)
                production.tree_contents[position] = (symbol, lazy)
        return production

    def passthrough(lhs, rhs, tag=None):
        production = add(lhs, rhs, identity, tag=tag)
        production.passthrough = True
        return production

    # -- precedence (dangling else only) ---------------------------------
    grammar.declare_precedence(Assoc.NONASSOC, "if")
    grammar.declare_precedence(Assoc.NONASSOC, "else")

    # ======================================================================
    # Names and types
    # ======================================================================

    add(
        QName,
        ["Identifier"],
        lambda ctx, v, loc: n.NameExpr((v[0].text,), location=loc),
        tag="qname_single",
    )
    add(
        QName,
        [QName, ".", "Identifier"],
        lambda ctx, v, loc: n.NameExpr(v[0].parts + (v[2].text,), location=loc),
        tag="qname_more",
    )

    add(
        UnboundLocal,
        ["Identifier"],
        lambda ctx, v, loc: _ident(v[0]),
        tag="unbound_local",
    )

    add(
        TypeNT,
        [QName],
        lambda ctx, v, loc: n.TypeName(v[0].parts, 0, location=loc),
        tag="type_name",
    )
    for prim in ("boolean", "byte", "short", "int", "long", "char",
                 "float", "double", "void"):
        add(
            TypeNT,
            [prim],
            lambda ctx, v, loc: n.TypeName((v[0].text,), 0, location=loc),
            tag=f"type_{prim}",
        )
    add(
        TypeNT,
        [TypeNT, "Dims"],
        lambda ctx, v, loc: n.TypeName(v[0].base, v[0].dims + 1, location=loc),
        tag="type_array",
    )

    for mod in ("public", "private", "protected", "static", "final",
                "abstract", "native", "synchronized"):
        add(Modifier, [mod], lambda ctx, v, loc: v[0].text, tag=f"mod_{mod}")

    # ======================================================================
    # Expressions
    # ======================================================================

    passthrough(Expression, [AssignExpr], tag="expr")

    passthrough(AssignExpr, [CondExpr], tag="assign_pass")
    for op in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>=", ">>>="):
        add(
            AssignExpr,
            [CondExpr, op, AssignExpr],
            lambda ctx, v, loc: n.Assignment(v[0], v[1].text, v[2], location=loc),
            tag=f"assign_{op}",
        )

    passthrough(CondExpr, [OrExpr], tag="cond_pass")
    add(
        CondExpr,
        [OrExpr, "?", Expression, ":", CondExpr],
        lambda ctx, v, loc: n.ConditionalExpr(v[0], v[2], v[4], location=loc),
        tag="conditional",
    )

    def binary(lhs, lower, ops, tag_prefix):
        passthrough(lhs, [lower], tag=f"{tag_prefix}_pass")
        for op in ops:
            add(
                lhs,
                [lhs, op, lower],
                lambda ctx, v, loc: n.BinaryExpr(v[1].text, v[0], v[2], location=loc),
                tag=f"{tag_prefix}_{op}",
            )

    binary(OrExpr, AndExpr, ("||",), "or")
    binary(AndExpr, BitOrExpr, ("&&",), "and")
    binary(BitOrExpr, BitXorExpr, ("|",), "bitor")
    binary(BitXorExpr, BitAndExpr, ("^",), "bitxor")
    binary(BitAndExpr, EqExpr, ("&",), "bitand")
    binary(EqExpr, RelExpr, ("==", "!="), "eq")
    binary(RelExpr, ShiftExpr, ("<", ">", "<=", ">="), "rel")
    add(
        RelExpr,
        [RelExpr, "instanceof", TypeNT],
        lambda ctx, v, loc: n.InstanceofExpr(v[0], v[2], location=loc),
        tag="instanceof",
    )
    binary(ShiftExpr, AddExpr, ("<<", ">>", ">>>"), "shift")
    binary(AddExpr, MulExpr, ("+", "-"), "add")
    binary(MulExpr, UnaryExpr, ("*", "/", "%"), "mul")

    passthrough(UnaryExpr, [UnaryNPM], tag="unary_pass")
    for op in ("+", "-", "++", "--"):
        add(
            UnaryExpr,
            [op, UnaryExpr],
            lambda ctx, v, loc: n.UnaryExpr(v[0].text, v[1], location=loc),
            tag=f"unary_{op}",
        )

    passthrough(UnaryNPM, [PostfixExpr], tag="npm_pass")
    for op in ("!", "~"):
        add(
            UnaryNPM,
            [op, UnaryExpr],
            lambda ctx, v, loc: n.UnaryExpr(v[0].text, v[1], location=loc),
            tag=f"npm_{op}",
        )

    def cast_action(ctx, v, loc):
        type_name = ctx.parse_subtree(v[0], TypeNT)
        return n.CastExpr(type_name, v[1], location=loc)

    add(UnaryNPM, ["CastParen", UnaryExpr], cast_action, tag="cast_prim",
        trees={0: TypeNT})
    add(UnaryNPM, ["ParenTree", UnaryNPM], cast_action, tag="cast_ref",
        trees={0: TypeNT})

    passthrough(PostfixExpr, [Primary], tag="postfix_primary")
    passthrough(PostfixExpr, [QName], tag="postfix_name")
    for op in ("++", "--"):
        add(
            PostfixExpr,
            [PostfixExpr, op],
            lambda ctx, v, loc: n.PostfixExpr(v[1].text, v[0], location=loc),
            tag=f"postfix_{op}",
        )

    # -- primaries ---------------------------------------------------------

    passthrough(Primary, [Literal], tag="primary_literal")
    add(Primary, ["this"], lambda ctx, v, loc: n.ThisExpr(location=loc),
        tag="primary_this")
    add(
        Primary,
        ["ParenTree"],
        lambda ctx, v, loc: n.ParenExpr(
            ctx.parse_subtree(v[0], Expression), location=loc
        ),
        tag="paren_expr",
        trees={0: Expression},
    )

    literal_kinds = {
        "IntLit": "int",
        "LongLit": "long",
        "DoubleLit": "double",
        "CharLit": "char",
        "StringLit": "String",
    }
    for token_kind, type_kind in literal_kinds.items():
        add(
            Literal,
            [token_kind],
            lambda ctx, v, loc, _k=type_kind: n.Literal(_k, v[0].value, location=loc),
            tag=f"lit_{type_kind}",
        )
    add(Literal, ["true"], lambda ctx, v, loc: n.Literal("boolean", True, location=loc),
        tag="lit_true")
    add(Literal, ["false"], lambda ctx, v, loc: n.Literal("boolean", False, location=loc),
        tag="lit_false")
    add(Literal, ["null"], lambda ctx, v, loc: n.Literal("null", None, location=loc),
        tag="lit_null")

    FieldAccessNT = declare("FieldAccess", n.FieldAccess)
    add(
        FieldAccessNT,
        [Primary, ".", "Identifier"],
        lambda ctx, v, loc: n.FieldAccess(v[0], v[2].text, location=loc),
        tag="field_access",
    )
    add(
        FieldAccessNT,
        ["super", ".", "Identifier"],
        lambda ctx, v, loc: n.FieldAccess(
            n.SuperExpr(location=loc), v[2].text, location=loc
        ),
        tag="super_field",
    )
    passthrough(Primary, [FieldAccessNT], tag="primary_field")

    ArrayAccessNT = declare("ArrayAccess", n.ArrayAccess)
    for receiver in (QName, Primary):
        add(
            ArrayAccessNT,
            [receiver, "BracketTree"],
            lambda ctx, v, loc: n.ArrayAccess(
                v[0], ctx.parse_subtree(v[1], Expression), location=loc
            ),
            tag=f"array_access_{receiver.name}",
            trees={1: Expression},
        )
    passthrough(Primary, [ArrayAccessNT], tag="primary_array")

    add(
        MethodName,
        [QName],
        lambda ctx, v, loc: n.MethodName(None, v[0].parts, location=loc),
        tag="method_name_qname",
    )
    add(
        MethodName,
        [Primary, ".", "Identifier"],
        lambda ctx, v, loc: n.MethodName(v[0], (v[2].text,), location=loc),
        tag="method_name_primary",
    )
    add(
        MethodName,
        ["super", ".", "Identifier"],
        lambda ctx, v, loc: n.MethodName(
            n.SuperExpr(location=loc), (v[2].text,), location=loc
        ),
        tag="method_name_super",
    )

    MethodInvocationNT = declare("MethodInvocation", n.MethodInvocation)
    for args_kind in ("ParenTree", "EmptyParen"):
        add(
            MethodInvocationNT,
            [MethodName, args_kind],
            lambda ctx, v, loc: n.MethodInvocation(
                v[0], _parse_args(ctx, v[1]), location=loc
            ),
            tag=f"invoke_{args_kind}",
            trees={1: ArgList} if args_kind == "ParenTree" else None,
        )
    passthrough(Primary, [MethodInvocationNT], tag="primary_invoke")

    # -- new expressions ---------------------------------------------------

    NewExprNT = declare("NewExpr", n.Primary)
    for args_kind in ("ParenTree", "EmptyParen"):
        add(
            NewExprNT,
            ["new", TypeNT, args_kind],
            lambda ctx, v, loc: n.NewObject(v[1], _parse_args(ctx, v[2]), location=loc),
            tag=f"new_object_{args_kind}",
            trees={2: ArgList} if args_kind == "ParenTree" else None,
        )
    passthrough(Primary, [NewExprNT], tag="primary_new")

    # Array creation lives at the PostfixExpr level, not Primary, so a
    # creation's brackets cannot be re-parsed as array accesses (Java's
    # rule that "new int[2][3]" is a 2-D creation).
    BracketExpr = nonterminal("BracketExpr")
    add(
        BracketExpr,
        ["BracketTree"],
        lambda ctx, v, loc: ctx.parse_subtree(v[0], Expression),
        tag="bracket_expr",
        trees={0: Expression},
    )
    DimsTok = nonterminal("DimsTok")
    add(DimsTok, ["Dims"], lambda ctx, v, loc: v[0], tag="dims_tok")
    add(
        PostfixExpr,
        ["new", TypeNT, BracketExpr, ListSym(BracketExpr), ListSym(DimsTok)],
        lambda ctx, v, loc: n.NewArray(
            n.TypeName(v[1].base, v[1].dims, location=v[1].location),
            [v[2]] + v[3],
            len(v[4]),
            None,
            location=loc,
        ),
        tag="new_array",
    )

    ArrayInitNT = declare("ArrayInit", n.ArrayInitializer)
    add(
        ArrayInitNT,
        ["BraceTree"],
        lambda ctx, v, loc: n.ArrayInitializer(
            ctx.parse_subtree(v[0], VarInitList), location=loc
        ),
        tag="array_init",
        trees={0: VarInitList},
    )

    def new_init_array(ctx, v, loc):
        # The dims are part of the TypeNT ("new int[] {...}"); the element
        # type is the base with one fewer dimension.
        type_name = v[1]
        element = n.TypeName(type_name.base, max(type_name.dims - 1, 0),
                             location=type_name.location)
        return n.NewArray(element, [], max(type_name.dims - 1, 0), v[2],
                          location=loc)

    add(PostfixExpr, ["new", TypeNT, ArrayInitNT], new_init_array,
        tag="new_array_init")

    passthrough(VarInit, [Expression], tag="varinit_expr")
    passthrough(VarInit, [ArrayInitNT], tag="varinit_array")
    add(
        VarInitList,
        [ListSym(VarInit, ",")],
        lambda ctx, v, loc: v[0],
        tag="varinit_list",
    )

    add(ArgList, [ListSym(Expression, ",")], lambda ctx, v, loc: v[0], tag="args")

    # ======================================================================
    # Statements
    # ======================================================================

    add(
        Statement,
        ["BraceTree"],
        lambda ctx, v, loc: n.Block(ctx.parse_subtree(v[0], BlockStmts), location=loc),
        tag="block",
        trees={0: BlockStmts},
    )
    add(Statement, [";"], lambda ctx, v, loc: n.EmptyStmt(location=loc), tag="empty")
    add(
        Statement,
        [Expression, ";"],
        lambda ctx, v, loc: n.ExprStmt(v[0], location=loc),
        tag="expr_stmt",
    )

    add(
        VarDeclarator,
        [UnboundLocal, ListSym(DimsTok)],
        lambda ctx, v, loc: n.VarDeclarator(v[0], len(v[1]), None, location=loc),
        tag="declarator",
    )
    add(
        VarDeclarator,
        [UnboundLocal, ListSym(DimsTok), "=", VarInit],
        lambda ctx, v, loc: n.VarDeclarator(v[0], len(v[1]), v[3], location=loc),
        tag="declarator_init",
    )
    VarDecls = ListSym(VarDeclarator, ",", min1=True)

    def local_var(ctx, v, loc):
        return n.LocalVarDecl([], v[0], v[1], location=loc)

    LocalVarDeclNT = declare("LocalVarDecl", n.LocalVarDecl)
    add(LocalVarDeclNT, [TypeNT, VarDecls], local_var, tag="local_var")
    add(
        LocalVarDeclNT,
        ["final", TypeNT, VarDecls],
        lambda ctx, v, loc: n.LocalVarDecl(["final"], v[1], v[2], location=loc),
        tag="local_var_final",
    )
    add(
        Statement,
        [LocalVarDeclNT, ";"],
        lambda ctx, v, loc: v[0],
        tag="local_var_stmt",
    )

    def cond_of(ctx, token):
        return ctx.parse_subtree(token, Expression)

    add(
        Statement,
        ["if", "ParenTree", Statement],
        lambda ctx, v, loc: n.IfStmt(cond_of(ctx, v[1]), v[2], None, location=loc),
        tag="if_then",
        prec="if",
        trees={1: Expression},
    )
    add(
        Statement,
        ["if", "ParenTree", Statement, "else", Statement],
        lambda ctx, v, loc: n.IfStmt(cond_of(ctx, v[1]), v[2], v[4], location=loc),
        tag="if_else",
        trees={1: Expression},
    )
    add(
        Statement,
        ["while", "ParenTree", Statement],
        lambda ctx, v, loc: n.WhileStmt(cond_of(ctx, v[1]), v[2], location=loc),
        tag="while",
        trees={1: Expression},
    )
    add(
        Statement,
        ["do", Statement, "while", "ParenTree", ";"],
        lambda ctx, v, loc: n.DoStmt(v[1], cond_of(ctx, v[3]), location=loc),
        tag="do_while",
        trees={3: Expression},
    )
    add(
        Statement,
        ["for", "ParenTree", Statement],
        lambda ctx, v, loc: _make_for(ctx, v[1], v[2], loc),
        tag="for",
        trees={1: ForHeader},
    )
    add(Statement, ["return", ";"],
        lambda ctx, v, loc: n.ReturnStmt(None, location=loc), tag="return_void")
    add(Statement, ["return", Expression, ";"],
        lambda ctx, v, loc: n.ReturnStmt(v[1], location=loc), tag="return_value")
    add(Statement, ["throw", Expression, ";"],
        lambda ctx, v, loc: n.ThrowStmt(v[1], location=loc), tag="throw")
    add(Statement, ["break", ";"],
        lambda ctx, v, loc: n.BreakStmt(location=loc), tag="break")
    add(Statement, ["continue", ";"],
        lambda ctx, v, loc: n.ContinueStmt(location=loc), tag="continue")

    add(
        Statement,
        ["use", QName, ";"],
        lambda ctx, v, loc: ctx.make_use_statement(v[1].parts, loc),
        tag="use_stmt",
    )

    # try / catch / finally
    CatchClause = declare("CatchClause", n.CatchClause)
    add(
        CatchClause,
        ["catch", "ParenTree", "BraceTree"],
        lambda ctx, v, loc: n.CatchClause(
            ctx.parse_subtree(v[1], Formal),
            ctx.parse_subtree(v[2], BlockStmts),
            location=loc,
        ),
        tag="catch_clause",
        trees={1: Formal, 2: BlockStmts},
    )
    FinallyOpt = declare("FinallyOpt")
    add(FinallyOpt, [], lambda ctx, v, loc: None, tag="finally_none")
    add(
        FinallyOpt,
        ["finally", "BraceTree"],
        lambda ctx, v, loc: ctx.parse_subtree(v[1], BlockStmts),
        tag="finally_some",
        trees={1: BlockStmts},
    )

    def try_stmt(ctx, v, loc):
        body = ctx.parse_subtree(v[1], BlockStmts)
        catches, finally_body = v[2], v[3]
        if not catches and finally_body is None:
            raise ctx.error("try needs at least one catch or a finally", loc)
        return n.TryStmt(body, catches, finally_body, location=loc)

    add(
        Statement,
        ["try", "BraceTree", ListSym(CatchClause), FinallyOpt],
        try_stmt,
        tag="try_stmt",
        trees={1: BlockStmts},
    )

    # for-header, parsed from the paren-tree content
    OptExpr = declare("OptExpr")
    add(OptExpr, [], lambda ctx, v, loc: None, tag="opt_expr_none")
    passthrough(OptExpr, [Expression], tag="opt_expr_some")

    ForInit = declare("ForInit")
    add(ForInit, [], lambda ctx, v, loc: None, tag="for_init_none")
    passthrough(ForInit, [LocalVarDeclNT], tag="for_init_decl")
    add(ForInit, [Expression, ListSym(nonterminal("CommaExpr"))],
        lambda ctx, v, loc: [v[0]] + v[1], tag="for_init_exprs")
    CommaExpr = nonterminal("CommaExpr")
    add(CommaExpr, [",", Expression], lambda ctx, v, loc: v[1], tag="comma_expr")

    ForUpdate = declare("ForUpdate")
    add(ForUpdate, [], lambda ctx, v, loc: [], tag="for_update_none")
    add(ForUpdate, [Expression, ListSym(CommaExpr)],
        lambda ctx, v, loc: [v[0]] + v[1], tag="for_update_some")

    add(
        ForHeader,
        [ForInit, ";", OptExpr, ";", ForUpdate],
        lambda ctx, v, loc: (v[0], v[2], v[4]),
        tag="for_header",
    )

    # ======================================================================
    # Declarations
    # ======================================================================

    for formal_tag, rhs in (
        ("formal", [Mods, TypeNT, UnboundLocal, ListSym(DimsTok)]),
    ):
        def formal_action(ctx, v, loc):
            type_name = v[1]
            extra = len(v[3])
            if extra:
                type_name = n.TypeName(type_name.base, type_name.dims + extra,
                                       location=type_name.location)
            return n.Formal(v[0], type_name, v[2], location=loc)

        add(Formal, rhs, formal_action, tag=formal_tag)

    add(FormalList, [ListSym(Formal, ",")], lambda ctx, v, loc: v[0], tag="formals")

    Throws = declare("Throws")
    add(Throws, [], lambda ctx, v, loc: [], tag="throws_none")
    add(Throws, ["throws", ListSym(QName, ",", min1=True)],
        lambda ctx, v, loc: [n.TypeName(q.parts, 0, location=q.location) for q in v[1]],
        tag="throws_some")

    MethodBody = declare("MethodBody")
    add(MethodBody, [";"], lambda ctx, v, loc: None, tag="abstract_body")
    add(MethodBody, [LazyBody], lambda ctx, v, loc: v[0], tag="lazy_body")

    def method_decl(ctx, v, loc):
        formals = _parse_formals(ctx, v[3])
        return n.MethodDecl(v[0], v[1], _ident(v[2]), formals, v[4], v[5],
                            location=loc)

    for paren in ("ParenTree", "EmptyParen"):
        add(
            MemberDecl,
            [Mods, TypeNT, "Identifier", paren, Throws, MethodBody],
            method_decl,
            tag=f"method_decl_{paren}",
            trees={3: FormalList} if paren == "ParenTree" else None,
        )

    def ctor_decl(ctx, v, loc):
        formals = _parse_formals(ctx, v[2])
        return n.ConstructorDecl(v[0], _ident(v[1]), formals, v[3], v[4],
                                 location=loc)

    for paren in ("ParenTree", "EmptyParen"):
        add(
            MemberDecl,
            [Mods, "Identifier", paren, Throws, LazyBody],
            ctor_decl,
            tag=f"ctor_decl_{paren}",
            trees={2: FormalList} if paren == "ParenTree" else None,
        )

    add(
        MemberDecl,
        [Mods, TypeNT, VarDecls, ";"],
        lambda ctx, v, loc: n.FieldDecl(v[0], v[1], v[2], location=loc),
        tag="field_decl",
    )

    add(
        MemberDecl,
        ["use", QName, ";"],
        lambda ctx, v, loc: ctx.make_use_member(v[1].parts, loc),
        tag="use_member",
    )

    # explicit constructor calls
    for receiver in ("this", "super"):
        for paren in ("ParenTree", "EmptyParen"):
            add(
                Statement,
                [receiver, paren, ";"],
                lambda ctx, v, loc: n.ExprStmt(
                    n.MethodInvocation(
                        n.MethodName(None, ("<" + v[0].text + ">",), location=loc),
                        _parse_args(ctx, v[1]),
                        location=loc,
                    ),
                    location=loc,
                ),
                tag=f"ctor_call_{receiver}_{paren}",
                trees={1: ArgList} if paren == "ParenTree" else None,
            )

    # -- type declarations ------------------------------------------------

    SuperOpt = declare("SuperOpt")
    add(SuperOpt, [], lambda ctx, v, loc: None, tag="super_none")
    add(SuperOpt, ["extends", QName],
        lambda ctx, v, loc: n.TypeName(v[1].parts, 0, location=loc), tag="super_some")

    IfacesOpt = declare("IfacesOpt")
    add(IfacesOpt, [], lambda ctx, v, loc: [], tag="ifaces_none")
    add(IfacesOpt, ["implements", ListSym(QName, ",", min1=True)],
        lambda ctx, v, loc: [n.TypeName(q.parts, 0, location=q.location) for q in v[1]],
        tag="ifaces_some")

    def class_decl(ctx, v, loc):
        members = ctx.parse_subtree(v[5], MemberList)
        return n.ClassDecl(v[0], _ident(v[2]), v[3], v[4], members, location=loc)

    add(
        TypeDeclaration,
        [Mods, "class", "Identifier", SuperOpt, IfacesOpt, "BraceTree"],
        class_decl,
        tag="class_decl",
        trees={5: MemberList},
    )

    ExtendsIfaces = declare("ExtendsIfaces")
    add(ExtendsIfaces, [], lambda ctx, v, loc: [], tag="iext_none")
    add(ExtendsIfaces, ["extends", ListSym(QName, ",", min1=True)],
        lambda ctx, v, loc: [n.TypeName(q.parts, 0, location=q.location) for q in v[1]],
        tag="iext_some")

    def interface_decl(ctx, v, loc):
        members = ctx.parse_subtree(v[4], MemberList)
        return n.InterfaceDecl(v[0], _ident(v[2]), v[3], members, location=loc)

    add(
        TypeDeclaration,
        [Mods, "interface", "Identifier", ExtendsIfaces, "BraceTree"],
        interface_decl,
        tag="interface_decl",
        trees={4: MemberList},
    )

    # -- compilation-unit level declarations -------------------------------

    add(PackageDecl, ["package", QName, ";"],
        lambda ctx, v, loc: n.PackageDecl(v[1].parts, location=loc), tag="package")
    add(ImportDecl, ["import", QName, ";"],
        lambda ctx, v, loc: n.ImportDecl(v[1].parts, False, location=loc),
        tag="import_single")
    add(ImportDecl, ["import", QName, ".", "*", ";"],
        lambda ctx, v, loc: n.ImportDecl(v[1].parts, True, location=loc),
        tag="import_on_demand")
    add(UseDecl, ["use", QName, ";"],
        lambda ctx, v, loc: n.UseDecl(v[1].parts, location=loc), tag="use_decl")

    passthrough(Declaration, [PackageDecl], tag="decl_package")
    passthrough(Declaration, [ImportDecl], tag="decl_import")
    passthrough(Declaration, [UseDecl], tag="decl_use")
    passthrough(Declaration, [TypeDeclaration], tag="decl_type")

    # ======================================================================
    # Start symbols
    # ======================================================================
    grammar.declare_start(
        Declaration,
        TypeDeclaration,
        MemberDecl,
        Statement,
        Expression,
        Formal,
        FormalList,
        ArgList,
        TypeNT,
        QName,
        MethodName,
        VarDeclarator,
        ForHeader,
        VarInitList,
        LocalVarDeclNT,
        UnboundLocal,
        Literal,
        Primary,
        MethodInvocationNT,
        FieldAccessNT,
        ArrayAccessNT,
        NewExprNT,
    )

    return grammar


def _make_for(ctx, header_token: Token, body, loc):
    init, cond, update = ctx.parse_subtree(
        header_token, _NODE_SYMBOLS["ForHeader"]
    )
    return n.ForStmt(init, cond, update, body, location=loc)
