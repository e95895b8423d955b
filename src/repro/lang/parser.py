"""Recursive-descent parser for the sjava mini-language.

The grammar is a Java subset extended with SJava's annotation forms
(Fig. 3.3 of the paper) and labeled loops (``SSJAVA:`` marks the main
event loop, ``TERMINATE_x:`` marks developer-verified terminating loops).
"""

from __future__ import annotations

from typing import Optional

from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import BINARY_OPERATORS, Token, TokenKind


class ParseError(Exception):
    """Raised on a syntax error, with source position."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.col}: {message}")
        self.token = token


_PRIM_TYPES = {"int", "float", "boolean", "String", "void"}

_ASSIGN_OPS = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
}

class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.token = tokens[0]  # the current token; every list ends in EOF

    # -- token helpers ------------------------------------------------

    def peek(self, offset: int) -> Token:
        """The token ``offset`` places ahead, or EOF past the end."""
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: TokenKind) -> bool:
        return self.token.kind is kind

    def at_keyword(self, *words: str) -> bool:
        token = self.token
        return token.kind is TokenKind.KEYWORD and token.value in words

    def advance(self) -> Token:
        token = self.token
        if token.kind is not TokenKind.EOF:
            self.pos += 1
            self.token = self.tokens[self.pos]
        return token

    def expect(self, kind: TokenKind) -> Token:
        token = self.token
        if token.kind is not kind:
            raise ParseError(f"expected {kind.name}, found {token.value!r}", token)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        token = self.token
        if not self.at_keyword(word):
            raise ParseError(f"expected '{word}', found {token.value!r}", token)
        return self.advance()

    def pos_of(self, token: Token) -> dict:
        return {"line": token.line, "col": token.col}

    # -- annotations ----------------------------------------------------

    def parse_annotations(self) -> list[ast.Annotation]:
        annotations: list[ast.Annotation] = []
        while self.at(TokenKind.ANNOTATION):
            token = self.advance()
            value: object = None
            if self.at(TokenKind.LPAREN):
                self.advance()
                arg = self.token
                if arg.kind is TokenKind.STRING_LIT:
                    value = arg.value
                    self.advance()
                elif arg.kind is TokenKind.INT_LIT:
                    value = arg.value
                    self.advance()
                else:
                    raise ParseError(
                        "annotation argument must be a string or int literal", arg
                    )
                self.expect(TokenKind.RPAREN)
            annotations.append(
                ast.Annotation(name=str(token.value), value=value, **self.pos_of(token))
            )
        return annotations

    # -- types ----------------------------------------------------------

    def parse_type(self) -> ast.TypeNode:
        token = self.token
        if token.kind is TokenKind.KEYWORD and token.value in _PRIM_TYPES:
            self.advance()
            base: ast.TypeNode = ast.PrimType(
                name=str(token.value), **self.pos_of(token)
            )
        elif token.kind is TokenKind.IDENT:
            self.advance()
            base = ast.ClassType(name=str(token.value), **self.pos_of(token))
        else:
            raise ParseError(f"expected a type, found {token.value!r}", token)
        while self.at(TokenKind.LBRACKET) and self.peek(1).kind is TokenKind.RBRACKET:
            self.advance()
            self.advance()
            base = ast.ArrayType(element=base, **self.pos_of(token))
        return base

    # -- program / declarations ------------------------------------------

    def parse_program(self) -> ast.Program:
        first = self.token
        classes: list[ast.ClassDecl] = []
        while not self.at(TokenKind.EOF):
            classes.append(self.parse_class())
        return ast.Program(classes=classes, **self.pos_of(first))

    def parse_class(self) -> ast.ClassDecl:
        annotations = self.parse_annotations()
        while self.at_keyword("public", "private", "protected", "final"):
            self.advance()
        token = self.expect_keyword("class")
        name = self.expect(TokenKind.IDENT)
        superclass: Optional[str] = None
        if self.at_keyword("extends"):
            self.advance()
            superclass = str(self.expect(TokenKind.IDENT).value)
        self.expect(TokenKind.LBRACE)
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self.at(TokenKind.RBRACE):
            member = self.parse_member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self.expect(TokenKind.RBRACE)
        return ast.ClassDecl(
            name=str(name.value),
            superclass=superclass,
            annotations=annotations,
            fields=fields,
            methods=methods,
            **self.pos_of(token),
        )

    def parse_member(self):
        annotations = self.parse_annotations()
        is_static = False
        is_final = False
        while self.at_keyword("public", "private", "protected", "static", "final"):
            word = self.advance().value
            if word == "static":
                is_static = True
            elif word == "final":
                is_final = True
        # Method return annotations can also appear between modifiers and
        # the return type in real-world SJava code.
        annotations += self.parse_annotations()
        decl_type = self.parse_type()
        name = self.expect(TokenKind.IDENT)
        if self.at(TokenKind.LPAREN):
            return self.parse_method_rest(
                annotations, is_static, decl_type, name
            )
        init: Optional[ast.Expr] = None
        if self.at(TokenKind.ASSIGN):
            self.advance()
            init = self.parse_expr()
        self.expect(TokenKind.SEMI)
        return ast.FieldDecl(
            name=str(name.value),
            decl_type=decl_type,
            annotations=annotations,
            is_static=is_static,
            is_final=is_final,
            init=init,
            **self.pos_of(name),
        )

    def parse_method_rest(
        self,
        annotations: list[ast.Annotation],
        is_static: bool,
        return_type: ast.TypeNode,
        name: Token,
    ) -> ast.MethodDecl:
        self.expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self.at(TokenKind.RPAREN):
            while True:
                param_annotations = self.parse_annotations()
                param_type = self.parse_type()
                param_name = self.expect(TokenKind.IDENT)
                params.append(
                    ast.Param(
                        name=str(param_name.value),
                        decl_type=param_type,
                        annotations=param_annotations,
                        **self.pos_of(param_name),
                    )
                )
                if self.at(TokenKind.COMMA):
                    self.advance()
                else:
                    break
        self.expect(TokenKind.RPAREN)
        body = self.parse_block()
        return ast.MethodDecl(
            name=str(name.value),
            return_type=return_type,
            params=params,
            body=body,
            annotations=annotations,
            is_static=is_static,
            **self.pos_of(name),
        )

    # -- statements ------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_brace = self.expect(TokenKind.LBRACE)
        stmts: list[ast.Stmt] = []
        while not self.at(TokenKind.RBRACE):
            stmts.append(self.parse_stmt())
        self.expect(TokenKind.RBRACE)
        return ast.Block(stmts=stmts, **self.pos_of(open_brace))

    def parse_stmt(self) -> ast.Stmt:
        annotations = self.parse_annotations()
        token = self.token

        if token.kind is TokenKind.LBRACE:
            return self.parse_block()
        if self.at_keyword("if"):
            return self.parse_if()
        if self.at_keyword("while"):
            return self.parse_while(annotations=annotations)
        if self.at_keyword("for"):
            return self.parse_for(annotations=annotations)
        if self.at_keyword("return"):
            self.advance()
            value = None if self.at(TokenKind.SEMI) else self.parse_expr()
            self.expect(TokenKind.SEMI)
            return ast.Return(value=value, **self.pos_of(token))
        if self.at_keyword("break"):
            self.advance()
            self.expect(TokenKind.SEMI)
            return ast.Break(**self.pos_of(token))
        if self.at_keyword("continue"):
            self.advance()
            self.expect(TokenKind.SEMI)
            return ast.Continue(**self.pos_of(token))

        # Loop label: IDENT ':' loop-statement.
        if token.kind is TokenKind.IDENT and self.peek(1).kind is TokenKind.COLON:
            label = str(self.advance().value)
            self.advance()  # ':'
            inner = self.parse_stmt()
            if isinstance(inner, (ast.While, ast.For)):
                inner.label = label
                return inner
            raise ParseError(f"label {label!r} must precede a loop", token)

        # Variable declaration?
        if self._stmt_starts_var_decl():
            return self.parse_var_decl(annotations)

        return self.parse_expr_or_assign_stmt()

    def _stmt_starts_var_decl(self) -> bool:
        token = self.token
        if token.kind is TokenKind.KEYWORD and token.value in _PRIM_TYPES:
            return True
        if token.kind is not TokenKind.IDENT:
            return False
        # `Foo x`, `Foo[] x` are declarations; `foo.x = ...`, `foo(` are not.
        nxt = self.peek(1)
        if nxt.kind is TokenKind.IDENT:
            return True
        if nxt.kind is TokenKind.LBRACKET and self.peek(2).kind is TokenKind.RBRACKET:
            return True
        return False

    def parse_var_decl(self, annotations: list[ast.Annotation]) -> ast.VarDecl:
        decl_type = self.parse_type()
        name = self.expect(TokenKind.IDENT)
        init: Optional[ast.Expr] = None
        if self.at(TokenKind.ASSIGN):
            self.advance()
            init = self.parse_expr()
        self.expect(TokenKind.SEMI)
        return ast.VarDecl(
            name=str(name.value),
            decl_type=decl_type,
            annotations=annotations,
            init=init,
            **self.pos_of(name),
        )

    def parse_if(self) -> ast.If:
        token = self.expect_keyword("if")
        self.expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        then_body = self.parse_stmt()
        else_body: Optional[ast.Stmt] = None
        if self.at_keyword("else"):
            self.advance()
            else_body = self.parse_stmt()
        return ast.If(
            cond=cond, then_body=then_body, else_body=else_body, **self.pos_of(token)
        )

    def parse_while(self, annotations: list[ast.Annotation]) -> ast.While:
        token = self.expect_keyword("while")
        self.expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self.expect(TokenKind.RPAREN)
        body = self.parse_stmt()
        return ast.While(
            cond=cond, body=body, annotations=annotations, **self.pos_of(token)
        )

    def parse_for(self, annotations: list[ast.Annotation]) -> ast.For:
        token = self.expect_keyword("for")
        self.expect(TokenKind.LPAREN)
        init: Optional[ast.Stmt] = None
        if not self.at(TokenKind.SEMI):
            init_annotations = self.parse_annotations()
            if self._stmt_starts_var_decl():
                init = self.parse_var_decl(init_annotations)  # consumes ';'
            else:
                if init_annotations:
                    raise ParseError(
                        "annotations in a for-init require a declaration",
                        self.token,
                    )
                init = self.parse_simple_assign()
                self.expect(TokenKind.SEMI)
        else:
            self.advance()
        cond: Optional[ast.Expr] = None
        if not self.at(TokenKind.SEMI):
            cond = self.parse_expr()
        self.expect(TokenKind.SEMI)
        update: Optional[ast.Stmt] = None
        if not self.at(TokenKind.RPAREN):
            update = self.parse_simple_assign()
        self.expect(TokenKind.RPAREN)
        body = self.parse_stmt()
        return ast.For(
            init=init,
            cond=cond,
            update=update,
            body=body,
            annotations=annotations,
            **self.pos_of(token),
        )

    def parse_simple_assign(self) -> ast.Stmt:
        """Parse an assignment / increment / call without trailing ';'."""
        token = self.token
        expr = self.parse_unary()
        if self.token.kind in _ASSIGN_OPS:
            op = _ASSIGN_OPS[self.advance().kind]
            value = self.parse_expr()
            self._check_lvalue(expr, token)
            return ast.Assign(target=expr, op=op, value=value, **self.pos_of(token))
        if self.at(TokenKind.INCREMENT) or self.at(TokenKind.DECREMENT):
            op_token = self.advance()
            op = "+=" if op_token.kind is TokenKind.INCREMENT else "-="
            self._check_lvalue(expr, token)
            return ast.Assign(
                target=expr,
                op=op,
                value=ast.IntLit(value=1, **self.pos_of(op_token)),
                was_increment=True,
                **self.pos_of(token),
            )
        if isinstance(expr, (ast.Call, ast.New)):
            return ast.ExprStmt(expr=expr, **self.pos_of(token))
        raise ParseError("expected an assignment or call", token)

    def parse_expr_or_assign_stmt(self) -> ast.Stmt:
        stmt = self.parse_simple_assign()
        self.expect(TokenKind.SEMI)
        return stmt

    @staticmethod
    def _check_lvalue(expr: ast.Expr, token: Token) -> None:
        if not isinstance(expr, (ast.VarRef, ast.FieldAccess, ast.ArrayAccess)):
            raise ParseError("invalid assignment target", token)

    # -- expressions -------------------------------------------------------

    def parse_expr(self, min_precedence: int = 1) -> ast.Expr:
        """Precedence climbing: fold binary operators that bind at least
        as tightly as ``min_precedence``, left-associatively."""
        left = self.parse_unary()
        while True:
            token = self.token
            operator = BINARY_OPERATORS.get(token.kind)
            if operator is None or operator[1] < min_precedence:
                return left
            self.advance()
            op, precedence = operator
            right = self.parse_expr(precedence + 1)
            left = ast.Binary(op=op, left=left, right=right, **self.pos_of(token))

    def parse_unary(self) -> ast.Expr:
        token = self.token
        if token.kind is TokenKind.MINUS:
            self.advance()
            return ast.Unary(op="-", operand=self.parse_unary(), **self.pos_of(token))
        if token.kind is TokenKind.NOT:
            self.advance()
            return ast.Unary(op="!", operand=self.parse_unary(), **self.pos_of(token))
        if token.kind is TokenKind.LPAREN and self._looks_like_cast():
            self.advance()
            target = self.parse_type()
            self.expect(TokenKind.RPAREN)
            operand = self.parse_unary()
            return ast.Unary(
                op=f"cast:{target}", operand=operand, **self.pos_of(token)
            )
        return self.parse_postfix()

    def _looks_like_cast(self) -> bool:
        # '(' primtype ')' is unambiguously a cast; we do not support
        # class-type casts (the linear type system would forbid the
        # interesting uses anyway).
        nxt = self.peek(1)
        return (
            nxt.kind is TokenKind.KEYWORD
            and nxt.value in {"int", "float", "boolean"}
            and self.peek(2).kind is TokenKind.RPAREN
        )

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.at(TokenKind.DOT):
                self.advance()
                name = self.expect(TokenKind.IDENT)
                if self.at(TokenKind.LPAREN):
                    args = self.parse_args()
                    expr = ast.Call(
                        receiver=expr,
                        method=str(name.value),
                        args=args,
                        **self.pos_of(name),
                    )
                elif name.value == "length":
                    expr = ast.ArrayLength(array=expr, **self.pos_of(name))
                else:
                    expr = ast.FieldAccess(
                        obj=expr, field_name=str(name.value), **self.pos_of(name)
                    )
            elif self.at(TokenKind.LBRACKET):
                token = self.advance()
                index = self.parse_expr()
                self.expect(TokenKind.RBRACKET)
                expr = ast.ArrayAccess(array=expr, index=index, **self.pos_of(token))
            else:
                return expr

    def parse_args(self) -> list[ast.Expr]:
        self.expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if not self.at(TokenKind.RPAREN):
            while True:
                args.append(self.parse_expr())
                if self.at(TokenKind.COMMA):
                    self.advance()
                else:
                    break
        self.expect(TokenKind.RPAREN)
        return args

    def parse_primary(self) -> ast.Expr:
        token = self.token
        pos = self.pos_of(token)
        if token.kind is TokenKind.INT_LIT:
            self.advance()
            return ast.IntLit(value=int(token.value), **pos)
        if token.kind is TokenKind.FLOAT_LIT:
            self.advance()
            return ast.FloatLit(value=float(token.value), **pos)
        if token.kind is TokenKind.STRING_LIT:
            self.advance()
            return ast.StringLit(value=str(token.value), **pos)
        if self.at_keyword("true"):
            self.advance()
            return ast.BoolLit(value=True, **pos)
        if self.at_keyword("false"):
            self.advance()
            return ast.BoolLit(value=False, **pos)
        if self.at_keyword("null"):
            self.advance()
            return ast.NullLit(**pos)
        if self.at_keyword("this"):
            self.advance()
            return ast.ThisRef(**pos)
        if self.at_keyword("new"):
            return self.parse_new()
        if token.kind is TokenKind.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.at(TokenKind.LPAREN):
                args = self.parse_args()
                return ast.Call(receiver=None, method=str(token.value), args=args, **pos)
            return ast.VarRef(name=str(token.value), **pos)
        raise ParseError(f"unexpected token {token.value!r}", token)

    def parse_new(self) -> ast.Expr:
        token = self.expect_keyword("new")
        pos = self.pos_of(token)
        type_token = self.token
        if type_token.kind is TokenKind.KEYWORD and type_token.value in _PRIM_TYPES:
            self.advance()
            element: ast.TypeNode = ast.PrimType(
                name=str(type_token.value), **self.pos_of(type_token)
            )
            self.expect(TokenKind.LBRACKET)
            size = self.parse_expr()
            self.expect(TokenKind.RBRACKET)
            return ast.NewArray(element=element, size=size, **pos)
        name = self.expect(TokenKind.IDENT)
        if self.at(TokenKind.LBRACKET):
            self.advance()
            size = self.parse_expr()
            self.expect(TokenKind.RBRACKET)
            element = ast.ClassType(name=str(name.value), **self.pos_of(name))
            return ast.NewArray(element=element, size=size, **pos)
        args = self.parse_args()
        return ast.New(class_name=str(name.value), args=args, **pos)


def parse_program(source: str) -> ast.Program:
    """Parse sjava ``source`` text into a :class:`repro.lang.ast.Program`."""
    return _Parser(tokenize(source)).parse_program()
