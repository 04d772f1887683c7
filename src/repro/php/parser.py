"""Recursive-descent parser from PHP tokens to the AST of :mod:`ast_nodes`.

The parser consumes the *significant* token stream (whitespace and
comments already dropped — the paper's model-construction cleaning step)
and produces a :class:`~repro.php.ast_nodes.PhpFile`.

It covers the PHP 5 subset real WordPress plugins are written in:
procedural code, full OOP (classes, interfaces, traits, properties,
methods, static members, inheritance), both brace and alternative
(``if: ... endif;``) statement syntaxes, string interpolation, heredocs,
closures, and ``include``/``require``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

from ..incidents import Incident, IncidentSeverity, IncidentStage
from . import ast_nodes as ast
from .errors import PhpParseError
from .lexer import tokenize_significant
from .tokens import TokenStream, TokenType

#: statement-starting keywords the panic-mode recovery resynchronizes on
#: (in addition to ``;`` and ``}`` statement boundaries)
_SYNC_TOKENS = frozenset(
    {
        TokenType.IF,
        TokenType.WHILE,
        TokenType.DO,
        TokenType.FOR,
        TokenType.FOREACH,
        TokenType.SWITCH,
        TokenType.RETURN,
        TokenType.GLOBAL,
        TokenType.ECHO,
        TokenType.FUNCTION,
        TokenType.CLASS,
        TokenType.INTERFACE,
        TokenType.TRAIT,
        TokenType.TRY,
        TokenType.THROW,
        TokenType.NAMESPACE,
        TokenType.UNSET,
        TokenType.BREAK,
        TokenType.CONTINUE,
        TokenType.OPEN_TAG,
        TokenType.OPEN_TAG_WITH_ECHO,
        TokenType.CLOSE_TAG,
        TokenType.INLINE_HTML,
    }
)

# Levels of the one precedence-climbing loop (``Parser._parse_expression``),
# loosest first; every binary operator sits at ``_BINARY`` or above.
# ``and``/``or``/``xor`` share one left-associative level.  PHP ranks them
# or < xor < and; this parser folds them left to right, a known deviation
# kept so that front-end changes stay AST-identical.
_LOGICAL = 1
_ASSIGN = 2  # = and the compound assignments, right-associative
_TERNARY = 3  # ?: and ?:-short, right-associative
_BINARY = 4

# Binary operator precedence, PHP manual order (higher binds tighter).
# `??` is the loosest binary level and, like `**`, right-associative.
_BINARY_PRECEDENCE = {
    "??": _BINARY,
    "||": 5,
    "&&": 6,
    "|": 7,
    "^": 8,
    "&": 9,
    "==": 10,
    "!=": 10,
    "===": 10,
    "!==": 10,
    "<": 11,
    "<=": 11,
    ">": 11,
    ">=": 11,
    "<<": 12,
    ">>": 12,
    "+": 13,
    "-": 13,
    ".": 13,
    "*": 14,
    "/": 14,
    "%": 14,
    "instanceof": 16,
    "**": 17,
}

_RIGHT_ASSOC = {"**", "??"}

_COMPOUND_ASSIGN = {
    TokenType.PLUS_EQUAL: "+",
    TokenType.MINUS_EQUAL: "-",
    TokenType.MUL_EQUAL: "*",
    TokenType.DIV_EQUAL: "/",
    TokenType.CONCAT_EQUAL: ".",
    TokenType.MOD_EQUAL: "%",
    TokenType.AND_EQUAL: "&",
    TokenType.OR_EQUAL: "|",
    TokenType.XOR_EQUAL: "^",
    TokenType.SL_EQUAL: "<<",
    TokenType.SR_EQUAL: ">>",
    TokenType.COALESCE_EQUAL: "??",
}

_BINARY_TOKEN_SPELLING = {
    TokenType.COALESCE: "??",
    TokenType.BOOLEAN_AND: "&&",
    TokenType.BOOLEAN_OR: "||",
    TokenType.IS_EQUAL: "==",
    TokenType.IS_NOT_EQUAL: "!=",
    TokenType.IS_IDENTICAL: "===",
    TokenType.IS_NOT_IDENTICAL: "!==",
    TokenType.IS_SMALLER_OR_EQUAL: "<=",
    TokenType.IS_GREATER_OR_EQUAL: ">=",
    TokenType.SL: "<<",
    TokenType.SR: ">>",
    TokenType.POW: "**",
    TokenType.INSTANCEOF: "instanceof",
}

#: bare CHAR operator -> (level, operator spelling)
_CHAR_OPERATORS = {
    op: (level, op) for op, level in _BINARY_PRECEDENCE.items() if len(op) == 1
}
_CHAR_OPERATORS["="] = (_ASSIGN, "=")
_CHAR_OPERATORS["?"] = (_TERNARY, "?")

#: operator token type -> (level, operator spelling)
_TOKEN_OPERATORS = {
    type_: (_BINARY_PRECEDENCE[op], op) for type_, op in _BINARY_TOKEN_SPELLING.items()
}
_TOKEN_OPERATORS.update(
    {type_: (_ASSIGN, op + "=") for type_, op in _COMPOUND_ASSIGN.items()}
)
_TOKEN_OPERATORS[TokenType.LOGICAL_AND] = (_LOGICAL, "and")
_TOKEN_OPERATORS[TokenType.LOGICAL_OR] = (_LOGICAL, "or")
_TOKEN_OPERATORS[TokenType.LOGICAL_XOR] = (_LOGICAL, "xor")

_CAST_NAMES = {
    TokenType.INT_CAST: "int",
    TokenType.BOOL_CAST: "bool",
    TokenType.DOUBLE_CAST: "float",
    TokenType.STRING_CAST: "string",
    TokenType.ARRAY_CAST: "array",
    TokenType.OBJECT_CAST: "object",
    TokenType.UNSET_CAST: "unset",
}

_INCLUDE_KINDS = {
    TokenType.INCLUDE: "include",
    TokenType.INCLUDE_ONCE: "include_once",
    TokenType.REQUIRE: "require",
    TokenType.REQUIRE_ONCE: "require_once",
}

# Non-CHAR token types that introduce a prefix form in `_parse_unary`.
# Anything else skips straight to the postfix/primary ladder.
_UNARY_PREFIX_TYPES = frozenset(_CAST_NAMES) | frozenset(_INCLUDE_KINDS) | {
    TokenType.INC,
    TokenType.DEC,
    TokenType.PRINT,
    TokenType.THROW,
    TokenType.NEW,
    TokenType.CLONE,
    TokenType.EXIT,
}

#: primaries that name a constant or function: a qualified name or a
#: magic constant (``__FILE__`` ...)
_NAME_CONSTANT_TYPES = frozenset(
    {
        TokenType.NS_SEPARATOR,
        TokenType.FILE,
        TokenType.LINE,
        TokenType.DIR,
        TokenType.FUNC_C,
        TokenType.CLASS_C,
        TokenType.METHOD_C,
    }
)

_DOUBLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "v": "\v",
    "f": "\f",
    "e": "\x1b",
    "\\": "\\",
    "$": "$",
    '"': '"',
}

_SINGLE_ESCAPE = re.compile(r"\\([\\'])")
#: one double-quoted escape: a named one, octal, ``\xHH`` or ``\u{...}``
_DOUBLE_ESCAPE = re.compile(
    r'\\(?:([ntrvfe\\$"])|([0-7]{1,3})|x([0-9A-Fa-f]{1,2})|u\{([0-9A-Fa-f]+)\})'
)


def _decode_double_escape(match: "re.Match") -> str:
    named, octal, hexadecimal, codepoint = match.groups()
    if named is not None:
        return _DOUBLE_ESCAPES[named]
    if octal is not None:
        return chr(int(octal, 8) & 0xFF)  # PHP wraps "\400" to "\000"
    if hexadecimal is not None:
        return chr(int(hexadecimal, 16))
    value = int(codepoint, 16)
    return chr(value) if value <= 0x10FFFF else match.group(0)


def unescape_single_quoted(raw: str) -> str:
    """Decode the contents of a single-quoted PHP string literal."""
    body = raw[1:-1]
    if "\\" not in body:
        return body
    return _SINGLE_ESCAPE.sub(r"\1", body)


def unescape_double_quoted(body: str) -> str:
    """Decode escape sequences of a double-quoted PHP string body.

    Unknown escapes (``\\q``) keep their backslash, as in PHP.
    """
    if "\\" not in body:
        return body
    return _DOUBLE_ESCAPE.sub(_decode_double_escape, body)


class Parser:
    """One-pass recursive-descent parser with precedence climbing.

    It reads the lexer's :class:`~repro.php.tokens.TokenStream` lists
    directly — ``types[pos]``, ``values[pos]``, ``lines[pos]`` — and
    never builds a token object.  The stream's EOF sentinel makes every
    read at ``pos`` a plain list index: ``pos`` never moves past it.
    """

    def __init__(
        self, tokens: TokenStream, filename: str = "<string>", recover: bool = False
    ) -> None:
        self.types = tokens.types
        self.values = tokens.values
        self.lines = tokens.lines
        self.filename = filename
        self.pos = 0
        #: with ``recover=True``, a :class:`PhpParseError` inside a
        #: statement triggers panic-mode resynchronization instead of
        #: aborting the file: the parser skips to the next statement
        #: boundary, emits an :class:`~repro.php.ast_nodes.ErrorStmt`,
        #: and records the incident here
        self.recover = recover
        self.incidents: List[Incident] = []

    # -- token plumbing ----------------------------------------------------

    def _type_at(self, offset: int) -> TokenType:
        """Type of the token ``offset`` ahead (EOF past the end)."""
        index = self.pos + offset
        types = self.types
        return types[index] if index < len(types) else TokenType.EOF

    def _char_at(self, offset: int, char: str) -> bool:
        """True when the token ``offset`` ahead is the bare ``char``."""
        index = self.pos + offset
        return (
            index < len(self.types)
            and self.values[index] == char
            and self.types[index] is TokenType.CHAR
        )

    def _found(self) -> str:
        """``T_NAME 'value'`` of the current token, for error messages."""
        pos = self.pos
        return f"{self.types[pos].value} {self.values[pos]!r}"

    def _next(self) -> str:
        """Consume the current token (never the EOF sentinel); its value."""
        pos = self.pos
        if self.types[pos] is not TokenType.EOF:
            self.pos = pos + 1
        return self.values[pos]

    def _at(self, type_: TokenType) -> bool:
        return self.types[self.pos] is type_

    def _at_char(self, char: str) -> bool:
        pos = self.pos
        return self.values[pos] == char and self.types[pos] is TokenType.CHAR

    def _accept(self, type_: TokenType) -> bool:
        if self.types[self.pos] is type_:
            self.pos += 1
            return True
        return False

    def _accept_char(self, char: str) -> bool:
        pos = self.pos
        if self.values[pos] == char and self.types[pos] is TokenType.CHAR:
            self.pos = pos + 1
            return True
        return False

    def _expect(self, type_: TokenType) -> str:
        """Consume a token of ``type_``; its value."""
        pos = self.pos
        if self.types[pos] is not type_:
            raise PhpParseError(
                f"expected {type_.value}, found {self._found()}",
                self.filename,
                self.lines[pos],
            )
        self.pos = pos + 1
        return self.values[pos]

    def _expect_char(self, char: str) -> None:
        pos = self.pos
        if self.values[pos] != char or self.types[pos] is not TokenType.CHAR:
            raise PhpParseError(
                f"expected {char!r}, found {self._found()}",
                self.filename,
                self.lines[pos],
            )
        self.pos = pos + 1

    def _error(self, message: str) -> PhpParseError:
        return PhpParseError(message, self.filename, self.lines[self.pos])

    # -- entry point ----------------------------------------------------------

    def parse_file(self) -> ast.PhpFile:
        statements: List[ast.Statement] = []
        while not self._at(TokenType.EOF):
            statement = self._parse_statement_recovering()
            if statement is not None:
                statements.append(statement)
        return ast.PhpFile(line=1, filename=self.filename, statements=statements)

    def _parse_statement_recovering(self) -> Optional[ast.Statement]:
        """Parse one statement; in recover mode, resync on parse errors."""
        if not self.recover:
            return self._parse_statement()
        start = self.pos
        try:
            return self._parse_statement()
        except PhpParseError as error:
            return self._recover_statement(start, error)

    def _recover_statement(self, start: int, error: PhpParseError) -> ast.ErrorStmt:
        """Panic-mode recovery: skip to the next statement boundary.

        Discards tokens from the failed statement until a ``;`` (consumed),
        a ``}`` closing the enclosing block (left for the caller), or the
        next statement-starting keyword, balancing any brackets opened
        along the way.  Emits an :class:`~repro.php.ast_nodes.ErrorStmt`
        covering the skipped span and records a recovered parse incident.
        """
        start_line = self.lines[start]
        if self.pos <= start:
            self.pos = start
            self._next()  # guarantee forward progress on the very first token
        types, values = self.types, self.values
        depth = 0
        while types[self.pos] is not TokenType.EOF:
            type_ = types[self.pos]
            if type_ is TokenType.CHAR:
                char = values[self.pos]
                if char == "{" or char == "(" or char == "[":
                    depth += 1
                elif char == ")" or char == "]":
                    if depth > 0:
                        depth -= 1
                elif char == "}":
                    if depth == 0:
                        break  # the enclosing block's closer: leave it
                    depth -= 1
                elif depth == 0 and char == ";":
                    self._next()  # the boundary belongs to the bad statement
                    break
            elif depth == 0 and type_ in _SYNC_TOKENS:
                break
            self._next()
        end_line = self.lines[self.pos - 1] if self.pos > 0 else start_line
        self.incidents.append(
            Incident(
                stage=IncidentStage.PARSE,
                severity=IncidentSeverity.WARNING,
                file=self.filename,
                reason=error.message,
                recovered=True,
                line=start_line,
                end_line=end_line,
            )
        )
        return ast.ErrorStmt(
            line=start_line,
            reason=error.message,
            end_line=end_line,
            tokens_skipped=self.pos - start,
        )

    # -- statements -------------------------------------------------------------

    def _parse_statement(self) -> Optional[ast.Statement]:
        pos = self.pos
        type_ = self.types[pos]
        handler = _STATEMENT_PARSERS.get(type_)
        if handler is not None:
            return handler(self)
        if type_ is TokenType.CHAR:
            char = self.values[pos]
            if char == ";":
                self.pos = pos + 1
                return None
            if char == "{":
                self.pos = pos + 1
                body = self._parse_block_statements()
                self._expect_char("}")
                return ast.Block(line=self.lines[pos], statements=body)
        elif type_ is TokenType.STATIC:
            if self._type_at(1) is TokenType.VARIABLE:
                return self._parse_static_vars()
        elif type_ is TokenType.FUNCTION:
            if self._is_function_declaration():
                return self._parse_function_declaration()
        elif type_ is TokenType.STRING:
            if self._char_at(1, ":") and not self._char_at(2, ":"):
                self.pos = pos + 2
                return ast.LabelStatement(line=self.lines[pos], name=self.values[pos])
        expr = self._parse_expression()
        self._end_statement()
        return ast.ExpressionStatement(line=self.lines[pos], expr=expr)

    def _skip_tag(self) -> None:
        """``<?php`` and ``?>`` carry no statement."""
        self.pos += 1

    def _parse_inline_html(self) -> ast.InlineHTML:
        pos = self.pos
        self.pos = pos + 1
        return ast.InlineHTML(line=self.lines[pos], text=self.values[pos])

    def _parse_echo(self) -> ast.EchoStatement:
        """``echo`` or ``<?=``, then the expression list."""
        line = self.lines[self.pos]
        self.pos += 1
        return self._parse_echo_tail(line)

    def _parse_return(self) -> ast.ReturnStatement:
        line = self.lines[self.pos]
        self.pos += 1
        expr = None
        if not self._at_char(";") and not self._at(TokenType.CLOSE_TAG):
            expr = self._parse_expression()
        self._end_statement()
        return ast.ReturnStatement(line=line, expr=expr)

    def _parse_throw(self) -> ast.ThrowStatement:
        line = self.lines[self.pos]
        self.pos += 1
        expr = self._parse_expression()
        self._end_statement()
        return ast.ThrowStatement(line=line, expr=expr)

    def _parse_goto(self) -> ast.GotoStatement:
        line = self.lines[self.pos]
        self.pos += 1
        label = self._expect(TokenType.STRING)
        self._end_statement()
        return ast.GotoStatement(line=line, label=label)

    def _end_statement(self) -> None:
        """Consume the terminating ``;`` (a ``?>`` also terminates)."""
        if self._accept_char(";"):
            return
        if self._at(TokenType.CLOSE_TAG) or self._at(TokenType.EOF):
            return
        raise self._error(f"expected ';', found {self._found()}")

    def _parse_block_statements(self) -> List[ast.Statement]:
        """Parse the statements of a ``{...}`` block up to its ``}``
        (also stopping at a stray ``case``/``default``/``endswitch``)."""
        statements: List[ast.Statement] = []
        types, values = self.types, self.values
        while True:
            type_ = types[self.pos]
            if type_ is TokenType.EOF:
                break
            if type_ is TokenType.CHAR and values[self.pos] == "}":
                break
            if type_ in (TokenType.CASE, TokenType.DEFAULT, TokenType.ENDSWITCH):
                break
            statement = self._parse_statement_recovering()
            if statement is not None:
                statements.append(statement)
        return statements

    def _parse_body(self, *end_keywords: TokenType) -> List[ast.Statement]:
        """Parse a statement body: ``{...}``, ``: ... endX;`` or single stmt."""
        if self._at_char("{"):
            self._next()
            body = self._parse_block_statements()
            self._expect_char("}")
            return body
        if self._at_char(":"):
            self._next()
            body: List[ast.Statement] = []
            stop = set(end_keywords) | {TokenType.ELSE, TokenType.ELSEIF}
            while not self._at(TokenType.EOF) and self.types[self.pos] not in stop:
                statement = self._parse_statement_recovering()
                if statement is not None:
                    body.append(statement)
            return body
        statement = self._parse_statement()
        return [statement] if statement is not None else []

    # -- control flow --------------------------------------------------------

    def _parse_echo_tail(self, line: int) -> ast.EchoStatement:
        exprs = [self._parse_expression()]
        while self._accept_char(","):
            exprs.append(self._parse_expression())
        self._end_statement()
        return ast.EchoStatement(line=line, exprs=exprs)

    def _parse_paren_expression(self) -> ast.Expr:
        self._expect_char("(")
        expr = self._parse_expression()
        self._expect_char(")")
        return expr

    def _parse_if(self) -> ast.IfStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.IF)
        cond = self._parse_paren_expression()
        alternative = self._at_char(":")
        then = self._parse_body(TokenType.ENDIF)
        elseifs: List[ast.ElseIfClause] = []
        otherwise: Optional[List[ast.Statement]] = None
        while True:
            if self._at(TokenType.ELSEIF):
                clause_line = self.lines[self.pos]
                self._next()
                clause_cond = self._parse_paren_expression()
                clause_body = self._parse_body(TokenType.ENDIF)
                elseifs.append(
                    ast.ElseIfClause(line=clause_line, cond=clause_cond, body=clause_body)
                )
                continue
            if self._at(TokenType.ELSE) and self._type_at(1) is TokenType.IF:
                # `else if` treated as elseif with a nested parse
                clause_line = self.lines[self.pos]
                self._next()
                self._next()
                clause_cond = self._parse_paren_expression()
                clause_body = self._parse_body(TokenType.ENDIF)
                elseifs.append(
                    ast.ElseIfClause(line=clause_line, cond=clause_cond, body=clause_body)
                )
                continue
            if self._at(TokenType.ELSE):
                self._next()
                otherwise = self._parse_body(TokenType.ENDIF)
            break
        if alternative:
            self._expect(TokenType.ENDIF)
            self._end_statement()
        return ast.IfStatement(
            line=line, cond=cond, then=then, elseifs=elseifs, otherwise=otherwise
        )

    def _parse_while(self) -> ast.WhileStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.WHILE)
        cond = self._parse_paren_expression()
        alternative = self._at_char(":")
        body = self._parse_body(TokenType.ENDWHILE)
        if alternative:
            self._expect(TokenType.ENDWHILE)
            self._end_statement()
        return ast.WhileStatement(line=line, cond=cond, body=body)

    def _parse_do_while(self) -> ast.DoWhileStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.DO)
        body = self._parse_body()
        self._expect(TokenType.WHILE)
        cond = self._parse_paren_expression()
        self._end_statement()
        return ast.DoWhileStatement(line=line, body=body, cond=cond)

    def _parse_expr_list_until(self, *closers: str) -> List[ast.Expr]:
        exprs: List[ast.Expr] = []
        if any(self._at_char(closer) for closer in closers):
            return exprs
        exprs.append(self._parse_expression())
        while self._accept_char(","):
            exprs.append(self._parse_expression())
        return exprs

    def _parse_for(self) -> ast.ForStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.FOR)
        self._expect_char("(")
        init = self._parse_expr_list_until(";")
        self._expect_char(";")
        cond = self._parse_expr_list_until(";")
        self._expect_char(";")
        update = self._parse_expr_list_until(")")
        self._expect_char(")")
        alternative = self._at_char(":")
        body = self._parse_body(TokenType.ENDFOR)
        if alternative:
            self._expect(TokenType.ENDFOR)
            self._end_statement()
        return ast.ForStatement(line=line, init=init, cond=cond, update=update, body=body)

    def _parse_foreach(self) -> ast.ForeachStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.FOREACH)
        self._expect_char("(")
        subject = self._parse_expression()
        self._expect(TokenType.AS)
        by_ref = self._accept_char("&")
        first = self._parse_expression()
        key_var: Optional[ast.Expr] = None
        value_var = first
        if self._accept(TokenType.DOUBLE_ARROW):
            key_var = first
            by_ref = self._accept_char("&")
            value_var = self._parse_expression()
        self._expect_char(")")
        alternative = self._at_char(":")
        body = self._parse_body(TokenType.ENDFOREACH)
        if alternative:
            self._expect(TokenType.ENDFOREACH)
            self._end_statement()
        return ast.ForeachStatement(
            line=line,
            subject=subject,
            key_var=key_var,
            value_var=value_var,
            by_ref=by_ref,
            body=body,
        )

    def _parse_switch(self) -> ast.SwitchStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.SWITCH)
        subject = self._parse_paren_expression()
        alternative = False
        if self._accept_char("{"):
            pass
        elif self._accept_char(":"):
            alternative = True
        else:
            raise self._error("expected '{' or ':' after switch (...)")
        cases: List[ast.SwitchCase] = []
        while not self._at(TokenType.EOF):
            if self._at_char("}") or self._at(TokenType.ENDSWITCH):
                break
            if self._accept_char(";"):
                continue
            case_line = self.lines[self.pos]
            type_ = self.types[self.pos]
            if type_ is TokenType.CASE:
                self._next()
                test: Optional[ast.Expr] = self._parse_expression()
            elif type_ is TokenType.DEFAULT:
                self._next()
                test = None
            else:
                raise self._error(f"expected case/default, found {type_.value}")
            if not self._accept_char(":"):
                self._accept_char(";")
            body = self._parse_block_statements()
            cases.append(ast.SwitchCase(line=case_line, test=test, body=body))
        if alternative:
            self._expect(TokenType.ENDSWITCH)
            self._end_statement()
        else:
            self._expect_char("}")
        return ast.SwitchStatement(line=line, subject=subject, cases=cases)

    def _parse_break_continue(self, cls) -> ast.Statement:
        line = self.lines[self.pos]
        self._next()
        level = 1
        if self._at(TokenType.LNUMBER):
            level = int(self._next(), 0)
        self._end_statement()
        return cls(line=line, level=level)

    def _parse_global(self) -> ast.GlobalStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.GLOBAL)
        names = [self._expect(TokenType.VARIABLE)[1:]]
        while self._accept_char(","):
            names.append(self._expect(TokenType.VARIABLE)[1:])
        self._end_statement()
        return ast.GlobalStatement(line=line, names=names)

    def _parse_static_vars(self) -> ast.StaticVarStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.STATIC)
        vars_: List = []
        while True:
            name = self._expect(TokenType.VARIABLE)[1:]
            default = None
            if self._accept_char("="):
                default = self._parse_expression()
            vars_.append((name, default))
            if not self._accept_char(","):
                break
        self._end_statement()
        return ast.StaticVarStatement(line=line, vars=vars_)

    def _parse_unset(self) -> ast.UnsetStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.UNSET)
        self._expect_char("(")
        vars_ = self._parse_expr_list_until(")")
        self._expect_char(")")
        self._end_statement()
        return ast.UnsetStatement(line=line, vars=vars_)

    def _parse_try(self) -> ast.TryStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.TRY)
        self._expect_char("{")
        body = self._parse_block_statements()
        self._expect_char("}")
        catches: List[ast.CatchClause] = []
        finally_body: Optional[List[ast.Statement]] = None
        while self._at(TokenType.CATCH):
            catch_line = self.lines[self.pos]
            self._next()
            self._expect_char("(")
            class_name = self._parse_qualified_name()
            var_name = ""
            if self._at(TokenType.VARIABLE):
                var_name = self._next()[1:]
            self._expect_char(")")
            self._expect_char("{")
            catch_body = self._parse_block_statements()
            self._expect_char("}")
            catches.append(
                ast.CatchClause(
                    line=catch_line, class_name=class_name, var_name=var_name, body=catch_body
                )
            )
        if self._at(TokenType.STRING) and self.values[self.pos].lower() == "finally":
            self._next()
            self._expect_char("{")
            finally_body = self._parse_block_statements()
            self._expect_char("}")
        return ast.TryStatement(
            line=line, body=body, catches=catches, finally_body=finally_body
        )

    # -- declarations -----------------------------------------------------------

    def _is_function_declaration(self) -> bool:
        """Distinguish ``function name(...)`` from a closure expression."""
        offset = 1
        if self._char_at(offset, "&"):
            offset += 1
        return self._type_at(offset) is TokenType.STRING

    def _parse_qualified_name(self) -> str:
        """Parse a possibly namespace-qualified name into one string."""
        parts: List[str] = []
        if self._accept(TokenType.NS_SEPARATOR):
            pass
        types = self.types
        while True:
            type_ = types[self.pos]
            if type_ is TokenType.STRING or type_ is TokenType.ARRAY or (
                type_ is TokenType.STATIC
            ):
                parts.append(self._next())
            else:
                break
            if not self._accept(TokenType.NS_SEPARATOR):
                break
        if not parts:
            raise self._error(f"expected name, found {types[self.pos].value}")
        return "\\".join(parts)

    def _parse_params(self) -> List[ast.Param]:
        self._expect_char("(")
        params: List[ast.Param] = []
        while not self._at_char(")") and not self._at(TokenType.EOF):
            line = self.lines[self.pos]
            type_hint: Optional[str] = None
            if self._at(TokenType.STRING) or self._at(TokenType.NS_SEPARATOR):
                type_hint = self._parse_qualified_name()
            elif self._at(TokenType.ARRAY):
                type_hint = self._next()
            by_ref = self._accept_char("&")
            self._accept(TokenType.ELLIPSIS)
            name = self._expect(TokenType.VARIABLE)[1:]
            default = None
            if self._accept_char("="):
                default = self._parse_expression()
            params.append(
                ast.Param(
                    line=line, name=name, default=default, by_ref=by_ref, type_hint=type_hint
                )
            )
            if not self._accept_char(","):
                break
        self._expect_char(")")
        return params

    def _parse_function_declaration(self) -> ast.FunctionDecl:
        line = self.lines[self.pos]
        self._expect(TokenType.FUNCTION)
        by_ref = self._accept_char("&")
        name = self._expect(TokenType.STRING)
        params = self._parse_params()
        self._expect_char("{")
        body = self._parse_block_statements()
        self._expect_char("}")
        return ast.FunctionDecl(line=line, name=name, params=params, body=body, by_ref=by_ref)

    def _parse_class_declaration(self) -> ast.ClassDecl:
        is_abstract = False
        is_final = False
        while True:
            if self._accept(TokenType.ABSTRACT):
                is_abstract = True
            elif self._accept(TokenType.FINAL):
                is_final = True
            else:
                break
        type_ = self.types[self.pos]
        if type_ is TokenType.CLASS:
            kind = "class"
        elif type_ is TokenType.INTERFACE:
            kind = "interface"
        elif type_ is TokenType.TRAIT:
            kind = "trait"
        else:
            raise self._error(f"expected class/interface/trait, found {type_.value}")
        line = self.lines[self.pos]
        self._next()
        name = self._expect(TokenType.STRING)
        parent: Optional[str] = None
        interfaces: List[str] = []
        if self._accept(TokenType.EXTENDS):
            parent = self._parse_qualified_name()
            # interfaces may extend several parents; keep the first, record rest
            while self._accept_char(","):
                interfaces.append(self._parse_qualified_name())
        if self._accept(TokenType.IMPLEMENTS):
            interfaces.append(self._parse_qualified_name())
            while self._accept_char(","):
                interfaces.append(self._parse_qualified_name())
        self._expect_char("{")
        decl = ast.ClassDecl(
            line=line,
            name=name,
            parent=parent,
            interfaces=interfaces,
            kind=kind,
            is_abstract=is_abstract,
            is_final=is_final,
        )
        while not self._at_char("}") and not self._at(TokenType.EOF):
            self._parse_class_member(decl)
        self._expect_char("}")
        return decl

    def _parse_class_member(self, decl: ast.ClassDecl) -> None:  # noqa: C901
        if self._accept_char(";"):
            return
        if self._at(TokenType.USE):
            self._next()
            decl.uses.append(self._parse_qualified_name())
            while self._accept_char(","):
                decl.uses.append(self._parse_qualified_name())
            if self._accept_char("{"):
                while not self._accept_char("}") and not self._at(TokenType.EOF):
                    self._next()
            else:
                self._end_statement()
            return
        if self._at(TokenType.CONST):
            self._next()
            while True:
                const_line = self.lines[self.pos]
                const_name = self._expect(TokenType.STRING)
                self._expect_char("=")
                value = self._parse_expression()
                decl.constants.append(
                    ast.ClassConstDecl(line=const_line, name=const_name, value=value)
                )
                if not self._accept_char(","):
                    break
            self._end_statement()
            return

        visibility = "public"
        static = False
        abstract = False
        final = False
        while True:
            type_ = self.types[self.pos]
            if type_ is TokenType.PUBLIC or type_ is TokenType.VAR:
                visibility = "public"
                self._next()
            elif type_ is TokenType.PROTECTED:
                visibility = "protected"
                self._next()
            elif type_ is TokenType.PRIVATE:
                visibility = "private"
                self._next()
            elif type_ is TokenType.STATIC:
                static = True
                self._next()
            elif type_ is TokenType.ABSTRACT:
                abstract = True
                self._next()
            elif type_ is TokenType.FINAL:
                final = True
                self._next()
            else:
                break

        if self._at(TokenType.FUNCTION):
            line = self.lines[self.pos]
            self._next()
            by_ref = self._accept_char("&")
            name_type = self.types[self.pos]
            if name_type is TokenType.STRING or name_type.value.startswith("T_"):
                name = self._next()
            else:
                raise self._error("expected method name")
            params = self._parse_params()
            body: Optional[List[ast.Statement]] = None
            if self._accept_char("{"):
                body = self._parse_block_statements()
                self._expect_char("}")
            else:
                self._end_statement()
            decl.methods.append(
                ast.MethodDecl(
                    line=line,
                    name=name,
                    params=params,
                    body=body,
                    visibility=visibility,
                    static=static,
                    abstract=abstract,
                    final=final,
                    by_ref=by_ref,
                )
            )
            return

        if self._at(TokenType.VARIABLE):
            while True:
                line = self.lines[self.pos]
                name = self._expect(TokenType.VARIABLE)[1:]
                default = None
                if self._accept_char("="):
                    default = self._parse_expression()
                decl.properties.append(
                    ast.PropertyDecl(
                        line=line,
                        name=name,
                        default=default,
                        visibility=visibility,
                        static=static,
                    )
                )
                if not self._accept_char(","):
                    break
            self._end_statement()
            return

        raise self._error(
            f"unexpected token in class body: {self.types[self.pos].value}"
        )

    def _parse_namespace(self) -> ast.NamespaceStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.NAMESPACE)
        name = ""
        if self._at(TokenType.STRING):
            name = self._parse_qualified_name()
        if self._accept_char("{"):
            body = self._parse_block_statements()
            self._expect_char("}")
            return ast.NamespaceStatement(line=line, name=name, body=body)
        self._end_statement()
        return ast.NamespaceStatement(line=line, name=name, body=None)

    def _parse_use(self) -> ast.UseStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.USE)
        name = self._parse_qualified_name()
        alias = None
        if self._accept(TokenType.AS):
            alias = self._expect(TokenType.STRING)
        while self._accept_char(","):
            self._parse_qualified_name()
            if self._accept(TokenType.AS):
                self._expect(TokenType.STRING)
        self._end_statement()
        return ast.UseStatement(line=line, name=name, alias=alias)

    def _parse_const(self) -> ast.ConstStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.CONST)
        consts: List = []
        while True:
            name = self._expect(TokenType.STRING)
            self._expect_char("=")
            value = self._parse_expression()
            consts.append((name, value))
            if not self._accept_char(","):
                break
        self._end_statement()
        return ast.ConstStatement(line=line, consts=consts)

    def _parse_declare(self) -> ast.DeclareStatement:
        line = self.lines[self.pos]
        self._expect(TokenType.DECLARE)
        self._expect_char("(")
        directives: List = []
        while not self._at_char(")"):
            name = self._expect(TokenType.STRING)
            self._expect_char("=")
            value = self._parse_expression()
            directives.append((name, value))
            if not self._accept_char(","):
                break
        self._expect_char(")")
        body: Optional[List[ast.Statement]] = None
        if self._accept_char("{"):
            body = self._parse_block_statements()
            self._expect_char("}")
        else:
            self._accept_char(";")
        return ast.DeclareStatement(line=line, directives=directives, body=body)

    # -- expressions ---------------------------------------------------------------

    def _parse_expression(self, min_level: int = _LOGICAL) -> ast.Expr:
        """Precedence climbing over :data:`_CHAR_OPERATORS` and
        :data:`_TOKEN_OPERATORS`: parse an operand, then fold in every
        operator whose level is at least ``min_level``.

        Binary operators take a right operand one level tighter (their
        own level when right-associative).  The three loosest levels
        are not binary: an assignment's value and both arms of a
        ternary are parsed at :data:`_ASSIGN`, and so is each operand
        of ``and``/``or``/``xor``.
        """
        left = self._parse_unary()
        types = self.types
        values = self.values
        char_type = TokenType.CHAR
        char_operators_get = _CHAR_OPERATORS.get
        token_operators_get = _TOKEN_OPERATORS.get
        while True:
            pos = self.pos
            type_ = types[pos]
            if type_ is char_type:
                entry = char_operators_get(values[pos])
            else:
                entry = token_operators_get(type_)
            if entry is None:
                return left
            level, op = entry
            if level < min_level:
                return left
            line = self.lines[pos]
            self.pos = pos + 1
            if level >= _BINARY:
                if op == "instanceof":
                    class_name: Union[str, ast.Expr]
                    if self._at(TokenType.STRING) or self._at(TokenType.NS_SEPARATOR):
                        class_name = self._parse_qualified_name()
                    else:
                        class_name = self._parse_unary()
                    left = ast.InstanceofExpr(line=line, expr=left, class_name=class_name)
                    continue
                right = self._parse_expression(
                    level if op in _RIGHT_ASSOC else level + 1
                )
                left = ast.Binary(line=line, op=op, left=left, right=right)
            elif level == _TERNARY:
                if self._accept_char(":"):
                    if_true = None
                else:
                    if_true = self._parse_expression(_ASSIGN)
                    self._expect_char(":")
                if_false = self._parse_expression(_ASSIGN)
                left = ast.Ternary(line=line, cond=left, if_true=if_true, if_false=if_false)
            elif level == _ASSIGN:
                if op == "=":
                    by_ref = self._accept_char("&")
                    value = self._parse_expression(_ASSIGN)
                    left = ast.Assignment(
                        line=line, target=left, value=value, op="=", by_ref=by_ref
                    )
                else:
                    value = self._parse_expression(_ASSIGN)
                    left = ast.Assignment(line=line, target=left, value=value, op=op)
            else:  # and / or / xor
                right = self._parse_expression(_ASSIGN)
                left = ast.Binary(line=line, op=op, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        pos = self.pos
        type_ = self.types[pos]
        if type_ is TokenType.CHAR:
            value = self.values[pos]
            if value == "!" or value == "-" or value == "+" or value == "~" or value == "@":
                self.pos = pos + 1
                operand = self._parse_unary()
                return ast.Unary(line=self.lines[pos], op=value, operand=operand)
            return self._parse_postfix_operators(self._parse_primary())
        if type_ not in _UNARY_PREFIX_TYPES:
            return self._parse_postfix_operators(self._parse_primary())
        if type_ is TokenType.NEW:
            return self._parse_new()
        line = self.lines[pos]
        self.pos = pos + 1
        if type_ in _CAST_NAMES:
            operand = self._parse_unary()
            return ast.Cast(line=line, to=_CAST_NAMES[type_], operand=operand)
        if type_ is TokenType.INC or type_ is TokenType.DEC:
            target = self._parse_unary()
            return ast.IncDec(line=line, op=self.values[pos], target=target, prefix=True)
        if type_ in _INCLUDE_KINDS:
            path = self._parse_expression()
            return ast.IncludeExpr(line=line, kind=_INCLUDE_KINDS[type_], path=path)
        if type_ is TokenType.PRINT:
            return ast.PrintExpr(line=line, expr=self._parse_expression())
        if type_ is TokenType.THROW:
            return ast.Unary(line=line, op="throw", operand=self._parse_expression())
        if type_ is TokenType.CLONE:
            return ast.Clone(line=line, expr=self._parse_unary())
        # EXIT, the last prefix type
        expr = None
        if self._accept_char("("):
            if not self._at_char(")"):
                expr = self._parse_expression()
            self._expect_char(")")
        return ast.ExitExpr(line=line, expr=expr)

    def _parse_new(self) -> ast.Expr:
        line = self.lines[self.pos]
        self._expect(TokenType.NEW)
        class_name: Union[str, ast.Expr]
        type_ = self.types[self.pos]
        if type_ is TokenType.STRING or type_ is TokenType.NS_SEPARATOR or (
            type_ is TokenType.STATIC
        ):
            class_name = self._parse_qualified_name()
        elif type_ is TokenType.VARIABLE:
            class_name = self._parse_postfix()
        else:
            raise self._error("expected class name after new")
        args: List[ast.Expr] = []
        if self._at_char("("):
            args = self._parse_call_args()
        node: ast.Expr = ast.New(line=line, class_name=class_name, args=args)
        return self._parse_postfix_operators(node)

    def _parse_call_args(self) -> List[ast.Expr]:
        self._expect_char("(")
        args: List[ast.Expr] = []
        while not self._at_char(")") and not self._at(TokenType.EOF):
            self._accept_char("&")  # call-time pass-by-reference (PHP4 style)
            self._accept(TokenType.ELLIPSIS)
            args.append(self._parse_expression())
            if not self._accept_char(","):
                break
        self._expect_char(")")
        return args

    def _parse_postfix(self) -> ast.Expr:
        node = self._parse_primary()
        return self._parse_postfix_operators(node)

    def _parse_postfix_operators(self, node: ast.Expr) -> ast.Expr:  # noqa: C901
        types = self.types
        values = self.values
        while True:
            pos = self.pos
            type_ = types[pos]
            if type_ is TokenType.CHAR:
                value = values[pos]
                if value == "[":
                    self.pos = pos + 1
                    index: Optional[ast.Expr] = None
                    if not self._at_char("]"):
                        index = self._parse_expression()
                    self._expect_char("]")
                    node = ast.ArrayAccess(line=self.lines[pos], array=node, index=index)
                    continue
                if value == "(" and isinstance(
                    node, (ast.Variable, ast.ArrayAccess, ast.PropertyAccess)
                ):
                    args = self._parse_call_args()
                    node = ast.FunctionCall(line=self.lines[pos], name=node, args=args)
                    continue
                if value == "{" and isinstance(
                    node, (ast.Variable, ast.ArrayAccess, ast.PropertyAccess)
                ):
                    # string offset access $str{0} (PHP5) — treat as array access
                    self.pos = pos + 1
                    index = self._parse_expression()
                    self._expect_char("}")
                    node = ast.ArrayAccess(line=self.lines[pos], array=node, index=index)
                    continue
                return node
            if type_ is TokenType.OBJECT_OPERATOR:
                self.pos = pos + 1
                name = self._parse_member_name()
                if self._at_char("("):
                    args = self._parse_call_args()
                    node = ast.MethodCall(
                        line=self.lines[pos], object=node, method=name, args=args
                    )
                else:
                    node = ast.PropertyAccess(line=self.lines[pos], object=node, name=name)
                continue
            if type_ is TokenType.DOUBLE_COLON:
                line = self.lines[pos]
                class_name = self._static_class_name(node)
                self.pos = pos + 1
                if self._at(TokenType.VARIABLE):
                    prop = self._next()[1:]
                    if self._at_char("("):
                        args = self._parse_call_args()
                        node = ast.StaticCall(
                            line=line,
                            class_name=class_name,
                            method=ast.Variable(line=line, name=prop),
                            args=args,
                        )
                    else:
                        node = ast.StaticPropertyAccess(
                            line=line, class_name=class_name, name=prop
                        )
                    continue
                if self._accept(TokenType.CLASS):
                    node = ast.ClassConstAccess(line=line, class_name=class_name, name="class")
                    continue
                member = self._parse_member_name()
                if self._at_char("("):
                    args = self._parse_call_args()
                    node = ast.StaticCall(
                        line=line, class_name=class_name, method=member, args=args
                    )
                else:
                    if not isinstance(member, str):
                        raise self._error("dynamic class constant access")
                    node = ast.ClassConstAccess(line=line, class_name=class_name, name=member)
                continue
            if type_ is TokenType.INC or type_ is TokenType.DEC:
                self.pos = pos + 1
                node = ast.IncDec(
                    line=self.lines[pos], op=values[pos], target=node, prefix=False
                )
                continue
            return node

    def _parse_member_name(self) -> Union[str, ast.Expr]:
        pos = self.pos
        type_ = self.types[pos]
        value = self.values[pos]
        if type_ is TokenType.STRING or (
            type_.value.startswith("T_") and value.isidentifier()
        ):
            self._next()
            return value
        if type_ is TokenType.VARIABLE:
            self._next()
            return ast.Variable(line=self.lines[pos], name=value[1:])
        if type_ is TokenType.CHAR and value == "{":
            self._next()
            expr = self._parse_expression()
            self._expect_char("}")
            return expr
        raise self._error(f"expected member name, found {type_.value}")

    def _static_class_name(self, node: ast.Expr) -> str:
        if isinstance(node, ast.ConstFetch):
            return node.name
        if isinstance(node, ast.Variable):
            return "$" + node.name
        raise self._error("expected class name before '::'")

    def _parse_primary(self) -> ast.Expr:  # noqa: C901
        pos = self.pos
        type_ = self.types[pos]
        line = self.lines[pos]

        if type_ is TokenType.VARIABLE:
            self.pos = pos + 1
            return ast.Variable(line=line, name=self.values[pos][1:])
        if type_ is TokenType.CONSTANT_ENCAPSED_STRING:
            self.pos = pos + 1
            raw = self.values[pos]
            if raw.startswith("'"):
                value: object = unescape_single_quoted(raw)
            else:
                value = unescape_double_quoted(raw[1:-1])
            return ast.Literal(line=line, value=value, raw=raw)
        if type_ is TokenType.CHAR:
            char = self.values[pos]
            if char == "(":
                self.pos = pos + 1
                expr = self._parse_expression()
                self._expect_char(")")
                return expr
            if char == "[":
                self.pos = pos + 1
                return self._parse_array_items(line, "]")
            if char == '"':
                return self._parse_interpolated('"')
            if char == "$":
                self.pos = pos + 1
                if self._accept_char("{"):
                    expr = self._parse_expression()
                    self._expect_char("}")
                    return ast.VariableVariable(line=line, expr=expr)
                inner = self._parse_primary()
                return ast.VariableVariable(line=line, expr=inner)
            if char == "`":
                node = self._parse_interpolated("`")
                return ast.ShellExec(line=node.line, parts=node.parts)
            if char == "&":
                # reference in expression position: &$var — transparent for taint
                self.pos = pos + 1
                return self._parse_postfix()
            raise self._error(f"unexpected token {self._found()}")
        if type_ is TokenType.STRING:
            name = self._parse_qualified_name()
            if self._at_char("("):
                args = self._parse_call_args()
                return ast.FunctionCall(line=line, name=name, args=args)
            return ast.ConstFetch(line=line, name=name)
        if type_ is TokenType.LNUMBER:
            self.pos = pos + 1
            raw = self.values[pos]
            try:
                value = int(raw, 0)
            except ValueError:
                value = int(raw)
            return ast.Literal(line=line, value=value, raw=raw)
        if type_ is TokenType.DNUMBER:
            self.pos = pos + 1
            raw = self.values[pos]
            return ast.Literal(line=line, value=float(raw), raw=raw)
        if type_ is TokenType.START_HEREDOC:
            return self._parse_heredoc()
        if type_ is TokenType.ARRAY and self._char_at(1, "("):
            self.pos = pos + 1
            return self._parse_array_literal(line, ")")
        if type_ is TokenType.ISSET:
            self._next()
            self._expect_char("(")
            vars_ = self._parse_expr_list_until(")")
            self._expect_char(")")
            return ast.IssetExpr(line=line, vars=vars_)
        if type_ is TokenType.EMPTY:
            self._next()
            self._expect_char("(")
            expr = self._parse_expression()
            self._expect_char(")")
            return ast.EmptyExpr(line=line, expr=expr)
        if type_ is TokenType.LIST:
            self._next()
            self._expect_char("(")
            targets: List[Optional[ast.Expr]] = []
            while not self._at_char(")"):
                if self._at_char(","):
                    targets.append(None)
                else:
                    targets.append(self._parse_expression())
                if not self._accept_char(","):
                    break
            self._expect_char(")")
            return ast.ListExpr(line=line, targets=targets)
        if type_ is TokenType.FUNCTION:
            return self._parse_closure(static=False)
        if type_ is TokenType.STATIC and self._type_at(1) is TokenType.FUNCTION:
            self._next()
            return self._parse_closure(static=True)
        if type_ is TokenType.STATIC and self._type_at(1) is TokenType.DOUBLE_COLON:
            self._next()
            return ast.ConstFetch(line=line, name="static")
        if type_ in _NAME_CONSTANT_TYPES:
            if type_ is TokenType.NS_SEPARATOR:
                name = self._parse_qualified_name()
            else:
                name = self._next()
            if self._at_char("("):
                args = self._parse_call_args()
                return ast.FunctionCall(line=line, name=name, args=args)
            return ast.ConstFetch(line=line, name=name)

        raise self._error(f"unexpected token {self._found()}")

    def _parse_array_literal(self, line: int, closer: str) -> ast.ArrayLiteral:
        self._expect_char("(")
        return self._parse_array_items(line, closer)

    def _parse_array_items(self, line: int, closer: str) -> ast.ArrayLiteral:
        items: List[ast.ArrayItem] = []
        while not self._at_char(closer) and not self._at(TokenType.EOF):
            item_line = self.lines[self.pos]
            by_ref = self._accept_char("&")
            first = self._parse_expression()
            if self._accept(TokenType.DOUBLE_ARROW):
                value_by_ref = self._accept_char("&")
                value = self._parse_expression()
                items.append(
                    ast.ArrayItem(line=item_line, key=first, value=value, by_ref=value_by_ref)
                )
            else:
                items.append(ast.ArrayItem(line=item_line, key=None, value=first, by_ref=by_ref))
            if not self._accept_char(","):
                break
        self._expect_char(closer)
        return ast.ArrayLiteral(line=line, items=items)

    def _parse_closure(self, static: bool) -> ast.Closure:
        line = self.lines[self.pos]
        self._expect(TokenType.FUNCTION)
        by_ref = self._accept_char("&")
        params = self._parse_params()
        uses: List[ast.ClosureUse] = []
        if self._accept(TokenType.USE):
            self._expect_char("(")
            while not self._at_char(")"):
                use_line = self.lines[self.pos]
                use_by_ref = self._accept_char("&")
                use_name = self._expect(TokenType.VARIABLE)[1:]
                uses.append(ast.ClosureUse(line=use_line, name=use_name, by_ref=use_by_ref))
                if not self._accept_char(","):
                    break
            self._expect_char(")")
        self._expect_char("{")
        body = self._parse_block_statements()
        self._expect_char("}")
        return ast.Closure(
            line=line, params=params, uses=uses, body=body, static=static, by_ref=by_ref
        )

    def _parse_interpolated(self, delimiter: str) -> ast.InterpolatedString:
        line = self.lines[self.pos]
        self._expect_char(delimiter)
        parts = self._parse_interpolation_parts(TokenType.CHAR, delimiter)
        self._expect_char(delimiter)
        return ast.InterpolatedString(line=line, parts=parts)

    def _parse_heredoc(self) -> ast.InterpolatedString:
        line = self.lines[self.pos]
        self._expect(TokenType.START_HEREDOC)
        parts = self._parse_interpolation_parts(TokenType.END_HEREDOC, "")
        self._expect(TokenType.END_HEREDOC)
        return ast.InterpolatedString(line=line, parts=parts)

    def _parse_interpolation_parts(
        self, end_type: TokenType, end_char: str
    ) -> List[ast.Expr]:
        """String parts up to the ``end_type`` token (a CHAR token only
        when its value is ``end_char``)."""
        types, values, lines = self.types, self.values, self.lines
        parts: List[ast.Expr] = []
        while True:
            pos = self.pos
            type_ = types[pos]
            if type_ is TokenType.EOF or (
                type_ is end_type and (not end_char or values[pos] == end_char)
            ):
                return parts
            value = values[pos]
            line = lines[pos]
            if type_ is TokenType.ENCAPSED_AND_WHITESPACE:
                self.pos = pos + 1
                parts.append(
                    ast.Literal(line=line, value=unescape_double_quoted(value), raw=value)
                )
                continue
            if type_ is TokenType.VARIABLE:
                self.pos = pos + 1
                node: ast.Expr = ast.Variable(line=line, name=value[1:])
                # simple interpolation suffixes: [index] and ->prop
                if self._accept_char("["):
                    index_pos = self.pos
                    index_type = types[index_pos]
                    index_value = values[index_pos]
                    index_line = lines[index_pos]
                    self._next()
                    index: Optional[ast.Expr]
                    if index_type is TokenType.VARIABLE:
                        index = ast.Variable(line=index_line, name=index_value[1:])
                    elif index_type is TokenType.NUM_STRING:
                        index = ast.Literal(
                            line=index_line, value=int(index_value), raw=index_value
                        )
                    else:
                        index = ast.Literal(line=index_line, value=index_value, raw=index_value)
                    self._expect_char("]")
                    node = ast.ArrayAccess(line=line, array=node, index=index)
                elif self._accept(TokenType.OBJECT_OPERATOR):
                    prop = self._expect(TokenType.STRING)
                    node = ast.PropertyAccess(line=line, object=node, name=prop)
                parts.append(node)
                continue
            if type_ is TokenType.CURLY_OPEN:
                self.pos = pos + 1
                expr = self._parse_expression()
                self._expect_char("}")
                parts.append(expr)
                continue
            if type_ is TokenType.DOLLAR_OPEN_CURLY_BRACES:
                self.pos = pos + 1
                expr = self._parse_expression()
                self._expect_char("}")
                parts.append(ast.VariableVariable(line=line, expr=expr))
                continue
            raise self._error(
                f"unexpected token in string interpolation: {type_.value}"
            )


#: statement keyword -> parser method, for the keywords whose statement
#: form never depends on the next token (see ``_parse_statement``)
_STATEMENT_PARSERS = {
    TokenType.OPEN_TAG: Parser._skip_tag,
    TokenType.CLOSE_TAG: Parser._skip_tag,
    TokenType.OPEN_TAG_WITH_ECHO: Parser._parse_echo,
    TokenType.ECHO: Parser._parse_echo,
    TokenType.INLINE_HTML: Parser._parse_inline_html,
    TokenType.IF: Parser._parse_if,
    TokenType.WHILE: Parser._parse_while,
    TokenType.DO: Parser._parse_do_while,
    TokenType.FOR: Parser._parse_for,
    TokenType.FOREACH: Parser._parse_foreach,
    TokenType.SWITCH: Parser._parse_switch,
    TokenType.BREAK: lambda parser: parser._parse_break_continue(ast.BreakStatement),
    TokenType.CONTINUE: lambda parser: parser._parse_break_continue(
        ast.ContinueStatement
    ),
    TokenType.RETURN: Parser._parse_return,
    TokenType.GLOBAL: Parser._parse_global,
    TokenType.UNSET: Parser._parse_unset,
    TokenType.THROW: Parser._parse_throw,
    TokenType.TRY: Parser._parse_try,
    TokenType.ABSTRACT: Parser._parse_class_declaration,
    TokenType.FINAL: Parser._parse_class_declaration,
    TokenType.CLASS: Parser._parse_class_declaration,
    TokenType.INTERFACE: Parser._parse_class_declaration,
    TokenType.TRAIT: Parser._parse_class_declaration,
    TokenType.NAMESPACE: Parser._parse_namespace,
    TokenType.USE: Parser._parse_use,
    TokenType.CONST: Parser._parse_const,
    TokenType.DECLARE: Parser._parse_declare,
    TokenType.GOTO: Parser._parse_goto,
}


def parse_source(
    source: str, filename: str = "<string>", recover: bool = False
) -> ast.PhpFile:
    """Lex and parse PHP source into a :class:`PhpFile` AST."""
    tokens = tokenize_significant(source, filename, recover=recover)
    return Parser(tokens, filename, recover=recover).parse_file()
