"""Every AST node class has an explicit place in the engine's dispatch.

``TaintEngine._exec``/``_eval`` look the handler up by exact node class
and fall back to a no-op / clean value.  A node class added to
``ast_nodes`` without a handler would fall into that default silently,
so each concrete statement and expression class must either have a
table entry or sit on the engine's explicit no-op list.
"""

import inspect

from repro.core import engine
from repro.php import ast_nodes as ast

from tests.helpers import analyze


def concrete_subclasses(base: type) -> set:
    return {
        cls
        for _name, cls in inspect.getmembers(ast, inspect.isclass)
        if issubclass(cls, base) and cls is not base
    }


def test_every_statement_class_is_dispatched_or_a_declared_noop():
    classes = concrete_subclasses(ast.Statement)
    handled = set(engine._STATEMENT_HANDLERS)
    assert not handled & engine._NOOP_STATEMENTS
    assert classes == handled | engine._NOOP_STATEMENTS


def test_every_expression_class_is_dispatched_or_a_declared_clean_value():
    classes = concrete_subclasses(ast.Expr)
    handled = set(engine._EXPR_HANDLERS)
    assert not handled & engine._CLEAN_EXPRESSIONS
    assert classes == handled | engine._CLEAN_EXPRESSIONS


def test_node_classes_subclass_their_base_directly():
    # exact-class lookup equals an isinstance test per class only while
    # no node class derives from another concrete one
    for base in (ast.Statement, ast.Expr):
        for cls in concrete_subclasses(base):
            assert cls.__bases__ == (base,), cls


def test_steps_count_every_statement_and_expression():
    # one step per executed statement and per evaluated expression
    # (absent operands included); the for-update runs as a statement
    report = analyze("<?php for ($i = 0; $i < 3; $i++) { echo 'x'; }")
    # for + init (= and 0; a plain assignment does not evaluate its
    # target) + cond (<, $i and 3) + two passes of [echo, 'x', the
    # update statement, ++ and $i]
    assert report.perf["engine_steps"] == 1 + 2 + 3 + 2 * 5
