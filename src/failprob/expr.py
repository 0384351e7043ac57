"""Small arithmetic expression language for user-defined limit states.

Supports + - * / ** (or ^), unary minus, numeric literals, the variables
x1..xd, and the functions min, max, abs, sin, cos, sqrt, exp, log. Parsed
through the Python AST with a strict node whitelist and compiled to a
vectorized numpy evaluator, so CLI problem files stay declarative (no
dynamic code loading).
"""

from __future__ import annotations

import ast
import functools
import operator
from typing import Callable

import numpy as np

__all__ = ["ExprError", "compile_limit_state"]

_FUNCS: dict[str, Callable] = {
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}

_FOLDS = {"min": np.minimum, "max": np.maximum}


class ExprError(ValueError):
    """The expression is not part of the supported language."""


def compile_limit_state(expression: str, dim: int):
    """Compile an expression over x1..x<dim> into a vectorized (n, d) -> (n,) function.

    An expression nested too deeply for the parser or the compiler (a
    `RecursionError` or `MemoryError`) is an `ExprError` too."""
    source = expression.replace("^", "**")
    try:
        evaluate = _compile(ast.parse(source, mode="eval").body, dim)
    except SyntaxError as exc:
        raise ExprError(f"cannot parse expression: {exc}") from None
    except (RecursionError, MemoryError):
        raise ExprError("expression is nested too deeply to compile") from None

    def limit_state(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != dim:
            raise ValueError(f"expected {dim} input columns, got {x.shape[1]}")
        return np.broadcast_to(np.asarray(evaluate(x), dtype=float), (x.shape[0],)).copy()

    return limit_state


def _compile(node: ast.AST, dim: int) -> Callable:
    """Check `node` against the language and return its evaluator, x -> value."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExprError(f"literal {node.value!r} is not a number")
        value = float(node.value)
        return lambda x: value
    if isinstance(node, ast.Name):
        i = _var_index(node.id, dim)
        if i is None:
            raise ExprError(f"unknown variable {node.id!r} (expected x1..x{dim})")
        return lambda x: x[:, i - 1]
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExprError(f"operator {type(node.op).__name__} not supported")
        left, right = _compile(node.left, dim), _compile(node.right, dim)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.UnaryOp):
        op = _UNARYOPS.get(type(node.op))
        if op is None:
            raise ExprError(f"unary operator {type(node.op).__name__} not supported")
        operand = _compile(node.operand, dim)
        return lambda x: op(operand(x))
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in _FUNCS and name not in _FOLDS:
            raise ExprError("only min, max, abs, sin, cos, sqrt, exp, log calls are allowed")
        if node.keywords:
            raise ExprError("keyword arguments are not supported")
        if name in _FOLDS and len(node.args) < 2:
            raise ExprError(f"{name} needs at least two arguments")
        if name in _FUNCS and len(node.args) != 1:
            raise ExprError(f"{name} takes exactly one argument")
        args = [_compile(arg, dim) for arg in node.args]
        if name in _FOLDS:
            fold = _FOLDS[name]
            return lambda x: functools.reduce(fold, [arg(x) for arg in args])
        fn, (arg,) = _FUNCS[name], args
        return lambda x: fn(arg(x))
    raise ExprError(f"syntax {type(node).__name__} not supported")


def _var_index(name: str, dim: int) -> int | None:
    if name.startswith("x") and name[1:].isdigit():
        i = int(name[1:])
        if 1 <= i <= dim:
            return i
    return None
