"""Textual probability queries over decision models.

Supported form, mirroring the usual model-checker reachability syntax:

    Pmax=? [ F latency<30 & vms_num=7 ]
    Pmin=? [ F throughput>=20000 ]

i.e. the maximum/minimum probability over strategies of eventually
reaching a state whose labels and behavior-center metrics satisfy a
conjunction of comparisons.  Fields: ``vms_num``, ``latency`` (ms),
``throughput`` (req/s).  Operators: ``< <= > >= = == !=``.  Since no_op
ends the episode and no path returns to its initial size, Pmin is 1 if the
current state satisfies the conjunction and 0 otherwise, and Pmax is 0
unless a state at another size satisfies it.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Callable

from .errors import QueryEvaluationError, QueryParseError
from .model import MdpState, finite_float
from .solver import ReachabilityQuery

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>=\?|<=|>=|==|!=|[<>=&\[\]])"
    r"|(?P<num>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
}


def _metric(state: MdpState, dim: int, name: str) -> float:
    if state.center is None:
        raise QueryEvaluationError(
            f"state {state.label} carries no behavior center; {name} is undefined"
        )
    return state.center[dim]


_FIELDS: dict[str, Callable[[MdpState], float]] = {
    "vms_num": lambda s: float(s.vms_num),
    "latency": lambda s: _metric(s, 0, "latency"),
    "throughput": lambda s: _metric(s, 1, "throughput"),
}


# One parsed clause: the field's getter, the operator and the number.
Clause = tuple[Callable[[MdpState], float], Callable[[float, float], bool], float]


# One token: its kind ("op" | "num" | "ident" | "end"), text and position.
Token = tuple[str, str, int]


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise QueryParseError(f"unexpected character {text[where]!r}", where)
        kind = match.lastgroup or "op"
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def take(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str, what: str) -> None:
        _, found, position = self.take()
        if found != text:
            raise QueryParseError(
                f"expected {what} {text!r}, found {found or 'end of input'!r}", position
            )

    def comparison(self) -> Clause:
        """The next `field op number` clause: the field's getter, the
        operator and the number."""
        kind, name, position = self.take()
        if kind != "ident":
            raise QueryParseError(
                f"expected a field name, found {name or 'end of input'!r}", position
            )
        if name not in _FIELDS:
            raise QueryParseError(f"unknown field {name!r}", position)
        _, op, position = self.take()
        if op not in _OPS:
            raise QueryParseError(
                f"expected a comparison operator, found {op or 'end of input'!r}", position
            )
        kind, number, position = self.take()
        if kind != "num":
            raise QueryParseError(
                f"expected a number, found {number or 'end of input'!r}", position
            )
        try:
            value = finite_float(number)
        except ValueError as exc:
            raise QueryParseError(str(exc), position) from exc
        return _FIELDS[name], _OPS[op], value


@lru_cache(maxsize=32)
def parse_query(text: str) -> ReachabilityQuery:
    """Parse a full ``Pmax=? [ F ... ]`` / ``Pmin=? [ F ... ]`` query (the last 32 are kept)."""
    parser = _Parser(text)
    _, head, position = parser.take()
    if head not in ("Pmax", "Pmin"):
        raise QueryParseError(
            f"expected 'Pmax' or 'Pmin', found {head or 'end of input'!r}", position
        )
    parser.expect("=?", "operator")
    parser.expect("[", "bracket")
    parser.expect("F", "reachability operator")
    clauses = [parser.comparison()]
    while parser.current[1] == "&":
        parser.take()
        clauses.append(parser.comparison())
    parser.expect("]", "bracket")
    kind, trailing, position = parser.current
    if kind != "end":
        raise QueryParseError(f"trailing input {trailing!r}", position)
    compiled = tuple(clauses)

    def predicate(state: MdpState) -> bool:
        # In clause order, stopping at the first that fails: a later clause
        # on a metric the state lacks then raises no error.
        for get, op, value in compiled:
            if not op(get(state), value):
                return False
        return True

    mode = "max" if head == "Pmax" else "min"
    return ReachabilityQuery(mode=mode, predicate=predicate, text=text)
