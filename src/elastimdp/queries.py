"""Textual probability queries over decision models.

Supported form, mirroring the usual model-checker reachability syntax:

    Pmax=? [ F latency<30 & vms_num=7 ]
    Pmin=? [ F throughput>=20000 ]

i.e. the maximum/minimum probability over strategies of eventually
reaching a state whose labels and behavior-center metrics satisfy a
conjunction of comparisons.  Fields: ``vms_num``, ``latency`` (ms),
``throughput`` (req/s).  Operators: ``< <= > >= = == !=``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class _Token:
    kind: str  # "op" | "num" | "ident" | "end"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
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
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, text: str, what: str) -> _Token:
        token = self.current
        if token.text != text:
            raise QueryParseError(
                f"expected {what} {text!r}, found {token.text or 'end of input'!r}",
                token.position,
            )
        return self.take()

    def comparison(self) -> Clause:
        """The next `field op number` clause: the field's getter, the
        operator and the number."""
        token = self.take()
        if token.kind != "ident":
            raise QueryParseError(
                f"expected a field name, found {token.text or 'end of input'!r}",
                token.position,
            )
        if token.text not in _FIELDS:
            raise QueryParseError(f"unknown field {token.text!r}", token.position)
        getter = _FIELDS[token.text]
        op_token = self.take()
        if op_token.text not in _OPS:
            raise QueryParseError(
                f"expected a comparison operator, found"
                f" {op_token.text or 'end of input'!r}",
                op_token.position,
            )
        num_token = self.take()
        if num_token.kind != "num":
            raise QueryParseError(
                f"expected a number, found {num_token.text or 'end of input'!r}",
                num_token.position,
            )
        try:
            value = finite_float(num_token.text)
        except ValueError as exc:
            raise QueryParseError(str(exc), num_token.position) from exc
        return getter, _OPS[op_token.text], value


def parse_query(text: str) -> ReachabilityQuery:
    """Parse a full ``Pmax=? [ F ... ]`` / ``Pmin=? [ F ... ]`` query."""
    parser = _Parser(text)
    head = parser.take()
    if head.text not in ("Pmax", "Pmin"):
        raise QueryParseError(
            f"expected 'Pmax' or 'Pmin', found {head.text or 'end of input'!r}",
            head.position,
        )
    parser.expect("=?", "operator")
    parser.expect("[", "bracket")
    parser.expect("F", "reachability operator")
    clauses = [parser.comparison()]
    while parser.current.text == "&":
        parser.take()
        clauses.append(parser.comparison())
    parser.expect("]", "bracket")
    end = parser.current
    if end.kind != "end":
        raise QueryParseError(f"trailing input {end.text!r}", end.position)
    compiled = tuple(clauses)

    def predicate(state: MdpState) -> bool:
        # In clause order, stopping at the first that fails: a later clause
        # on a metric the state lacks then raises no error.
        for get, op, value in compiled:
            if not op(get(state), value):
                return False
        return True

    mode = "max" if head.text == "Pmax" else "min"
    return ReachabilityQuery(mode=mode, predicate=predicate, text=text)
