"""The dataclass form of `queries._tokenize`, kept as a test-side
reference: one frozen `_Token` per token.  The package's tokenizer returns
`(kind, text, position)` tuples, and must return the same triples, or
refuse with the same error, message and position."""

from __future__ import annotations

from dataclasses import dataclass

from elastimdp.errors import QueryParseError
from elastimdp.queries import _TOKEN_RE


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
