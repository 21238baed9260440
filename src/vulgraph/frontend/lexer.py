"""Tokenizer for the mini-C subset.

Produces a flat token stream with 1-based line/column positions. Comments
(// and /* */) are discarded. See docs/grammar.md for the accepted language.

One compiled pattern scans the source a token at a time; a line and column
are read off the newlines of the spans it skips.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import IllegalCharacter, ParseError, UnterminatedString

# declaration-leading keywords (type specifiers and storage classes)
TYPE_KEYWORDS = frozenset(
    {
        "int", "char", "long", "short", "unsigned", "signed", "void",
        "float", "double", "struct", "union", "enum", "const", "static",
    }
)

KEYWORDS = TYPE_KEYWORDS | {
    "if", "else", "while", "for", "return", "goto", "sizeof",
    "break", "continue", "do", "switch", "case", "default",
}

# longest match first
_OPERATORS = [
    "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", ".",
]

# Alternatives in the order the grammar tries them. `\w` is a character for
# which str.isalnum() holds, or "_", so an identifier continues exactly as
# docs/grammar.md says; an identifier that starts outside ASCII is matched
# apart (`uid`), because `[^\W\d]` also admits numeric characters such as
# "²" that are not letters. Literal digits are ASCII only.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<uid>[^\W\d]\w*)"
    r"|(?P<int>0[xX][0-9a-fA-F]+[uUlL]*|(?!0[xX])[0-9]+[uUlL]*)"
    r"|(?P<bare_hex>0[xX])"
    r'|(?P<str>"(?:[^"\\\n]|\\[\s\S])*")'
    r"|(?P<char>'(?:[^'\\\n]|\\[\s\S])*')"
    r"|(?P<punct>[(){}\[\];,:])"
    r"|(?P<op>" + "|".join(re.escape(op) for op in _OPERATORS) + ")"
    r"|(?P<bad>[\s\S])"
)


class Token(NamedTuple):
    kind: str  # id | kw | int | str | char | punct | op
    text: str
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind},{self.text!r},{self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the current line's first character
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "skip":  # whitespace and comments
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "id":
            append(Token("kw" if text in KEYWORDS else "id", text, line, col))
        elif kind == "op" or kind == "punct" or kind == "int":
            append(Token(kind, text, line, col))
        elif kind == "str" or kind == "char":
            append(Token(kind, text, line, col))
            breaks = text.count("\n")  # escaped newlines
            if breaks:
                line += breaks
                line_start = m.start() + text.rindex("\n") + 1
        elif kind == "uid":  # no keyword starts outside ASCII
            if not text[0].isalpha():
                raise IllegalCharacter(text[0], line, col)
            append(Token("id", text, line, col))
        elif kind == "bare_hex":
            raise ParseError(f"hex literal {text!r} has no digits", line, col)
        elif kind == "open_comment":
            raise ParseError("unterminated block comment", line, col)
        elif text in "\"'":  # an opening quote whose literal never closes
            raise UnterminatedString(line, col)
        else:
            raise IllegalCharacter(text, line, col)
    return tokens
