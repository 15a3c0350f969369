"""SQL tokenizer and skeleton extraction.

A skeleton, a plain string, keeps SQL keywords in their original clause
structure and collapses every maximal run of non-keyword tokens
(identifiers, literals, operators, punctuation) into a single "_"
placeholder.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnterminatedString(ValueError):
    pass


class UnterminatedComment(ValueError):
    pass


# Frozen keyword set: clause words and aggregate names preserved by the
# skeleton. Anything else (including OUTER, OFFSET, ...) collapses into "_".
KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "ORDER", "BY", "GROUP", "HAVING", "JOIN",
    "INNER", "LEFT", "ON", "AS", "DESC", "ASC", "LIMIT", "DISTINCT",
    "UNION", "INTERSECT", "EXCEPT", "AND", "OR", "NOT", "IN", "EXISTS",
    "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST",
    "NULL", "IS", "COUNT", "SUM", "AVG", "MIN", "MAX",
})

_PUNCTUATION = frozenset("(),;.")
_TWO_CHAR_OPERATORS = ("<=", ">=", "<>", "!=", "==", "||")
_ONE_CHAR_OPERATORS = frozenset("=<>+-*/%|&!?")
_KNOWN_STARTS = frozenset("'\"`[_") | _PUNCTUATION | _ONE_CHAR_OPERATORS


@dataclass(frozen=True)
class SqlToken:
    text: str
    kind: str  # keyword | identifier | literal | operator | punctuation


def _is_word_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _is_unknown(ch: str) -> bool:
    """True when no tokenizer rule starts at `ch`, whatever follows it."""
    return not (ch.isspace() or ch.isalpha() or ch.isdigit() or ch in _KNOWN_STARTS)


def strip_quotes(text: str) -> str:
    """A quoted identifier token's name without its quotes or brackets."""
    if text and text[0] in "\"`[":
        return text[1:-1]
    return text


def tokenize(sql: str) -> list[SqlToken]:
    """Split SQL into tokens, dropping comments and whitespace.

    String literals (single-quoted, with '' escapes) and quoted identifiers
    (double quotes, backticks, square brackets) stay single tokens.
    """
    if not sql:
        raise ValueError("cannot tokenize empty SQL")

    tokens: list[SqlToken] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]

        if ch.isspace():
            i += 1
            continue

        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue

        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise UnterminatedComment(f"unterminated comment at offset {i}")
            i = end + 2
            continue

        if ch == "'":
            j = i + 1
            while True:
                j = sql.find("'", j)
                if j == -1:
                    raise UnterminatedString(f"unterminated string at offset {i}")
                if j + 1 < n and sql[j + 1] == "'":  # doubled quote escape
                    j += 2
                    continue
                break
            tokens.append(SqlToken(sql[i:j + 1], "literal"))
            i = j + 1
            continue

        if ch in "\"`[":
            closer = {"\"": "\"", "`": "`", "[": "]"}[ch]
            j = sql.find(closer, i + 1)
            if j == -1:
                raise UnterminatedString(f"unterminated quoted identifier at offset {i}")
            tokens.append(SqlToken(sql[i:j + 1], "identifier"))
            i = j + 1
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and sql[j] in "eE" and j + 1 < n and (sql[j + 1].isdigit() or sql[j + 1] in "+-"):
                j += 2
                while j < n and sql[j].isdigit():
                    j += 1
            tokens.append(SqlToken(sql[i:j], "literal"))
            i = j
            continue

        if _is_word_start(ch):
            j = i
            while j < n and _is_word_char(sql[j]):
                j += 1
            word = sql[i:j]
            kind = "keyword" if word.upper() in KEYWORDS else "identifier"
            tokens.append(SqlToken(word, kind))
            i = j
            continue

        two = sql[i:i + 2]
        if two in _TWO_CHAR_OPERATORS:
            tokens.append(SqlToken(two, "operator"))
            i += 2
            continue

        if ch in _PUNCTUATION:
            tokens.append(SqlToken(ch, "punctuation"))
            i += 1
            continue

        if ch in _ONE_CHAR_OPERATORS:
            tokens.append(SqlToken(ch, "operator"))
            i += 1
            continue

        # Unknown characters: keep the stream total with one operator token
        # per run of them, so hostile output costs one token, not millions.
        j = i + 1
        while j < n and _is_unknown(sql[j]):
            j += 1
        tokens.append(SqlToken(sql[i:j], "operator"))
        i = j

    return tokens


def extract_skeleton(sql: str) -> str:
    """Reduce SQL to its keyword skeleton.

    Keywords keep their canonical uppercase form; every maximal run of
    non-keyword tokens becomes one "_".
    """
    parts: list[str] = []
    in_gap = False
    for token in tokenize(sql):
        if token.kind == "keyword":
            parts.append(token.text.upper())
            in_gap = False
        elif not in_gap:
            parts.append("_")
            in_gap = True
    return " ".join(parts)
