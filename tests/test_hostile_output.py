"""Hostile model output: SQL extraction and skeleton parsing either return
or raise their documented ValueError subclasses, whatever the text, and
executing it can neither write a file nor change connection state, also
on a connection the next query reuses, nor build a value longer than
`evaluate.MAX_VALUE_BYTES` where Python can bound it.

Inputs mix SQL fragments with unterminated quotes and comments, code
fences, non-ASCII letters and digits, NUL and other control characters,
and responses of about 1 MB.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cinema_db
from sqlbench import budget, evaluate, skeleton, taxonomy
from sqlbench.evaluate import DatabaseConnections, execute_and_compare
from sqlbench.gateway import EmptyResponse, extract_sql
from sqlbench.skeleton import (
    SqlToken,
    UnterminatedComment,
    UnterminatedString,
    extract_skeleton,
    tokenize,
)

_DOCUMENTED = (EmptyResponse, UnterminatedString, UnterminatedComment, ValueError)

_FRAGMENTS = st.sampled_from([
    "SELECT", "select", " FROM t", " WHERE ", "a", "1", "1.5e", "1e+", ".5", "'", "''",
    '"', "`", "[", "]", "/*", "*/", "--", "\n", "\n\n", "\r", "\t", " ", ";", "```",
    "```sql\n", "> ", "(", ")", "<=", "||", "\x00", "\x1f", "\u2028", "\ufeff",
    "\u00e9", "\u540d", "\u00b2", "\u0663", "\U0001F600",
])

_HOSTILE = st.one_of(
    st.text(),
    st.lists(_FRAGMENTS | st.text(max_size=5), max_size=40).map("".join),
)


def _outcome(fn, text):
    try:
        return fn(text)
    except _DOCUMENTED as exc:
        return exc


def _check_extract_sql(text):
    result = _outcome(extract_sql, text)
    if not isinstance(result, Exception):
        assert result.startswith("SELECT") and "\n" not in result


_KINDS = {"keyword", "identifier", "literal", "operator", "punctuation"}


def _check_tokenize(text):
    tokens = _outcome(tokenize, text)
    if not isinstance(tokens, Exception):
        position = 0
        for token in tokens:  # non-empty substrings of the input, in order
            assert isinstance(token, SqlToken) and token.kind in _KINDS and token.text
            position = text.find(token.text, position)
            assert position >= 0
            position += len(token.text)


def _check_extract_skeleton(text):
    skeleton = _outcome(extract_skeleton, text)
    if not isinstance(skeleton, Exception):
        assert isinstance(skeleton, str)
        assert "_ _" not in skeleton  # a gap between keywords is one "_"


@settings(max_examples=300, deadline=None)
@given(_HOSTILE)
def test_extract_sql_returns_or_raises_documented_errors(text):
    _check_extract_sql(text)


@settings(max_examples=300, deadline=None)
@given(_HOSTILE)
def test_tokenize_returns_or_raises_documented_errors(text):
    _check_tokenize(text)


@settings(max_examples=300, deadline=None)
@given(_HOSTILE)
def test_extract_skeleton_returns_or_raises_documented_errors(text):
    _check_extract_skeleton(text)


@settings(max_examples=200, deadline=None)
@given(_HOSTILE)
def test_skeleton_of_an_extracted_statement(text):
    statement = _outcome(extract_sql, text)
    if not isinstance(statement, Exception):
        _check_extract_skeleton(statement)


_OPERATORS = {"<=", ">=", "<>", "!=", "==", "||"} | set("=<>+-*/%|&!?")


def per_character_tokenize(sql):
    """Reference: the tokenizer with one operator token per unknown
    character, which is how it split a run of them before runs were
    merged into one token."""
    tokens = []
    for token in tokenize(sql):
        if token.kind == "operator" and token.text not in _OPERATORS:
            for ch in token.text:  # no tokenizer rule may start at ch
                assert ch not in _OPERATORS and tokenize(ch) == [SqlToken(ch, "operator")]
                tokens.append(SqlToken(ch, "operator"))
        else:
            tokens.append(token)
    return tokens


def _readings(text):
    """What the pipeline reads from tokenized model output."""
    readings = []
    for fn in (extract_skeleton, taxonomy.analyze_sql, budget._sql_identifiers):
        try:
            readings.append(fn(text))
        except AssertionError:
            raise
        except Exception as exc:  # compared by type and message
            readings.append((type(exc), str(exc)))
    return readings


# Unknown characters next to every character a tokenizer rule starts at.
_UNKNOWN_RUNS = st.lists(st.sampled_from([
    "\x00", "\x01", "\ufeff", "\u00bd", "\U0001F600", "$", "@", "#", "^", "~", "{", ":",
    "(", ")", ",", ";", ".", "=", "<", ">", "+", "-", "*", "/", "%", "|", "&", "!", "?",
    "'", '"', "`", "[", "]", "_", "a", "1", " ", "\n", "SELECT ", " FROM t", " WHERE ",
    " JOIN u ON ", "COUNT",
]), max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(_HOSTILE | _UNKNOWN_RUNS)
def test_runs_of_unknown_characters_read_as_per_character_tokens(text):
    merged = _readings(text)
    with mock.patch.object(skeleton, "tokenize", per_character_tokenize), \
            mock.patch.object(taxonomy, "tokenize", per_character_tokenize), \
            mock.patch.object(budget, "tokenize", per_character_tokenize):
        assert _readings(text) == merged


_MEGABYTE = 1 << 20


def test_a_run_of_unknown_characters_is_one_token():
    assert tokenize("SELECT " + "\x00\x01\ufeff" * (_MEGABYTE // 3) + " a") == [
        SqlToken("SELECT", "keyword"),
        SqlToken("\x00\x01\ufeff" * (_MEGABYTE // 3), "operator"),
        SqlToken("a", "identifier")]


@pytest.mark.parametrize("text", [
    "SELECT " + "a, " * (_MEGABYTE // 3),
    "SELECT '" + "x" * _MEGABYTE,
    "SELECT /*" + "y" * _MEGABYTE,
    "SELECT " + "\x00" * _MEGABYTE,
    "SELECT \"" + "\u540d" * (_MEGABYTE // 3),
    "\n" + " " * _MEGABYTE + "x",
    "```sql\n" + "SELECT 1 -- " * (_MEGABYTE // 12),
], ids=["list", "quote", "comment", "nul", "quoted-identifier", "blank", "fence"])
def test_one_megabyte_responses(text):
    _check_extract_sql(text)
    _check_extract_skeleton(text)  # tokenizes the whole text


@pytest.mark.parametrize("statement, error", [
    ("ATTACH DATABASE '{out}/x.db' AS x", "not authorized"),
    ("VACUUM INTO '{out}/y.db'", "authorization denied"),  # denied when it runs
    ("CREATE TEMP TABLE t AS SELECT 1", "not authorized"),
    ("PRAGMA writable_schema = 1", "not authorized"),
], ids=["attach", "vacuum-into", "temp-table", "pragma"])
def test_predicted_sql_is_denied_anything_but_reading(tmp_path, statement, error):
    db = make_cinema_db(tmp_path / "cinema.sqlite")
    out = tmp_path / "out"
    out.mkdir()
    outcome = execute_and_compare(statement.format(out=out), "SELECT 1", db)
    assert (outcome.matched, outcome.predicted_error, outcome.gold_error) == (False, error, None)
    assert sorted(tmp_path.rglob("*")) == [db, out]  # no file written anywhere


_SCHEMA = "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name"


@pytest.mark.parametrize("statement", [
    "ATTACH DATABASE '{out}/x.db' AS x",
    "VACUUM INTO '{out}/y.db'",
    "PRAGMA writable_schema = 1",
], ids=["attach", "vacuum-into", "pragma"])
def test_a_denied_statement_leaves_the_reused_connection_as_it_was(tmp_path, statement):
    db = make_cinema_db(tmp_path / "cinema.sqlite")
    out = tmp_path / "out"
    out.mkdir()
    with closing(sqlite3.connect(db)) as plain:
        schema = plain.execute(_SCHEMA).fetchall()
    connections = DatabaseConnections()
    try:
        conn = connections.get(db)
        outcome = execute_and_compare(
            statement.format(out=out), "SELECT 1", db, connections=connections)
        assert outcome.predicted_error in ("not authorized", "authorization denied")
        assert connections.get(db) is conn
        assert conn.execute(_SCHEMA).fetchall() == schema
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            conn.execute("SELECT name FROM x.sqlite_master")
        assert execute_and_compare(
            "SELECT COUNT(*) FROM movies", "SELECT 4", db, connections=connections).matched
    finally:
        connections.close()
    assert sorted(tmp_path.rglob("*")) == [db, out]  # no file written anywhere


@pytest.mark.skipif(not hasattr(sqlite3.Connection, "setlimit"),
                    reason="Connection.setlimit needs Python 3.11")
@pytest.mark.parametrize("statement", [
    "SELECT zeroblob(2000000)",
    "WITH RECURSIVE r(s, n) AS (SELECT 'x', 0 UNION ALL SELECT s || s, n + 1 FROM r"
    " WHERE n < 30) SELECT length(s) FROM r",
], ids=["zeroblob", "doubling"])
def test_a_value_over_the_length_bound_is_that_sides_error(tmp_path, monkeypatch, statement):
    monkeypatch.setattr(evaluate, "MAX_VALUE_BYTES", 1 << 20)
    db = make_cinema_db(tmp_path / "cinema.sqlite")
    predicted = execute_and_compare(statement, "SELECT 1", db)
    gold = execute_and_compare("SELECT 1", statement, db)
    assert (predicted.matched, predicted.predicted_error, predicted.gold_error) == (
        False, "string or blob too big", None)
    assert (gold.matched, gold.predicted_error, gold.gold_error) == (
        False, None, "string or blob too big")
