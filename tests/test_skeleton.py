from __future__ import annotations

import pytest

from sqlbench.skeleton import (
    KEYWORDS,
    SqlToken,
    UnterminatedComment,
    UnterminatedString,
    extract_skeleton,
    tokenize,
)


def keyword_multiset(tokens: list[SqlToken]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in tokens:
        if token.kind == "keyword":
            key = token.text.upper()
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_tokenize_simple_select():
    tokens = tokenize("SELECT 1")
    assert [(t.text, t.kind) for t in tokens] == [("SELECT", "keyword"), ("1", "literal")]


def test_tokenize_keeps_string_literal_whole():
    tokens = tokenize("WHERE name = 'a b'")
    literal = [t for t in tokens if t.kind == "literal"]
    assert literal == [SqlToken("'a b'", "literal")]


def test_tokenize_strips_line_comment():
    tokens = tokenize("SELECT * FROM t -- c")
    assert len(tokens) == 4
    assert [t.text for t in tokens] == ["SELECT", "*", "FROM", "t"]


def test_tokenize_strips_block_comment():
    tokens = tokenize("SELECT /* note */ a FROM t")
    assert [t.text for t in tokens] == ["SELECT", "a", "FROM", "t"]


def test_tokenize_doubled_quote_escape():
    tokens = tokenize("WHERE x = 'it''s'")
    assert tokens[-1] == SqlToken("'it''s'", "literal")


def test_tokenize_quoted_identifiers():
    tokens = tokenize('SELECT "Free Meal Count" FROM `my table` WHERE [col] = 1')
    kinds = {t.text: t.kind for t in tokens}
    assert kinds['"Free Meal Count"'] == "identifier"
    assert kinds["`my table`"] == "identifier"
    assert kinds["[col]"] == "identifier"


def test_tokenize_errors():
    with pytest.raises(UnterminatedString):
        tokenize("SELECT 'oops")
    with pytest.raises(UnterminatedComment):
        tokenize("SELECT /* oops")
    with pytest.raises(ValueError):
        tokenize("")


def test_keyword_classification_case_insensitive():
    tokens = tokenize("select A from B")
    assert tokens[0].kind == "keyword"
    assert tokens[0].text == "select"
    assert tokens[2].kind == "keyword"


def test_movie_query_skeleton():
    sql = ("SELECT movie_title FROM movies WHERE movie_release_year = 1945 "
           "ORDER BY movie_popularity DESC LIMIT 1")
    assert extract_skeleton(sql) == "SELECT _ FROM _ WHERE _ ORDER BY _ DESC LIMIT _"


def test_single_run_collapses():
    assert extract_skeleton("SELECT *") == "SELECT _"


def test_join_skeleton_matches_run_collapsing_oracle():
    sql = "SELECT a, b FROM t JOIN u ON a = b"
    # brute-force oracle: collapse runs over the token list directly
    tokens = tokenize(sql)
    expected = []
    gap = False
    for token in tokens:
        if token.kind == "keyword":
            expected.append(token.text.upper())
            gap = False
        elif not gap:
            expected.append("_")
            gap = True
    assert extract_skeleton(sql) == " ".join(expected)
    assert extract_skeleton(sql) == "SELECT _ FROM _ JOIN _ ON _"


def test_operator_runs_vanish_into_one_placeholder():
    assert extract_skeleton("WHERE year = 1945") == "WHERE _"


def test_skeleton_idempotent():
    sql = "SELECT movie_title FROM movies WHERE movie_release_year = 1945"
    once = extract_skeleton(sql)
    assert extract_skeleton(once) == once


def test_skeleton_preserves_keyword_multiset():
    sql = ("SELECT COUNT(a) FROM t JOIN u ON t.x = u.y WHERE z IN "
           "(SELECT w FROM v) GROUP BY a ORDER BY COUNT(a) DESC")
    skeleton = extract_skeleton(sql)
    assert keyword_multiset(tokenize(sql)) == keyword_multiset(tokenize(skeleton))


def test_no_input_text_survives():
    sql = "SELECT movie_title FROM movies WHERE movie_release_year = 1945"
    skeleton = extract_skeleton(sql)
    for word in ("movie_title", "movies", "movie_release_year", "1945", "="):
        assert word not in skeleton.split()


def test_skeleton_invariants_hold():
    sql = "SELECT a, b FROM t WHERE x = 'lit' AND y BETWEEN 1 AND 2"
    text = extract_skeleton(sql)
    parts = text.split(" ")
    for i, part in enumerate(parts):
        assert part == "_" or part in KEYWORDS
        if part == "_" and i + 1 < len(parts):
            assert parts[i + 1] != "_"
