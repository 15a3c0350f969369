from __future__ import annotations

import time

import pytest

from sqlbench.evaluate import EvalOutcome
from sqlbench.schema import ColumnSpec, DatabaseCatalog, TableSpec
from sqlbench.taxonomy import (
    COLUMNS_NOT_EXIST,
    GROUP_BY_ERROR,
    JOIN_WRONG_COLUMNS,
    JOIN_WRONG_TABLES,
    LEAF_LABELS,
    NESTED_SET_OPERATION,
    NESTED_WRONG_SUBQUERY,
    SYNTAX_ERROR,
    TABLES_NOT_EXIST,
    WRONG_COLUMNS,
    WRONG_TABLES,
    WRONG_WHERE,
    ErrorLabel,
    analyze_sql,
    classify,
    tabulate,
)


@pytest.fixture()
def forum_catalog():
    return DatabaseCatalog("forum", (
        TableSpec("badges", (
            ColumnSpec("Id", "int", None, None, True),
            ColumnSpec("UserId", "int"),
            ColumnSpec("Name", "text"),
            ColumnSpec("Date", "datetime"),
        )),
        TableSpec("comments", (
            ColumnSpec("CommentId", "int", None, None, True),
            ColumnSpec("UserId", "int"),
            ColumnSpec("Score", "int"),
            ColumnSpec("Text", "text"),
        )),
        TableSpec("posts", (
            ColumnSpec("PostId", "int", None, None, True),
            ColumnSpec("OwnerUserId", "int"),
            ColumnSpec("Title", "text"),
            ColumnSpec("Score", "int"),
        )),
    ))


def failed(predicted_error=None):
    return EvalOutcome(0, False, predicted_error=predicted_error)


CASES = [
    # --- wrong schema linking: tables not exist (incl. the badges/users case)
    ("SELECT COUNT(*) FROM users WHERE Date LIKE '2014%'",
     "SELECT COUNT(*) FROM badges WHERE Date LIKE '2014%' AND Name = 'commentator'",
     "no such table: users", TABLES_NOT_EXIST),
    ("SELECT Title FROM articles",
     "SELECT Title FROM posts",
     "no such table: articles", TABLES_NOT_EXIST),
    # --- columns not exist
    ("SELECT badge_name FROM badges",
     "SELECT Name FROM badges",
     "no such column: badge_name", COLUMNS_NOT_EXIST),
    ("SELECT Score FROM posts WHERE upvotes > 10",
     "SELECT Score FROM posts WHERE Score > 10",
     "no such column: upvotes", COLUMNS_NOT_EXIST),
    # --- incorrect JOIN: wrong tables
    ("SELECT b.Name FROM badges b JOIN posts p ON b.UserId = p.OwnerUserId",
     "SELECT b.Name FROM badges b JOIN comments c ON b.UserId = c.UserId",
     None, JOIN_WRONG_TABLES),
    ("SELECT Name FROM badges",
     "SELECT b.Name FROM badges b JOIN comments c ON b.UserId = c.UserId",
     None, JOIN_WRONG_TABLES),
    # --- incorrect JOIN: wrong columns
    ("SELECT b.Name FROM badges b JOIN comments c ON b.Id = c.CommentId",
     "SELECT b.Name FROM badges b JOIN comments c ON b.UserId = c.UserId",
     None, JOIN_WRONG_COLUMNS),
    ("SELECT b.Name FROM badges b JOIN comments c ON b.UserId = c.Score",
     "SELECT b.Name FROM badges b JOIN comments c ON b.UserId = c.UserId",
     None, JOIN_WRONG_COLUMNS),
    # --- inaccurate nested structure: set operation
    ("SELECT UserId FROM badges",
     "SELECT UserId FROM badges UNION SELECT UserId FROM comments",
     None, NESTED_SET_OPERATION),
    ("SELECT UserId FROM badges INTERSECT SELECT UserId FROM comments",
     "SELECT UserId FROM badges EXCEPT SELECT UserId FROM comments",
     None, NESTED_SET_OPERATION),
    # --- inaccurate nested structure: wrong sub-query
    ("SELECT Name FROM badges WHERE UserId > 5",
     "SELECT Name FROM badges WHERE UserId IN (SELECT UserId FROM comments WHERE Score > 5)",
     None, NESTED_WRONG_SUBQUERY),
    ("SELECT Name FROM badges WHERE UserId IN (SELECT UserId FROM comments WHERE Score > "
     "(SELECT AVG(Score) FROM comments))",
     "SELECT Name FROM badges WHERE UserId IN (SELECT UserId FROM comments WHERE Score > 5)",
     None, NESTED_WRONG_SUBQUERY),
    # --- schema linking: wrong tables (no JOIN, no nesting)
    ("SELECT Score FROM comments",
     "SELECT Score FROM posts",
     None, WRONG_TABLES),
    ("SELECT UserId FROM badges",
     "SELECT UserId FROM comments",
     None, WRONG_TABLES),
    # --- schema linking: wrong columns
    ("SELECT Name FROM badges",
     "SELECT Date FROM badges",
     None, WRONG_COLUMNS),
    ("SELECT Title, Score FROM posts",
     "SELECT Title FROM posts",
     None, WRONG_COLUMNS),
    # --- group-by error
    ("SELECT UserId, COUNT(*) FROM comments GROUP BY Score",
     "SELECT UserId, COUNT(*) FROM comments GROUP BY UserId",
     None, GROUP_BY_ERROR),
    ("SELECT UserId, COUNT(*) FROM comments",
     "SELECT UserId, COUNT(*) FROM comments GROUP BY UserId",
     None, GROUP_BY_ERROR),
    # --- wrong WHERE (residual)
    ("SELECT Name FROM badges WHERE Date > '2014-01-01'",
     "SELECT Name FROM badges WHERE Date < '2014-01-01'",
     None, WRONG_WHERE),
    ("SELECT COUNT(*) FROM comments WHERE Score = 10",
     "SELECT COUNT(*) FROM comments WHERE Score > 10",
     None, WRONG_WHERE),
    # --- syntax error
    ("SELEC Name FROM badges",
     "SELECT Name FROM badges",
     'near "SELEC": syntax error', SYNTAX_ERROR),
    ("SELECT * FROM WHERE",
     "SELECT Name FROM badges",
     'near "WHERE": syntax error', SYNTAX_ERROR),
]


@pytest.mark.parametrize("predicted,gold,error,expected", CASES)
def test_cascade_assigns_expected_leaf(forum_catalog, predicted, gold, error, expected):
    label = classify(predicted, gold, forum_catalog, failed(error))
    assert label.category == expected


def test_every_leaf_covered_twice():
    covered = {}
    for _, _, _, leaf in CASES:
        covered[leaf] = covered.get(leaf, 0) + 1
    assert set(covered) == set(LEAF_LABELS)
    assert all(count >= 2 for count in covered.values())


def test_unterminated_string_falls_back_to_syntax(forum_catalog):
    label = classify("SELECT 'oops FROM badges", "SELECT Name FROM badges",
                     forum_catalog, failed("some opaque execution failure"))
    assert label.category == SYNTAX_ERROR


def test_classify_rejects_matched_outcome(forum_catalog):
    with pytest.raises(ValueError):
        classify("SELECT 1", "SELECT 1", forum_catalog, EvalOutcome(0, True))


def test_classification_deterministic_and_total(forum_catalog):
    for predicted, gold, error, _ in CASES:
        first = classify(predicted, gold, forum_catalog, failed(error))
        second = classify(predicted, gold, forum_catalog, failed(error))
        assert first == second
        assert first.category in LEAF_LABELS


def test_not_exist_labels_need_genuinely_absent_identifiers(forum_catalog):
    # every identifier exists, so neither not-exist label may fire
    label = classify("SELECT Name FROM badges WHERE UserId = 3",
                     "SELECT Name FROM badges WHERE UserId = 4",
                     forum_catalog, failed())
    assert label.category not in (TABLES_NOT_EXIST, COLUMNS_NOT_EXIST)


def test_alias_resolution_prevents_false_missing_columns(forum_catalog):
    label = classify(
        "SELECT b.Name AS badge, COUNT(*) AS total FROM badges b "
        "JOIN comments c ON b.UserId = c.UserId GROUP BY b.Name ORDER BY total",
        "SELECT b.Name FROM badges b JOIN comments c ON b.UserId = c.UserId "
        "GROUP BY b.Name",
        forum_catalog, failed())
    assert label.category not in (TABLES_NOT_EXIST, COLUMNS_NOT_EXIST)


def test_analyze_sql_shapes(forum_catalog):
    shape = analyze_sql(
        "SELECT b.Name FROM badges AS b JOIN comments c ON b.UserId = c.UserId "
        "WHERE c.Score > 5 GROUP BY b.Name")
    assert shape.tables == {"badges", "comments"}
    assert shape.aliases == {"b": "badges", "c": "comments"}
    assert shape.has_join
    assert shape.join_columns == {"userid"}
    assert shape.select_columns == {"name"}
    assert shape.group_by == ("name",)
    assert shape.select_count == 1


@pytest.mark.parametrize("sql, tables, aliases", [
    ("SELECT p.Title, b.Name FROM posts AS p, badges b WHERE p.OwnerUserId = b.UserId",
     {"posts", "badges"}, {"p": "posts", "b": "badges"}),
    ("SELECT n, Title FROM (SELECT 1 AS n), posts", {"posts"}, {}),
], ids=["comma-list", "table-less-subquery"])
def test_a_from_list_gives_its_tables(sql, tables, aliases):
    shape = analyze_sql(sql)
    assert (shape.tables, shape.aliases) == (tables, aliases)


def test_a_from_subquery_is_read_for_its_own_tables(forum_catalog):
    # The subquery's table is a table, not a column that does not exist.
    predicted = "SELECT Score FROM (SELECT Score FROM posts)"
    assert analyze_sql(predicted).tables == {"posts"}
    label = classify(predicted, "SELECT Score FROM posts", forum_catalog, failed())
    assert label.category not in (TABLES_NOT_EXIST, COLUMNS_NOT_EXIST)


@pytest.mark.parametrize("sql, tables, aliases", [
    ("SELECT t.Score FROM (SELECT Score FROM posts) AS t", {"posts"}, {}),
    ("SELECT t.Score FROM (SELECT Score FROM posts) t, badges b",
     {"posts", "badges"}, {"b": "badges"}),
    ("SELECT Title FROM posts JOIN (SELECT UserId FROM badges) u ON u.UserId = OwnerUserId",
     {"posts", "badges"}, {}),
    ("SELECT Title FROM (posts p JOIN comments c ON p.PostId = c.CommentId), badges",
     {"posts", "comments", "badges"}, {"p": "posts", "c": "comments"}),
    ("SELECT Score FROM ((SELECT Score FROM (SELECT Score FROM comments)))", {"comments"}, {}),
    ("SELECT t.Score FROM (SELECT Score FROM posts) t, (SELECT Name FROM badges) AS b, comments",
     {"posts", "badges", "comments"}, {}),
], ids=["aliased", "alias-then-list", "joined", "join-group", "nested", "two-derived"])
def test_a_parenthesized_from_item_gives_its_tables(forum_catalog, sql, tables, aliases):
    shape = analyze_sql(sql)
    assert (shape.tables, shape.aliases) == (tables, aliases)
    # A derived table's alias is neither a table nor a column.
    assert classify(sql, "SELECT 1", forum_catalog, failed()).category not in (
        TABLES_NOT_EXIST, COLUMNS_NOT_EXIST)


def test_deeply_nested_from_subqueries_are_read_in_linear_time():
    depth = 5000
    sql = "SELECT Score FROM (" * depth + "SELECT Score FROM posts" + ")" * depth
    started = time.perf_counter()
    shape = analyze_sql(sql)
    elapsed = time.perf_counter() - started
    assert shape.tables == {"posts"} and shape.select_count == depth + 1
    assert elapsed < 2.0, elapsed


def test_tabulate_zero_failures():
    rows = tabulate([], 100)
    assert all(row["count"] == 0 and row["percent"] == 0.0 for row in rows)


def test_tabulate_two_syntax_errors_of_hundred():
    labels = [ErrorLabel(SYNTAX_ERROR)] * 2
    rows = tabulate(labels, 100)
    syntax_row = next(r for r in rows if r["leaf"] == SYNTAX_ERROR)
    assert syntax_row["count"] == 2
    assert syntax_row["percent"] == 2.0


def test_tabulate_one_error_per_leaf_of_110():
    labels = [ErrorLabel(leaf) for leaf in LEAF_LABELS]
    rows = tabulate(labels, 110)
    for row in rows:
        assert row["count"] == 1
        assert abs(row["percent"] - 0.91) <= 0.01


def test_tabulate_sums_to_error_rate():
    labels = [ErrorLabel(SYNTAX_ERROR)] * 3 + [ErrorLabel(WRONG_WHERE)] * 4
    rows = tabulate(labels, 50)
    total_pct = sum(row["percent"] for row in rows)
    assert abs(total_pct - 100.0 * 7 / 50) < 0.05
