from __future__ import annotations

import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlbench.evaluate as evaluate
from conftest import make_cinema_db
from sqlbench.bench import TaskInstance
from sqlbench.evaluate import (
    CountMismatch,
    DatabaseConnections,
    EvalOutcome,
    aggregate,
    execute_and_compare,
)


@pytest.fixture()
def cinema_db(tmp_path):
    return make_cinema_db(tmp_path / "cinema.sqlite")


def test_identical_queries_match(cinema_db):
    outcome = execute_and_compare(
        "SELECT movie_title FROM movies", "SELECT movie_title FROM movies", cinema_db)
    assert outcome.matched
    assert outcome.predicted_error is None
    assert outcome.gold_error is None


def test_different_scalars_do_not_match(cinema_db):
    outcome = execute_and_compare("SELECT 1", "SELECT 2", cinema_db)
    assert not outcome.matched


def test_order_by_direction_is_irrelevant_under_set_semantics(tmp_path):
    db = tmp_path / "t.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2);")
    conn.commit()
    conn.close()
    outcome = execute_and_compare(
        "SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC", db)
    # brute-force oracle: {(1,), (2,)} == {(2,), (1,)}
    assert outcome.matched


def test_duplicate_rows_collapse_under_set_semantics(tmp_path):
    db = tmp_path / "t.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (1);")
    conn.commit()
    conn.close()
    outcome = execute_and_compare("SELECT a FROM t", "SELECT DISTINCT a FROM t", db)
    assert outcome.matched  # documented property of the frozen semantics


def test_column_order_within_rows_matters(cinema_db):
    outcome = execute_and_compare(
        "SELECT movie_id, movie_title FROM movies",
        "SELECT movie_title, movie_id FROM movies",
        cinema_db)
    assert not outcome.matched


def test_float_rounding_to_six_decimals(tmp_path):
    db = tmp_path / "t.sqlite"
    sqlite3.connect(db).close()
    outcome = execute_and_compare(
        "SELECT 0.123451", "SELECT 0.123459", db)  # differ at the 6th decimal
    assert not outcome.matched
    outcome = execute_and_compare(
        "SELECT 0.1234571", "SELECT 0.1234572", db)  # both round to 0.123457
    assert outcome.matched


def test_null_matches_only_null(tmp_path):
    db = tmp_path / "t.sqlite"
    sqlite3.connect(db).close()
    assert execute_and_compare("SELECT NULL", "SELECT NULL", db).matched
    assert not execute_and_compare("SELECT NULL", "SELECT 0", db).matched


def test_predicted_syntax_error_recorded(cinema_db):
    outcome = execute_and_compare("SELEC oops", "SELECT 1", cinema_db)
    assert not outcome.matched
    assert outcome.predicted_error is not None
    assert outcome.gold_error is None


def test_gold_error_recorded_not_raised(cinema_db):
    outcome = execute_and_compare("SELECT 1", "SELECT nope FROM missing", cinema_db)
    assert not outcome.matched
    assert outcome.gold_error is not None


def test_two_statements_are_each_sides_error_not_raised(cinema_db):
    # Python 3.10 raises sqlite3.Warning here, 3.11 ProgrammingError.
    two = "SELECT movie_title FROM movies; SELECT 2"
    outcome = execute_and_compare(two, two, cinema_db)
    assert not outcome.matched
    for message in (outcome.predicted_error, outcome.gold_error):
        assert "one statement at a time" in message


def test_write_attempt_rejected_readonly(cinema_db):
    outcome = execute_and_compare(
        "DELETE FROM movies", "SELECT COUNT(*) FROM movies", cinema_db)
    assert not outcome.matched
    assert outcome.predicted_error is not None
    # the database is untouched afterwards
    conn = sqlite3.connect(cinema_db)
    assert conn.execute("SELECT COUNT(*) FROM movies").fetchone()[0] == 4
    conn.close()


@pytest.mark.parametrize("predicted, gold", [
    ("WITH t AS (SELECT movie_id FROM movies) SELECT COUNT(*) FROM t",
     "SELECT COUNT(*) FROM movies"),
    ("WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 4) "
     "SELECT COUNT(*) FROM n", "SELECT COUNT(*) FROM movies"),
    ("SELECT movie_id FROM movies UNION SELECT movie_id FROM ratings",
     "SELECT movie_id FROM movies"),
    ("SELECT movie_title FROM movies WHERE movie_id IN (SELECT movie_id FROM ratings "
     "WHERE rating_score = 5)", "SELECT movie_title FROM movies WHERE movie_id IN (1, 2)"),
    ("SELECT movie_id, RANK() OVER (ORDER BY movie_popularity DESC) FROM movies",
     "SELECT movie_id, ROW_NUMBER() OVER (ORDER BY movie_popularity DESC) FROM movies"),
], ids=["cte", "recursive", "union", "subquery", "window"])
def test_reading_queries_run_under_the_authorizer(cinema_db, predicted, gold):
    outcome = execute_and_compare(predicted, gold, cinema_db)
    assert outcome.matched, outcome


def test_matched_outcome_cannot_carry_errors():
    with pytest.raises(ValueError):
        EvalOutcome(0, True, predicted_error="boom")


def _instances(difficulties):
    return [
        TaskInstance(i, f"question {i}?", "", "SELECT 1", "db", difficulty)
        for i, difficulty in enumerate(difficulties)
    ]


def _outcomes(matched_flags):
    return [EvalOutcome(i, matched) for i, matched in enumerate(matched_flags)]


def test_aggregate_simple_hand_count():
    instances = _instances(["simple"] * 10)
    outcomes = _outcomes([True] * 5 + [False] * 5)
    assert aggregate(outcomes, instances)["sum"] == 50.0


def test_aggregate_all_matched():
    instances = _instances(["simple", "moderate", "challenging"])
    outcomes = _outcomes([True, True, True])
    assert aggregate(outcomes, instances) == {
        "simple": 100.0, "moderate": 100.0, "challenging": 100.0, "sum": 100.0}


def test_aggregate_per_difficulty_hand_count():
    # 4 simple (3 matched), 4 moderate (1), 2 challenging (0)
    instances = _instances(
        ["simple"] * 4 + ["moderate"] * 4 + ["challenging"] * 2)
    outcomes = _outcomes(
        [True, True, True, False, True, False, False, False, False, False])
    assert aggregate(outcomes, instances) == {
        "simple": 75.0, "moderate": 25.0, "challenging": 0.0, "sum": 40.0}


def test_aggregate_count_mismatch():
    instances = _instances(["simple", "simple"])
    with pytest.raises(CountMismatch):
        aggregate(_outcomes([True]), instances)
    with pytest.raises(CountMismatch):
        aggregate([EvalOutcome(5, True), EvalOutcome(6, False)], instances)


def test_aggregate_deterministic():
    instances = _instances(["simple", "moderate", "challenging"] * 3)
    outcomes = _outcomes([True, False, True, False, True, False, True, False, True])
    first = aggregate(outcomes, instances)
    second = aggregate(outcomes, instances)
    assert first == second


def _make_big_db(db):
    conn = sqlite3.connect(db)
    conn.executescript("""
        CREATE TABLE n (x INTEGER);
        WITH RECURSIVE seq(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM seq WHERE x < 600)
        INSERT INTO n SELECT x FROM seq;
    """)
    conn.commit()
    conn.close()
    return db


def test_query_timeout_bounds_runtime(tmp_path):
    db = _make_big_db(tmp_path / "big.sqlite")
    # cartesian explosion: ~600^3 rows, must be cut off by the timeout
    outcome = execute_and_compare(
        "SELECT COUNT(*) FROM n a, n b, n c WHERE a.x + b.x + c.x > 0",
        "SELECT 1",
        db,
        timeout=0.3,
    )
    assert not outcome.matched
    assert outcome.predicted_error == "timeout"
    assert outcome.elapsed < 10


def test_result_rows_are_bounded(cinema_db, monkeypatch):
    rows = sqlite3.connect(cinema_db).execute("SELECT COUNT(*) FROM movies").fetchone()[0]
    monkeypatch.setattr(evaluate, "MAX_RESULT_ROWS", rows)
    every, one_fewer = "SELECT movie_id FROM movies", "SELECT movie_id FROM movies LIMIT 1"
    assert execute_and_compare(every, every, cinema_db).matched  # at the bound

    monkeypatch.setattr(evaluate, "MAX_RESULT_ROWS", rows - 1)
    predicted = execute_and_compare(every, one_fewer, cinema_db)
    assert not predicted.matched and predicted.gold_error is None
    assert predicted.predicted_error == f"result exceeds {rows - 1} rows"
    gold = execute_and_compare(one_fewer, every, cinema_db)
    assert not gold.matched and gold.predicted_error is None
    assert gold.gold_error == f"result exceeds {rows - 1} rows"
    both = execute_and_compare(one_fewer, one_fewer, cinema_db)
    assert both.matched


@pytest.fixture()
def opened(monkeypatch):
    """Every connection the evaluator opens, in order."""
    connections = []
    connect = evaluate.connect_read_only

    def spy(*args, **kwargs):
        conn = connect(*args, **kwargs)
        connections.append(conn)
        return conn

    monkeypatch.setattr(evaluate, "connect_read_only", spy)
    return connections


def test_without_an_owner_both_queries_share_one_connection(cinema_db, opened):
    assert execute_and_compare("SELECT 1", "SELECT 1", cinema_db).matched
    assert len(opened) == 1
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        opened[0].execute("SELECT 1")


def test_a_reused_connection_answers_after_a_row_bound_error(cinema_db, monkeypatch, opened):
    monkeypatch.setattr(evaluate, "MAX_RESULT_ROWS", 2)
    connections = DatabaseConnections()
    try:
        bounded = execute_and_compare(
            "SELECT movie_id FROM movies", "SELECT 1", cinema_db, connections=connections)
        assert bounded.predicted_error == "result exceeds 2 rows"
        after = execute_and_compare(
            "SELECT movie_title FROM movies WHERE movie_id > 2 ORDER BY movie_id",
            "SELECT 'Cinema Paradiso' UNION SELECT 'Sunset Boulevard'",
            cinema_db, connections=connections)
        assert after.matched, after
    finally:
        connections.close()
    assert len(opened) == 1


def test_a_reused_connection_answers_after_a_deadline_interrupt(tmp_path, opened):
    db = _make_big_db(tmp_path / "big.sqlite")
    connections = DatabaseConnections()
    try:
        interrupted = execute_and_compare(
            "SELECT COUNT(*) FROM n a, n b, n c WHERE a.x + b.x + c.x > 0", "SELECT 1", db,
            timeout=0.3, connections=connections)
        assert interrupted.predicted_error == "timeout"
        after = execute_and_compare(
            "SELECT COUNT(*), SUM(x) FROM n", "SELECT 600, 180300", db, connections=connections)
        assert after.matched, after
    finally:
        connections.close()
    assert len(opened) == 1


def test_a_missing_database_is_that_questions_error_and_is_not_kept(tmp_path, opened):
    db = tmp_path / "late.sqlite"
    connections = DatabaseConnections()
    try:
        missing = execute_and_compare("SELECT 1", "SELECT 1", db, connections=connections)
        assert (missing.matched, missing.predicted_error, missing.gold_error) == (
            False, "unable to open database file", "unable to open database file")
        make_cinema_db(db)
        assert execute_and_compare(
            "SELECT COUNT(*) FROM movies", "SELECT 4", db, connections=connections).matched
    finally:
        connections.close()
    assert len(opened) == 1


def test_threads_sharing_an_owner_open_one_connection_per_database_each(tmp_path, opened):
    databases = [make_cinema_db(tmp_path / f"cinema{i}.sqlite") for i in range(2)]
    workers = 8  # more than the cores, with a short switch interval
    connections = DatabaseConnections()
    barrier = threading.Barrier(workers)

    def work(_):
        barrier.wait(timeout=10)
        return all(execute_and_compare("SELECT COUNT(*) FROM movies", "SELECT 4", database,
                                       connections=connections).matched
                   for _ in range(20) for database in databases)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            futures = [executor.submit(work, i) for i in range(workers)]
            assert all(future.result(timeout=60) for future in futures)
    finally:
        sys.setswitchinterval(interval)
        connections.close()
    assert len(opened) == workers * len(databases)
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")


_VALUE = st.sampled_from([
    0, 1, -1, 2, 0.0, -0.0, 1.0, 2.0, 1.5, 0.1 + 0.2, 0.3, 1e-7, 2e-7, 1.0000001, 1.0000004,
    None, "", "a", "1", b"", b"a", b"\x00"]) | st.integers(-3, 3) | st.floats(
    -4, 4, allow_nan=False, allow_infinity=False)


@st.composite
def _result_pairs(draw):
    """Gold and predicted rows of one width, the predicted ones often the
    gold ones reordered, repeated or with one value swapped."""
    width = draw(st.integers(1, 3))
    row = st.tuples(*[_VALUE] * width)
    gold = draw(st.lists(row, max_size=5))
    predicted = draw(st.permutations(gold)) if gold and draw(st.booleans()) else draw(
        st.lists(row, max_size=5))
    if predicted and draw(st.booleans()):
        i, j = draw(st.integers(0, len(predicted) - 1)), draw(st.integers(0, width - 1))
        predicted[i] = predicted[i][:j] + (draw(_VALUE),) + predicted[i][j + 1:]
    return gold, predicted + draw(st.lists(st.sampled_from(predicted), max_size=2)
                                  if predicted else st.just([]))


@settings(max_examples=500, deadline=None)
@given(_result_pairs())
def test_comparing_raw_rows_first_matches_as_normalized_rows_alone(rows):
    # The comparison before raw rows were compared first: every float
    # rounded to six decimals, then the row sets compared.
    def normalized(result):
        return frozenset(tuple(round(v, 6) if isinstance(v, float) else v for v in row)
                         for row in result)

    gold, predicted = rows
    assert evaluate._rows_match(gold, predicted) == (normalized(gold) == normalized(predicted))
