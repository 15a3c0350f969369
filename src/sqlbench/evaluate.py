"""Execution accuracy: run predicted and gold SQL, compare result sets.

Rows are compared as unordered sets of value tuples with floats rounded to
six decimals; column order within a row is significant, column names are
not. Databases are opened read-only, and an authorizer lets a query only
select, read and call functions, so a predicted `ATTACH`, `VACUUM INTO`,
`PRAGMA` or temp-table write fails that query without touching any file.
Because no query can leave state behind, a `DatabaseConnections` keeps one
such connection per thread and database file for a whole run, with a page
cache of 64 KiB and, from Python 3.11, values of at most MAX_VALUE_BYTES;
`execute_and_compare` without one opens a connection for its two queries
and closes it. NULLs compare as a distinct sentinel equal only to itself.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .bench import DIFFICULTIES, TaskInstance, connect_read_only

DEFAULT_QUERY_TIMEOUT = 30.0
# Rows one query may return. A larger result becomes that query's error
# instead of being held in memory; below the bound EX is unaffected.
MAX_RESULT_ROWS = 1_000_000
# Bytes one string or blob may hold (SQLITE_LIMIT_LENGTH), where Python can
# set it (3.11+). A query that builds a longer value fails with "string or
# blob too big" instead of holding it in memory.
MAX_VALUE_BYTES = 10_000_000
# Authorizer actions a query may take; every other action is denied.
_ALLOWED_ACTIONS = frozenset((sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                              sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE))


# Page cache per connection, in KiB (a negative cache_size). A run keeps one
# connection per thread and database, so this bounds what they hold.
_CACHE_KIB = 64


def _authorize(action: int, *args) -> int:
    return sqlite3.SQLITE_OK if action in _ALLOWED_ACTIONS else sqlite3.SQLITE_DENY


class DatabaseConnections:
    """One authorized read-only connection per (thread, database file).

    A run opens each thread's connections with `prepare` before the
    thread's first question; any other is opened on the thread's first
    query to its file. An open that fails is not kept, so the next query
    tries again. `close()` closes every connection, from any thread, and a
    later query opens afresh. Each connection is used only by the thread
    that opened it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open: dict[tuple[int, Path], sqlite3.Connection] = {}

    def get(self, database: Path) -> sqlite3.Connection:
        key = (threading.get_ident(), database)
        conn = self._open.get(key)
        if conn is None:
            conn = connect_read_only(database, check_same_thread=False)
            try:  # the PRAGMA first: the authorizer denies every PRAGMA
                conn.execute(f"PRAGMA cache_size = -{_CACHE_KIB}")
            except sqlite3.Error:  # not a database file
                conn.close()
                raise
            if hasattr(conn, "setlimit"):
                conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_VALUE_BYTES)
            conn.set_authorizer(_authorize)
            with self._lock:
                self._open[key] = conn
        return conn

    def prepare(self, databases: Iterable[Path]) -> None:
        """Open the calling thread's connection to each of `databases`. An
        open that fails is skipped, so that the file's first query opens it
        again and records the error, and so that a thread pool running this
        as its initializer stays whole."""
        for database in databases:
            try:
                self.get(database)
            except sqlite3.Error:
                pass

    def close(self) -> None:
        with self._lock:
            connections, self._open = list(self._open.values()), {}
        for conn in connections:
            conn.close()


class CountMismatch(ValueError):
    pass


@dataclass(frozen=True)
class EvalOutcome:
    question_id: int
    matched: bool
    predicted_error: Optional[str] = None
    gold_error: Optional[str] = None
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.matched and (self.predicted_error or self.gold_error):
            raise ValueError("a matched outcome cannot carry execution errors")


@dataclass(frozen=True)
class EvalReport:
    outcomes: tuple[EvalOutcome, ...]
    ex_by_split: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))


def _normalize_value(value):
    if isinstance(value, float):
        return round(value, 6)
    return value


def _normalize_rows(rows: Sequence[Sequence]) -> frozenset:
    return frozenset(tuple(_normalize_value(v) for v in row) for row in rows)


def _run_query(connections: DatabaseConnections, database: Path, sql: str, timeout: float):
    """Execute one read-only query; returns (rows, error). More than
    MAX_RESULT_ROWS rows, or an action the authorizer denies, is an error."""
    try:
        conn = connections.get(database)
    except sqlite3.Error as exc:
        return None, str(exc)
    deadline = time.monotonic() + timeout
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    cursor = conn.cursor()
    try:
        rows = cursor.execute(sql).fetchmany(MAX_RESULT_ROWS + 1)
        if len(rows) > MAX_RESULT_ROWS:
            return None, f"result exceeds {MAX_RESULT_ROWS} rows"
        return rows, None
    except sqlite3.OperationalError as exc:
        message = str(exc)
        if "interrupt" in message.lower() or time.monotonic() > deadline:
            return None, "timeout"
        return None, message
    except (sqlite3.Error, sqlite3.Warning) as exc:  # 3.10 warns on a second statement
        return None, str(exc)
    finally:
        conn.set_progress_handler(None, 0)
        cursor.close()  # a bounded or interrupted query leaves no statement open


def execute_and_compare(
    predicted: str,
    gold: str,
    database: Path,
    timeout: float = DEFAULT_QUERY_TIMEOUT,
    *,
    question_id: int = 0,
    connections: Optional[DatabaseConnections] = None,
) -> EvalOutcome:
    """Match iff both queries execute and their normalized row sets agree.

    Both queries run on `connections`' connection for this thread and
    database; without an owner, one connection is opened for the two and
    closed. A gold-side failure is recorded (dataset hygiene), never raised.
    """
    started = time.monotonic()
    owned = connections is None
    if owned:
        connections = DatabaseConnections()
    try:
        gold_rows, gold_error = _run_query(connections, database, gold, timeout)
        predicted_rows, predicted_error = _run_query(connections, database, predicted, timeout)
    finally:
        if owned:
            connections.close()
    matched = (
        gold_error is None
        and predicted_error is None
        and _normalize_rows(gold_rows) == _normalize_rows(predicted_rows)
    )
    return EvalOutcome(
        question_id=question_id,
        matched=matched,
        predicted_error=predicted_error,
        gold_error=gold_error,
        elapsed=time.monotonic() - started,
    )


def aggregate(
    outcomes: Sequence[EvalOutcome],
    instances: Sequence[TaskInstance],
) -> EvalReport:
    """Fold outcomes into per-difficulty and overall accuracy percentages."""
    if len(outcomes) != len(instances):
        raise CountMismatch(
            f"{len(outcomes)} outcomes for {len(instances)} instances")
    difficulty_of = {i.question_id: i.difficulty for i in instances}
    if {o.question_id for o in outcomes} != set(difficulty_of):
        raise CountMismatch("outcome question ids do not match the instances")

    totals = {name: 0 for name in DIFFICULTIES}
    matches = {name: 0 for name in DIFFICULTIES}
    for outcome in outcomes:
        bucket = difficulty_of[outcome.question_id]
        totals[bucket] += 1
        if outcome.matched:
            matches[bucket] += 1

    def percentage(matched: int, total: int) -> float:
        return round(100.0 * matched / total, 2) if total else 0.0

    ex_by_split = {
        name: percentage(matches[name], totals[name]) for name in DIFFICULTIES
    }
    ex_by_split["sum"] = percentage(sum(matches.values()), len(outcomes))
    return EvalReport(tuple(outcomes), ex_by_split)
