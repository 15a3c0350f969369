"""Execution accuracy: run predicted and gold SQL, compare result sets.

Rows are compared as unordered sets of value tuples with floats rounded to
six decimals; column order within a row is significant, column names are
not. Databases are opened read-only, so any write attempt in predicted SQL
fails that query. NULLs compare as a distinct sentinel equal only to
itself.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .bench import DIFFICULTIES, TaskInstance, connect_read_only

DEFAULT_QUERY_TIMEOUT = 30.0


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


def _run_query(database: Path, sql: str, timeout: float):
    """Execute one read-only query; returns (rows, error)."""
    try:
        conn = connect_read_only(database)
    except sqlite3.Error as exc:
        return None, str(exc)
    deadline = time.monotonic() + timeout
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    try:
        rows = conn.execute(sql).fetchall()
        return rows, None
    except sqlite3.OperationalError as exc:
        message = str(exc)
        if "interrupt" in message.lower() or time.monotonic() > deadline:
            return None, "timeout"
        return None, message
    except sqlite3.Error as exc:
        return None, str(exc)
    finally:
        conn.set_progress_handler(None, 0)
        conn.close()


def execute_and_compare(
    predicted: str,
    gold: str,
    database: Path,
    timeout: float = DEFAULT_QUERY_TIMEOUT,
    *,
    question_id: int = 0,
) -> EvalOutcome:
    """Match iff both queries execute and their normalized row sets agree.

    A gold-side failure is recorded (dataset hygiene), never raised.
    """
    started = time.monotonic()
    gold_rows, gold_error = _run_query(database, gold, timeout)
    predicted_rows, predicted_error = _run_query(database, predicted, timeout)
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
