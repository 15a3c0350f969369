"""BIRD-format benchmark ingestion.

Expected layout under a benchmark root:

    <root>/<split>.json
    <root>/databases/<db_id>/<db_id>.sqlite
    <root>/databases/<db_id>/database_description/<table>.csv

The question file is a JSON array of objects with keys question_id,
question, evidence, SQL, db_id and an optional difficulty. Description CSVs
carry original_column_name and column_description columns and may contain
mixed encodings; undecodable bytes are replaced, never rejected.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .schema import (
    MAX_SAMPLE_VALUES,
    ColumnSpec,
    DatabaseCatalog,
    ForeignKey,
    TableSpec,
)

logger = logging.getLogger(__name__)

DIFFICULTIES = ("simple", "moderate", "challenging")
DEFAULT_DIFFICULTY = "simple"

# One probe query per column; a sixth distinct value disqualifies the list.
_VALUE_PROBE_LIMIT = MAX_SAMPLE_VALUES + 1
DEFAULT_VALUE_PROBE_TIMEOUT = 5.0


class MissingDatabase(FileNotFoundError):
    pass


class MalformedRecord(ValueError):
    pass


class MetadataDecodeError(ValueError):
    pass


class NotADatabase(ValueError):
    pass


@dataclass(frozen=True)
class TaskInstance:
    question_id: int
    question: str
    external_knowledge: str
    gold_sql: str
    database_id: str
    difficulty: str = DEFAULT_DIFFICULTY

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise MalformedRecord(f"question {self.question_id}: empty question text")
        if self.difficulty not in DIFFICULTIES:
            raise MalformedRecord(
                f"question {self.question_id}: unknown difficulty {self.difficulty!r}")


@dataclass(frozen=True)
class BenchmarkSplit:
    name: str
    instances: tuple[TaskInstance, ...]
    databases: Mapping[str, DatabaseCatalog] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "databases", dict(self.databases))
        for instance in self.instances:
            if instance.database_id not in self.databases:
                raise MissingDatabase(
                    f"question {instance.question_id} references unknown database "
                    f"{instance.database_id!r}")


def _normalize_type(declared: Optional[str]) -> str:
    """Map a declared SQLite type to the six-name vocabulary (default text)."""
    lowered = (declared or "").lower()
    for name in ("datetime", "varchar", "date", "int", "real", "text"):
        if name in lowered:
            return name
    return "text"


def read_description_dir(description_dir: Path) -> dict[str, dict[str, str]]:
    """Read per-table description CSVs into {table: {column: description}}."""
    descriptions: dict[str, dict[str, str]] = {}
    if not description_dir.is_dir():
        return descriptions
    for csv_path in sorted(description_dir.glob("*.csv")):
        raw = csv_path.read_bytes()
        text = raw.decode("utf-8", errors="replace")
        try:
            reader = csv.DictReader(io.StringIO(text))
            if reader.fieldnames is None or "original_column_name" not in reader.fieldnames:
                raise MetadataDecodeError(
                    f"{csv_path.name}: missing original_column_name header")
            table_desc: dict[str, str] = {}
            for row in reader:
                column = (row.get("original_column_name") or "").strip()
                description = (row.get("column_description") or "").strip()
                if column and description:
                    table_desc[column] = description
        except csv.Error as exc:
            raise MetadataDecodeError(f"{csv_path.name}: {exc}") from exc
        descriptions[csv_path.stem] = table_desc
    return descriptions


def _probe_values(
    conn: sqlite3.Connection,
    table: str,
    column: str,
    timeout: float,
) -> Optional[tuple[str, ...]]:
    if timeout <= 0:
        logger.warning("value probe timed out for %s.%s; VALUES skipped", table, column)
        return None
    deadline = time.monotonic() + timeout
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 1_000)
    try:
        cursor = conn.execute(
            f'SELECT DISTINCT "{column}" FROM "{table}" '
            f'WHERE "{column}" IS NOT NULL LIMIT {_VALUE_PROBE_LIMIT}')
        rows = cursor.fetchall()
    except sqlite3.OperationalError as exc:
        if "interrupt" in str(exc).lower():
            logger.warning("value probe timed out for %s.%s; VALUES skipped", table, column)
            return None
        raise
    finally:
        conn.set_progress_handler(None, 0)
    values = [row[0] for row in rows]
    if not values or len(values) > MAX_SAMPLE_VALUES:
        return None
    if any(isinstance(v, (bytes, memoryview)) for v in values):
        return None
    return tuple(str(v) for v in values)


def connect_read_only(path: Path) -> sqlite3.Connection:
    """Open a SQLite file read-only.

    The URI is built from the quoted absolute path, so a '#', '?' or '%' in
    the path stays part of the file name instead of ending it.
    """
    return sqlite3.connect(Path(path).resolve().as_uri() + "?mode=ro", uri=True)


def introspect_database(
    sqlite_file: Path,
    descriptions: Optional[Mapping[str, Mapping[str, str]]] = None,
    *,
    database_id: Optional[str] = None,
    value_probe_timeout: float = DEFAULT_VALUE_PROBE_TIMEOUT,
) -> DatabaseCatalog:
    """Build a catalog from a SQLite file.

    Lists every user table (views and sqlite_* internals excluded), records
    declared types mapped onto the six-name vocabulary, primary-key flags,
    up to five distinct non-NULL sample values per column, and all foreign
    keys. Column order follows the physical declaration order.
    """
    sqlite_file = Path(sqlite_file)
    if not sqlite_file.is_file():
        raise MissingDatabase(str(sqlite_file))
    descriptions = descriptions or {}
    db_id = database_id or sqlite_file.stem

    conn = connect_read_only(sqlite_file)
    try:
        try:
            rows = conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type='table' AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\'"
            ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise NotADatabase(f"{sqlite_file}: {exc}") from exc

        tables: list[TableSpec] = []
        for (table_name,) in rows:
            table_desc = descriptions.get(table_name, {})
            columns: list[ColumnSpec] = []
            for _, col_name, declared, _, _, pk in conn.execute(
                    f'PRAGMA table_info("{table_name}")'):
                columns.append(ColumnSpec(
                    name=col_name,
                    type_name=_normalize_type(declared),
                    description=table_desc.get(col_name) or None,
                    values=_probe_values(conn, table_name, col_name, value_probe_timeout),
                    is_primary_key=bool(pk),
                ))
            tables.append(TableSpec(table_name, tuple(columns)))

        known = {(t.name, c.name) for t in tables for c in t.columns}
        pk_by_table = {
            t.name: [c.name for c in t.columns if c.is_primary_key] for t in tables
        }
        foreign_keys: list[ForeignKey] = []
        for table in tables:
            for row in conn.execute(f'PRAGMA foreign_key_list("{table.name}")'):
                _, _, ref_table, from_col, to_col = row[0], row[1], row[2], row[3], row[4]
                if to_col is None:
                    # Implicit reference to the target table's primary key.
                    pks = pk_by_table.get(ref_table, [])
                    to_col = pks[0] if pks else None
                fk = ForeignKey(table.name, from_col, ref_table, to_col or "")
                if (fk.table, fk.column) in known and (fk.ref_table, fk.ref_column) in known:
                    foreign_keys.append(fk)
                else:
                    logger.warning("dropping dangling foreign key %s", fk)
    finally:
        conn.close()

    return DatabaseCatalog(db_id, tuple(tables), tuple(foreign_keys))


def _parse_record(raw: dict, position: int) -> TaskInstance:
    for key in ("question", "SQL", "db_id"):
        if key not in raw:
            raise MalformedRecord(f"record {position}: missing field {key!r}")
    question_id = raw.get("question_id", position)
    if not isinstance(question_id, int):
        raise MalformedRecord(f"record {position}: question_id must be an integer")
    return TaskInstance(
        question_id=question_id,
        question=str(raw["question"]).strip(),
        external_knowledge=str(raw.get("evidence") or "").strip(),
        gold_sql=str(raw["SQL"]).strip(),
        database_id=str(raw["db_id"]),
        difficulty=str(raw.get("difficulty") or DEFAULT_DIFFICULTY),
    )


def load_split(
    root_dir: Path,
    split_name: str,
    *,
    value_probe_timeout: float = DEFAULT_VALUE_PROBE_TIMEOUT,
) -> BenchmarkSplit:
    """Load one benchmark split with all catalogs under <root>/databases."""
    root_dir = Path(root_dir)
    question_file = root_dir / f"{split_name}.json"
    if not question_file.is_file():
        raise MalformedRecord(f"question file not found: {question_file}")
    try:
        records = json.loads(question_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"{question_file.name}: {exc}") from exc
    if not isinstance(records, list):
        raise MalformedRecord(f"{question_file.name}: expected a JSON array")

    instances = tuple(_parse_record(raw, i) for i, raw in enumerate(records))

    databases_dir = root_dir / "databases"
    catalogs: dict[str, DatabaseCatalog] = {}
    if databases_dir.is_dir():
        for db_dir in sorted(p for p in databases_dir.iterdir() if p.is_dir()):
            sqlite_file = db_dir / f"{db_dir.name}.sqlite"
            if not sqlite_file.is_file():
                continue
            descriptions = read_description_dir(db_dir / "database_description")
            catalogs[db_dir.name] = introspect_database(
                sqlite_file, descriptions,
                database_id=db_dir.name,
                value_probe_timeout=value_probe_timeout,
            )

    for instance in instances:
        if instance.database_id not in catalogs:
            raise MissingDatabase(
                f"question {instance.question_id} references database "
                f"{instance.database_id!r} with no SQLite file under {databases_dir}")

    return BenchmarkSplit(split_name, instances, catalogs)


def database_path(root_dir: Path, database_id: str) -> Path:
    return Path(root_dir) / "databases" / database_id / f"{database_id}.sqlite"
