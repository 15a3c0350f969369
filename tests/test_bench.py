from __future__ import annotations

import json
import sqlite3

import pytest

from conftest import MINI_QUESTIONS, make_cinema_db, make_continent_db, make_school_db, write_benchmark
from sqlbench.bench import (
    MalformedRecord,
    MetadataDecodeError,
    MissingDatabase,
    NotADatabase,
    TaskInstance,
    introspect_database,
    load_split,
    read_description_dir,
)


def test_load_split_counts(mini_bench):
    split = load_split(mini_bench, "dev")
    assert len(split.instances) == 10
    assert set(split.databases) == {"cinema", "schools"}
    assert split.instances[0].question_id == 0
    assert split.instances[-1].difficulty == "challenging"


def test_load_split_preserves_file_order(mini_bench):
    split = load_split(mini_bench, "dev")
    assert [i.question_id for i in split.instances] == [q["question_id"] for q in MINI_QUESTIONS]


def test_empty_question_array(tmp_path):
    root = write_benchmark(tmp_path / "b", [], {"cinema": make_cinema_db})
    split = load_split(root, "dev")
    assert split.instances == ()
    assert "cinema" in split.databases


def test_missing_database_raises(tmp_path):
    questions = [{"question_id": 0, "question": "q?", "evidence": "",
                  "SQL": "SELECT 1", "db_id": "missing"}]
    root = write_benchmark(tmp_path / "b", questions, {"cinema": make_cinema_db})
    with pytest.raises(MissingDatabase):
        load_split(root, "dev")


def test_malformed_record_raises(tmp_path):
    root = write_benchmark(tmp_path / "b", [{"question_id": 0, "question": "q?"}],
                           {"cinema": make_cinema_db})
    with pytest.raises(MalformedRecord):
        load_split(root, "dev")


def test_blank_question_rejected():
    with pytest.raises(MalformedRecord):
        TaskInstance(0, "   ", "", "SELECT 1", "db")


def test_difficulty_defaults_to_simple(tmp_path):
    questions = [{"question_id": 0, "question": "How many movies are there?",
                  "evidence": "", "SQL": "SELECT COUNT(*) FROM movies", "db_id": "cinema"}]
    root = write_benchmark(tmp_path / "b", questions, {"cinema": make_cinema_db})
    split = load_split(root, "dev")
    assert split.instances[0].difficulty == "simple"


def test_missing_evidence_becomes_empty_string(mini_bench):
    split = load_split(mini_bench, "dev")
    assert split.instances[0].external_knowledge == ""
    assert split.instances[6].external_knowledge.startswith("Excellence rate")


def test_introspect_continent_fixture(tmp_path):
    db = make_continent_db(tmp_path / "world.sqlite")
    catalog = introspect_database(db)
    assert [t.name for t in catalog.tables] == ["continents", "countries"]
    assert len(catalog.foreign_keys) == 1
    fk = catalog.foreign_keys[0]
    assert (fk.table, fk.column, fk.ref_table, fk.ref_column) == (
        "countries", "Continent", "continents", "ContId")


def test_introspect_empty_database(tmp_path):
    path = tmp_path / "empty.sqlite"
    sqlite3.connect(path).close()
    catalog = introspect_database(path)
    assert catalog.tables == ()


def test_not_a_database(tmp_path):
    path = tmp_path / "junk.sqlite"
    path.write_bytes(b"this is not sqlite at all, not even close to it......")
    with pytest.raises(NotADatabase):
        introspect_database(path)


def test_values_kept_up_to_five_distinct(tmp_path):
    path = tmp_path / "vals.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE t (three TEXT, six INTEGER, with_null TEXT);
        INSERT INTO t VALUES ('a', 1, 'x'), ('b', 2, NULL), ('c', 3, 'x'),
                             ('a', 4, NULL), ('b', 5, 'y'), ('c', 6, 'x');
    """)
    conn.commit()
    conn.close()
    catalog = introspect_database(path)
    columns = {c.name: c for c in catalog.tables[0].columns}
    assert columns["three"].values == ("a", "b", "c")
    assert columns["six"].values is None  # six distinct -> VALUES absent
    assert columns["with_null"].values == ("x", "y")  # NULL never sampled


def test_values_occur_in_underlying_table(tmp_path):
    db = make_cinema_db(tmp_path / "cinema.sqlite")
    catalog = introspect_database(db)
    conn = sqlite3.connect(db)
    for table in catalog.tables:
        for column in table.columns:
            if column.values is None:
                continue
            assert 1 <= len(column.values) <= 5
            stored = {
                str(row[0]) for row in conn.execute(
                    f'SELECT DISTINCT "{column.name}" FROM "{table.name}"')
                if row[0] is not None
            }
            assert set(column.values) <= stored
    conn.close()


def test_type_normalization(tmp_path):
    path = tmp_path / "types.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("""
        CREATE TABLE t (
            a INTEGER, b BIGINT, c VARCHAR(40), d TEXT, e REAL,
            f DATETIME, g DATE, h FLOAT, i BLOB, j
        )
    """)
    conn.commit()
    conn.close()
    catalog = introspect_database(path)
    types = {c.name: c.type_name for c in catalog.tables[0].columns}
    assert types == {
        "a": "int", "b": "int", "c": "varchar", "d": "text", "e": "real",
        "f": "datetime", "g": "date", "h": "text", "i": "text", "j": "text",
    }


def test_views_and_internal_tables_excluded(tmp_path):
    path = tmp_path / "views.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE base (x INTEGER PRIMARY KEY);
        CREATE VIEW v AS SELECT x FROM base;
        CREATE INDEX ix ON base(x);
    """)
    conn.commit()
    conn.close()
    catalog = introspect_database(path)
    assert [t.name for t in catalog.tables] == ["base"]


def test_descriptions_attach_to_columns(mini_bench):
    split = load_split(mini_bench, "dev")
    schools = split.databases["schools"].table_map()["schools"]
    phone = next(c for c in schools.columns if c.name == "Phone")
    assert phone.description == "phone number of school"


def test_description_csv_with_bad_bytes_decodes_lossily(tmp_path):
    desc_dir = tmp_path / "database_description"
    desc_dir.mkdir()
    (desc_dir / "t.csv").write_bytes(
        b"original_column_name,column_description\ncol,caf\xe9 description\n")
    descriptions = read_description_dir(desc_dir)
    assert "col" in descriptions["t"]
    assert "caf" in descriptions["t"]["col"]


def test_description_csv_missing_header_rejected(tmp_path):
    desc_dir = tmp_path / "database_description"
    desc_dir.mkdir()
    (desc_dir / "t.csv").write_text("wrong,head\na,b\n", encoding="utf-8")
    with pytest.raises(MetadataDecodeError):
        read_description_dir(desc_dir)


def test_loading_twice_is_byte_identical(mini_bench):
    def snapshot():
        split = load_split(mini_bench, "dev")
        return json.dumps({
            "instances": [
                (i.question_id, i.question, i.external_knowledge, i.gold_sql,
                 i.database_id, i.difficulty)
                for i in split.instances
            ],
            "databases": {
                db_id: [
                    (t.name, [(c.name, c.type_name, c.description, c.values,
                               c.is_primary_key) for c in t.columns])
                    for t in catalog.tables
                ] + [tuple(fk.__dict__.values()) for fk in catalog.foreign_keys]
                for db_id, catalog in sorted(split.databases.items())
            },
        }, sort_keys=True, default=list)

    assert snapshot() == snapshot()


def test_every_fk_references_existing_columns(mini_bench):
    split = load_split(mini_bench, "dev")
    for catalog in split.databases.values():
        columns = catalog.column_set()
        for fk in catalog.foreign_keys:
            assert (fk.table, fk.column) in columns
            assert (fk.ref_table, fk.ref_column) in columns


def test_value_probe_timeout_skips_values(tmp_path, caplog):
    db = make_school_db(tmp_path / "schools.sqlite")
    catalog = introspect_database(db, value_probe_timeout=-1.0)
    for table in catalog.tables:
        for column in table.columns:
            assert column.values is None


@pytest.mark.parametrize("dirname", ["d#x", "q?x", "p%20y", "s pace"])
def test_special_characters_in_root_open_the_right_file_read_only(tmp_path, dirname):
    from sqlbench.bench import database_path
    from sqlbench.evaluate import execute_and_compare

    root = write_benchmark(tmp_path / dirname / "bench", MINI_QUESTIONS[:2],
                           {"cinema": make_cinema_db})
    before = sorted(p for p in tmp_path.rglob("*"))
    split = load_split(root, "dev")
    assert [t.name for t in split.databases["cinema"].tables] == ["movies", "ratings"]

    db = database_path(root, "cinema")
    for instance in split.instances:
        outcome = execute_and_compare(instance.gold_sql, instance.gold_sql, db)
        assert outcome.matched, outcome
    written = execute_and_compare("DELETE FROM movies", "SELECT 1", db)
    assert "readonly" in written.predicted_error
    assert sorted(p for p in tmp_path.rglob("*")) == before  # no stray file
