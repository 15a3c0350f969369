from __future__ import annotations

import contextlib
import json
import logging
import sqlite3

import pytest

import sqlbench.bench as bench
from conftest import MINI_QUESTIONS, make_cinema_db, make_continent_db, write_benchmark
from sqlbench.bench import (
    MalformedRecord,
    MetadataDecodeError,
    MissingDatabase,
    NotADatabase,
    TaskInstance,
    connect_read_only,
    introspect_database,
    load_split,
    read_description_dir,
)
from sqlbench.schema import ForeignKey, SchemaVariant, render_schema


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


_RECORD = {"question_id": 0, "question": "How many movies are there?", "evidence": "",
           "SQL": "SELECT COUNT(*) FROM movies", "db_id": "cinema"}


@pytest.mark.parametrize("record, message", [
    ([_RECORD], "record 1: expected a JSON object"),
    ("How many movies are there?", "record 1: expected a JSON object"),
    (7, "record 1: expected a JSON object"),
    ({**_RECORD, "question_id": True}, "record 1: question_id must be an integer"),
], ids=["list", "string", "int", "boolean-question-id"])
def test_a_malformed_record_is_named_by_its_position(tmp_path, record, message):
    root = write_benchmark(tmp_path / "b", [_RECORD, record], {"cinema": make_cinema_db})
    with pytest.raises(MalformedRecord) as raised:
        load_split(root, "dev")
    assert str(raised.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("question", None, "record 1: question must be a string"),
    ("SQL", None, "record 1: SQL must be a string"),
    ("db_id", 7, "record 1: db_id must be a string"),
    ("evidence", ["why"], "record 1: evidence must be a string or null"),
    ("difficulty", 2, "record 1: difficulty must be a string or null"),
], ids=["question", "SQL", "db_id", "evidence", "difficulty"])
def test_a_field_the_report_cannot_describe_is_refused(tmp_path, field, value, message):
    root = write_benchmark(tmp_path / "b", [_RECORD, {**_RECORD, "question_id": 1, field: value}],
                           {"cinema": make_cinema_db})
    with pytest.raises(MalformedRecord) as raised:
        load_split(root, "dev")
    assert str(raised.value) == message


def test_a_null_evidence_or_difficulty_takes_its_default(tmp_path):
    root = write_benchmark(tmp_path / "b", [{**_RECORD, "evidence": None, "difficulty": None}],
                           {"cinema": make_cinema_db})
    (instance,) = load_split(root, "dev").instances
    assert (instance.external_knowledge, instance.difficulty) == ("", "simple")


def test_a_repeated_question_id_is_refused(tmp_path):
    records = [_RECORD, {**_RECORD, "question_id": 1}, {**_RECORD, "question_id": 0}]
    root = write_benchmark(tmp_path / "b", records, {"cinema": make_cinema_db})
    with pytest.raises(MalformedRecord) as raised:
        load_split(root, "dev")
    assert str(raised.value) == "records 0 and 2: question_id 0 repeats"


def test_an_empty_question_text_is_refused(tmp_path):
    root = write_benchmark(tmp_path / "b", [{**_RECORD, "question": " \n "}],
                           {"cinema": make_cinema_db})
    with pytest.raises(MalformedRecord, match="question 0: empty question text"):
        load_split(root, "dev")


@pytest.mark.parametrize("text, message", [
    ("[{", "dev.json: Expecting"),
    ('{"question_id": 0}', "dev.json: expected a JSON array"),
], ids=["not-json", "not-an-array"])
def test_a_question_file_that_is_not_a_json_array_is_refused(tmp_path, text, message):
    root = write_benchmark(tmp_path / "b", [], {"cinema": make_cinema_db})
    (root / "dev.json").write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRecord, match=message):
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


def test_names_with_double_quotes_load_and_render(tmp_path):
    def make_quoted_db(path):
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE "t""x" ("a""b" INTEGER PRIMARY KEY, "c" TEXT);
            CREATE TABLE "r" ("id" INTEGER PRIMARY KEY,
                              "x""ref" INTEGER REFERENCES "t""x"("a""b"));
            INSERT INTO "t""x" VALUES (1, 'p'), (2, 'q');
            INSERT INTO "r" VALUES (1, 2);
        """)
        conn.commit()
        conn.close()

    questions = [{"question_id": 0, "question": "How many?", "evidence": "",
                  "SQL": 'SELECT COUNT(*) FROM "t""x"', "db_id": "quoted"}]
    root = write_benchmark(tmp_path / "bench", questions, {"quoted": make_quoted_db})
    catalog = load_split(root, "dev").databases["quoted"]
    tables = catalog.table_map()
    assert [c.name for c in tables['t"x'].columns] == ['a"b', "c"]
    assert tables['t"x'].columns[0].values == ("1", "2")
    assert tables['t"x'].columns[1].values == ("p", "q")
    assert tables["r"].columns[1].values == ("2",)
    assert catalog.foreign_keys == (ForeignKey("r", 'x"ref', 't"x', 'a"b'),)
    text = render_schema(catalog, SchemaVariant.C_A)
    assert '# t"x (\n#   a"b: int, (1, 2), PRIMARY_KEY\n#   c: text, (p, q)\n# )' in text
    assert '# r.x"ref=t"x.a"b' in text


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


def test_a_foreign_key_without_a_target_column_references_the_primary_key(tmp_path):
    path = tmp_path / "fk.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE a (id INTEGER PRIMARY KEY, name TEXT);
        CREATE TABLE b (x INTEGER REFERENCES a, y TEXT);
    """)
    conn.close()
    assert introspect_database(path).foreign_keys == (ForeignKey("b", "x", "a", "id"),)


def test_a_dangling_foreign_key_is_dropped_with_a_warning(tmp_path, caplog):
    path = tmp_path / "fk.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE a (id INTEGER, name TEXT);
        CREATE TABLE b (x INTEGER REFERENCES missing(id), y INTEGER REFERENCES a);
    """)
    conn.close()
    with caplog.at_level(logging.WARNING, logger="sqlbench.bench"):
        catalog = introspect_database(path)
    assert catalog.foreign_keys == ()
    assert sorted(record.getMessage() for record in caplog.records) == [
        "dropping dangling foreign key ForeignKey(table='b', column='x', ref_table='missing', "
        "ref_column='id')",
        "dropping dangling foreign key ForeignKey(table='b', column='y', ref_table='a', "
        "ref_column='')",
    ]


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


def test_value_probe_timeout_skips_values(tmp_path, monkeypatch, caplog):
    # The probe of an all-NULL column scans every row, so with no time left
    # the progress handler interrupts it.
    db = tmp_path / "notes.sqlite"
    with contextlib.closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE notes (body TEXT)")
        conn.executemany("INSERT INTO notes VALUES (?)", [(None,)] * 5_000)
        conn.commit()
    monkeypatch.setattr(bench, "VALUE_PROBE_TIMEOUT", 0.0)
    with caplog.at_level(logging.WARNING, logger="sqlbench.bench"):
        catalog = introspect_database(db)
    assert catalog.database_id == "notes"
    assert [(c.name, c.values) for c in catalog.tables[0].columns] == [("body", None)]
    assert "value probe timed out for notes.body; VALUES skipped" in caplog.text


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
    assert written.predicted_error == "not authorized"  # denied before it reaches the file
    with contextlib.closing(connect_read_only(db)) as conn:
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("DELETE FROM movies")
    assert sorted(p for p in tmp_path.rglob("*")) == before  # no stray file
