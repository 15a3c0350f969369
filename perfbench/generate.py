"""Seeded BIRD-format inputs for the four benchmark workloads.

`generate(workload, seed, out_dir)` writes

    out_dir/root/<split>.json                           question files
    out_dir/root/databases/<db>/<db>.sqlite             one SQLite file per id
    out_dir/root/databases/<db>/database_description/   column notes (CSV)
    out_dir/script.json                                 scripted model answers
    out_dir/key.json                                    expected matched flags

and returns the key. Every question has a scripted answer that is either
the gold SQL (a match) or a designed mistake whose result differs from
gold by construction, so each workload has a known execution accuracy.
The same seed always gives byte-identical files.

Identifiers, descriptions and values are drawn from disjoint sets of
pseudo-words, and question scaffolding uses English words none of them
contain, so schema linking selects only the columns a question names.
"""

from __future__ import annotations

import json
import random
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("zeroshot_wide", "fewshot3", "cot_live", "exec_heavy")
DIFFICULTIES = ("simple", "moderate", "challenging")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _words(rng: random.Random, count: int, syllables: int = 3) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass
class Column:
    name: str
    description: str | None
    # A low-cardinality column cycles through `values`; otherwise each row
    # holds f"{prefix}{n}" with more than five distinct n, so ingestion
    # lists sample values only for the former.
    values: tuple[str, ...] | None
    prefix: str
    stride: int


@dataclass
class Table:
    name: str
    rows: int
    columns: list[Column]
    parent: str | None = None  # table whose id parent_id references

    def value(self, column: Column, row: int) -> str:
        if column.values:
            return column.values[(row * column.stride) % len(column.values)]
        return f"{column.prefix}{(row * column.stride) % 1009}"


@dataclass
class Database:
    db_id: str
    tables: list[Table] = field(default_factory=list)


class _Vocabulary:
    """Disjoint pseudo-word pools: tables, columns, descriptions, values."""

    def __init__(self, rng: random.Random):
        words = _words(rng, 6000)
        self.table_words = iter(words[:400])
        self.column_words = words[400:1400]
        self.description_words = words[1400:2400]
        self.value_words = iter(words[2400:])


def _spread(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """`count` values evenly spaced over [low, high] in random order.

    Sizes, shares and mixes are drawn this way throughout, so each seed
    permutes the same totals and the work per run does not depend on it.
    """
    values = [low + round((high - low) * i / max(count - 1, 1)) for i in range(count)]
    rng.shuffle(values)
    return values


def _flags(rng: random.Random, count: int, share: float) -> list[bool]:
    flags = [i < round(count * share) for i in range(count)]
    rng.shuffle(flags)
    return flags


def _wide_database(rng: random.Random, vocab: _Vocabulary, db_id: str, *, tables: int,
                   width: tuple[int, int], rows: int, column_words: int) -> Database:
    """Star-shaped catalog: every table after the first references it.

    80% of columns carry a description and 30% hold two to five distinct
    values, which ingestion lists as sample values.
    """
    db = Database(db_id)
    pool = rng.sample(vocab.column_words, column_words)
    for t, n_columns in enumerate(_spread(rng, *width, tables)):
        name = f"t_{next(vocab.table_words)}"
        columns: list[Column] = []
        used: set[str] = set()
        described = _flags(rng, n_columns, 0.8)
        listed = _flags(rng, n_columns, 0.3)
        for j in range(n_columns):
            while True:
                col_name = "_".join(rng.sample(pool, 2))
                if col_name not in used:
                    used.add(col_name)
                    break
            description = " ".join(rng.sample(vocab.description_words, 4)) if described[j] else None
            values = None
            if listed[j]:
                values = tuple(next(vocab.value_words) for _ in range(2 + j % 4))
            columns.append(Column(col_name, description, values,
                                  prefix=f"{col_name.split('_')[0]}{j}x",
                                  stride=rng.choice((7, 11, 13, 17, 19))))
        db.tables.append(Table(name, rows, columns, db.tables[0].name if t else None))
    return db


def _write_database(root: Path, db: Database) -> None:
    db_dir = root / "databases" / db.db_id
    desc_dir = db_dir / "database_description"
    desc_dir.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(db_dir / f"{db.db_id}.sqlite")
    try:
        for table in db.tables:
            defs = ["id INTEGER PRIMARY KEY"]
            if table.parent:
                defs.append("parent_id INTEGER")
            defs += [f'"{c.name}" TEXT' for c in table.columns]
            if table.parent:
                defs.append(f"FOREIGN KEY (parent_id) REFERENCES {table.parent}(id)")
            conn.execute(f'CREATE TABLE {table.name} ({", ".join(defs)})')
            ids = range(1, table.rows + 1)
            data = [list(ids)]
            if table.parent:
                data.append([(r * 31) % table.rows + 1 for r in ids])
            data += [[table.value(c, r) for r in ids] for c in table.columns]
            marks = ", ".join("?" * len(data))
            conn.executemany(f"INSERT INTO {table.name} VALUES ({marks})", zip(*data))
            lines = ["original_column_name,column_description"]
            lines += [f"{c.name},{c.description}" for c in table.columns if c.description]
            (desc_dir / f"{table.name}.csv").write_text("\n".join(lines), encoding="utf-8")
        conn.commit()
    finally:
        conn.close()


@dataclass
class Question:
    question: str
    sql: str
    db_id: str
    answer: str            # SQL the scripted model returns
    tables: list[str]      # step-1 answer for chain-of-thought runs
    columns: dict[str, list[str]]  # step-2 answer
    matched: bool


def _slots(rng: random.Random, count: int, kinds, outcomes) -> list[tuple[str, str]]:
    """`count` (kind, outcome) pairs: kinds share the count evenly (a kind
    listed twice gets twice the share) and each gets the outcome shares."""
    slots: list[tuple[str, str]] = []
    for j, kind in enumerate(kinds):
        n = count // len(kinds) + (j < count % len(kinds))
        drawn = [outcome for outcome, share in outcomes for _ in range(round(n * share))]
        drawn = (drawn + [outcomes[0][0]] * n)[:n]
        slots += [(kind, outcome) for outcome in drawn]
    rng.shuffle(slots)
    return slots


def _unique(slots, draw) -> list[Question]:
    """One question per slot, redrawn until its text is new (answers key on
    text); `draw` gets the attempt number, so a redraw can move on."""
    questions: dict[str, Question] = {}
    for index, slot in enumerate(slots):
        attempt = 0
        while True:
            q = draw(index, attempt, *slot)
            if q.question not in questions:
                questions[q.question] = q
                break
            attempt += 1
    return list(questions.values())


def _wide_questions(rng: random.Random, dbs: list[Database], count: int,
                    outcomes) -> list[Question]:
    """Single-table questions spread evenly over the databases and their
    tables, so every seed asks as many questions of each table width; a
    redraw after a repeated question moves to the next table.

    Mistakes ("wrong"): a value that never occurs (wrong WHERE), a
    neighbouring column (wrong columns), an off-by-one range (wrong WHERE);
    "broken" answers name a column that does not exist.
    """
    def draw(index: int, attempt: int, family: str, outcome: str) -> Question:
        db = dbs[index % len(dbs)]
        table = db.tables[(index // len(dbs) + attempt) % len(db.tables)]
        t = table.name
        if family == "count":
            column = rng.choice([c for c in table.columns if c.values])
            value = rng.choice(column.values)
            words = " ".join(column.name.split("_"))
            question = f"How many entries of {t} show {words} equal to '{value}'?"
            sql = f"SELECT COUNT(*) FROM {t} WHERE \"{column.name}\" = '{value}'"
            wrong = f"SELECT COUNT(*) FROM {t} WHERE \"{column.name}\" = '{value}zz'"
            used = [column.name]
        elif family == "lookup":
            column, other = rng.sample([c for c in table.columns if not c.values], 2)
            row = rng.randint(1, table.rows)
            words = " ".join(column.name.split("_"))
            question = f"Give the {words} of entry number {row} in {t}?"
            sql = f"SELECT \"{column.name}\" FROM {t} WHERE id = {row}"
            wrong = f"SELECT \"{other.name}\" FROM {t} WHERE id = {row}"
            used = [column.name, "id"]
        else:
            row = rng.randint(2, table.rows)
            question = f"How many entries of {t} come at or before number {row}?"
            sql = f"SELECT COUNT(*) FROM {t} WHERE id <= {row}"
            wrong = f"SELECT COUNT(*) FROM {t} WHERE id < {row}"
            used = ["id"]
        if outcome == "broken":
            wrong = f"SELECT COUNT(*) FROM {t} WHERE missing_field = 'x'"
        right = outcome == "right"
        return Question(question, sql, db.db_id, sql if right else wrong, [t], {t: used}, right)

    return _unique(_slots(rng, count, ("count", "lookup", "range"), outcomes), draw)


def _exec_database(rng: random.Random, root: Path) -> list[Question]:
    """One ~25 MB database: 300k orders over customers and products."""
    db_id = "shop"
    db_dir = root / "databases" / db_id
    desc_dir = db_dir / "database_description"
    desc_dir.mkdir(parents=True, exist_ok=True)
    regions = tuple(f"region_{w}" for w in _words(rng, 5, 2))
    segments = tuple(f"segment_{w}" for w in _words(rng, 4, 2))
    categories = tuple(f"category_{w}" for w in _words(rng, 5, 2))
    statuses = ("open", "paid", "shipped", "returned")
    n_customers, n_products, n_orders, days = 20_000, 2_000, 300_000, 365
    a, b, c = rng.choice((7, 11, 13)), rng.choice((17, 19, 23)), rng.choice((29, 31, 37))

    conn = sqlite3.connect(db_dir / f"{db_id}.sqlite")
    try:
        conn.executescript("""
            CREATE TABLE customers (
                id INTEGER PRIMARY KEY, name TEXT, region TEXT, segment TEXT, signup_day INTEGER);
            CREATE TABLE products (
                id INTEGER PRIMARY KEY, title TEXT, category TEXT, cost REAL);
            CREATE TABLE orders (
                id INTEGER PRIMARY KEY, customer_id INTEGER, product_id INTEGER,
                quantity INTEGER, price REAL, status TEXT, day INTEGER, note TEXT,
                FOREIGN KEY (customer_id) REFERENCES customers(id),
                FOREIGN KEY (product_id) REFERENCES products(id));
        """)
        # Regions and segments are drawn, not derived from the id: with
        # modular arithmetic every order of one day would share a region.
        conn.executemany("INSERT INTO customers VALUES (?, ?, ?, ?, ?)", [
            (i, f"customer {i * a % 99991}", rng.choice(regions), rng.choice(segments), i % days)
            for i in range(1, n_customers + 1)])
        conn.executemany("INSERT INTO products VALUES (?, ?, ?, ?)", (
            (i, f"product {i * b % 9973}", categories[i * c % 5], round(1 + (i * a % 500) / 7, 2))
            for i in range(1, n_products + 1)))
        conn.executemany("INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)", (
            (i, i * a % n_customers + 1, i * b % n_products + 1, 1 + i * c % 9,
             round(2 + (i * a % 1000) / 9, 2), statuses[i * b % 4], i % days,
             f"order note {i * c % 100003} placed by customer {i * a % n_customers + 1}")
            for i in range(1, n_orders + 1)))
        conn.commit()
    finally:
        conn.close()
    for table, notes in {
        "customers": [("region", "sales region of the customer"),
                      ("segment", "market segment")],
        "orders": [("quantity", "units ordered"), ("price", "unit price"),
                   ("status", "fulfilment status"), ("day", "day of the year ordered")],
        "products": [("category", "product category"), ("cost", "unit cost")],
    }.items():
        lines = ["original_column_name,column_description"] + [f"{k},{v}" for k, v in notes]
        (desc_dir / f"{table}.csv").write_text("\n".join(lines), encoding="utf-8")

    # Range reads are 5/12 of the questions and sit in the middle of the
    # cost order (cheaper: union, tables, join, notes; dearer: syntax,
    # nested, group), so the median question lands inside one dense
    # cluster and the p95 inside the group-by cluster.
    kinds = ("range", "range", "range", "range", "range", "notes", "group", "join", "nested",
             "union", "tables", "syntax")
    slots = _slots(rng, 200, kinds, (("right", 0.55), ("wrong", 0.45)))
    # Each kind gets evenly spread result sizes and days, so a kind's cost
    # (and the percentiles it sets) is the same for every seed.
    rank = {}
    per_kind: dict[str, int] = {}
    for index, (kind, _) in enumerate(slots):
        rank[index] = per_kind.get(kind, 0)
        per_kind[kind] = rank[index] + 1
    sizes = {kind: _spread(rng, 4_000, 6_000, n) for kind, n in per_kind.items()}
    day_of = {kind: _spread(rng, 120, 240, n) for kind, n in per_kind.items()}

    def question(index: int, attempt: int, kind: str, outcome: str) -> Question:
        lo = rng.randint(1, n_orders - 40_000)
        hi = lo + sizes[kind][rank[index]]
        day = day_of[kind][rank[index]]
        region = rng.choice(regions)
        category = rng.choice(categories)
        # (question, gold, mistake, tables, columns); each mistake changes
        # the result by construction and lands in the named taxonomy leaf.
        if kind == "range":
            q = f"List id, quantity and price of orders {lo} to {hi}."
            gold = f"SELECT id, quantity, price FROM orders WHERE id BETWEEN {lo} AND {hi}"
            wrong = f"SELECT id, quantity, price FROM orders WHERE id BETWEEN {lo} AND {hi - 1}"
            used = {"orders": ["id", "quantity", "price"]}                 # wrong where
        elif kind == "notes":
            q = f"List the notes of orders {lo} to {hi}."
            gold = f"SELECT note FROM orders WHERE id BETWEEN {lo} AND {hi}"
            wrong = f"SELECT status FROM orders WHERE id BETWEEN {lo} AND {hi}"
            used = {"orders": ["note", "id"]}                              # wrong columns
        elif kind == "group":
            q = f"Count orders per status before day {day}."
            gold = f"SELECT status, COUNT(*) FROM orders WHERE day < {day} GROUP BY status"
            wrong = (f"SELECT status, COUNT(*) FROM orders WHERE day < {day} "
                     f"GROUP BY status, quantity")
            used = {"orders": ["status", "day"]}                           # group by
        elif kind == "join":
            q = f"Total quantity per region for orders {lo} to {hi}."
            gold = (f"SELECT customers.region, SUM(orders.quantity) FROM orders "
                    f"JOIN customers ON orders.customer_id = customers.id "
                    f"WHERE orders.id BETWEEN {lo} AND {hi} GROUP BY customers.region")
            wrong = (f"SELECT customers.region, SUM(orders.quantity) FROM orders "
                     f"JOIN customers ON orders.product_id = customers.id "
                     f"WHERE orders.id BETWEEN {lo} AND {hi} GROUP BY customers.region")
            used = {"orders": ["quantity", "customer_id", "id"],
                    "customers": ["region", "id"]}                         # join columns
        elif kind == "nested":
            q = f"How many orders in {region} were placed on day {day}?"
            gold = (f"SELECT COUNT(*) FROM orders WHERE day = {day} AND customer_id IN "
                    f"(SELECT id FROM customers WHERE region = '{region}')")
            wrong = f"SELECT COUNT(*) FROM orders WHERE day = {day}"
            used = {"orders": ["day", "customer_id"], "customers": ["id", "region"]}
        elif kind == "union":
            cost = rng.randint(2, 30)
            q = f"Ids of products in {category} or costing under {cost}."
            gold = (f"SELECT id FROM products WHERE category = '{category}' "
                    f"UNION SELECT id FROM products WHERE cost < {cost}")
            wrong = f"SELECT id FROM products WHERE category = '{category}'"
            used = {"products": ["id", "category", "cost"]}                # set operation
        elif kind == "tables":
            q = f"How many customers in {region} signed up before day {day}?"
            gold = (f"SELECT COUNT(*) FROM customers WHERE region = '{region}' "
                    f"AND signup_day < {day}")
            wrong = f"SELECT COUNT(*) FROM clients WHERE signup_day < {day}"
            used = {"customers": ["region", "signup_day"]}                 # tables not exist
        else:  # "syntax"
            q = f"How many orders were placed on day {day}?"
            gold = f"SELECT COUNT(*) FROM orders WHERE day = {day}"
            wrong = "SELECT COUNT(*) FROM orders WHERE day ="
            used = {"orders": ["day"]}                                     # syntax error
        right = outcome == "right"
        return Question(q, gold, db_id, gold if right else wrong, list(used), used, right)

    return _unique(slots, question)


def _records(questions: list[Question], start_id: int) -> list[dict]:
    return [
        {"question_id": start_id + i, "question": q.question, "evidence": "",
         "SQL": q.sql, "db_id": q.db_id, "difficulty": DIFFICULTIES[i % 3]}
        for i, q in enumerate(questions)
    ]


def _script_entry(q: Question) -> dict:
    """Scripted answers for every prompt shape that names this question."""
    answer = q.answer
    body = answer[len("SELECT"):] if answer.upper().startswith("SELECT") else " " + answer
    columns = "; ".join(f"{t}: ({', '.join(cols)})" for t, cols in q.columns.items())
    return {
        "final": body,
        "tables": f"Tables: ({', '.join(q.tables)})",
        "columns": f"Columns: {columns}",
        "skeleton": answer,
    }


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under out_dir and return its answer key."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    root = out_dir / "root"
    root.mkdir(parents=True)
    splits: dict[str, list[dict]] = {}

    if workload == "exec_heavy":
        dev = _exec_database(rng, root)
    else:
        vocab = _Vocabulary(rng)
        if workload == "cot_live":
            dbs = [_wide_database(rng, vocab, f"db{i}", tables=5, width=(6, 14), rows=300,
                                  column_words=40) for i in range(4)]
            n_dev = 200
        else:
            # The few-shot catalogs keep the column shape with five tables
            # and fewer rows: a prompt holds four of them, and a pass must
            # stay short enough to repeat within a run.
            n_db, n_tables, rows = ((6, 8, 2000) if workload == "zeroshot_wide"
                                    else (10, 5, 500))
            dbs = [_wide_database(rng, vocab, f"db{i}", tables=n_tables, width=(10, 40),
                                  rows=rows, column_words=120) for i in range(n_db)]
            n_dev = 240 if workload == "zeroshot_wide" else 200
        for db in dbs:
            _write_database(root, db)
        dev = _wide_questions(rng, dbs, n_dev,
                              (("right", 0.6), ("wrong", 0.32), ("broken", 0.08)))
        if workload == "fewshot3":
            pool = _wide_questions(rng, dbs, 200, (("right", 1.0),))
            splits["train"] = _records(pool, 100_000)
    splits["dev"] = _records(dev, 0)

    for name, records in splits.items():
        (root / f"{name}.json").write_text(json.dumps(records, indent=1), encoding="utf-8")
    script = {q.question: _script_entry(q) for q in dev}
    (out_dir / "script.json").write_text(json.dumps(script, indent=1, sort_keys=True),
                                         encoding="utf-8")
    key = {"matched": {str(i): q.matched for i, q in enumerate(dev)},
           "questions": len(dev)}
    (out_dir / "key.json").write_text(json.dumps(key, indent=1), encoding="utf-8")
    return key
